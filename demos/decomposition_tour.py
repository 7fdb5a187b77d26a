"""How the planner splits a diagram before any solving happens.

Connected components become independent subproblems, shared-outcome
structure is factored where the operation set is a product, chains get
their own solver, and whatever is left goes to the numeric route.  The
plan is data; this script just prints it for a few diagrams.
"""

import json

from greechie_mle import build_diagram, build_plan, plan_summary, plan_verdict
from greechie_mle.shapes import comb, path4, tennis

# Two triples sharing one outcome: a product of a classical pair with
# the shared/rest split.
print("tennis:", plan_verdict(build_plan(tennis())))
print(json.dumps(plan_summary(build_plan(tennis())), indent=2))

# A chain plus a detached coin: a horizontal sum with a chain child.
chain_and_coin = build_diagram(
    ["a1", "a2", "y1", "b", "y2", "c1", "d1", "d2", "y3", "h", "t"],
    [
        ["a1", "a2", "y1"],
        ["y1", "b", "y2"],
        ["y2", "c1", "y3"],
        ["y3", "d1", "d2"],
        ["h", "t"],
    ],
)
plan = build_plan(chain_and_coin)
print("\nchain + coin:", plan_verdict(plan))
print(json.dumps(plan_summary(plan), indent=2))

# The comb shares each spine outcome with a tooth; no decomposition
# applies and the verdict says so.
print("\ncomb:", plan_verdict(build_plan(comb())))
print("path4:", plan_verdict(build_plan(path4())))
