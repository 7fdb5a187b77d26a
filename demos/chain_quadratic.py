"""A three-operation chain solved through its quadratic.

With every count equal to one, the splitting parameters come out at
sqrt(2) - 1 and the shared outcomes at (3 - sqrt(2))/7.  The script
prints the solved values next to the algebraic targets, then solves a
five-operation path, which has no closed form and goes to the numeric
solver; its splitting parameters come from the solver's multipliers,
c_i = lambda_{i+1} / (lambda_i + lambda_{i+1}).
"""

import math

from greechie_mle import estimate
from greechie_mle.shapes import path3, path5

diagram = path3()
unit = {x: 1 for x in diagram.outcomes}
result = estimate(diagram, unit)

target_shared = (3.0 - math.sqrt(2.0)) / 7.0
target_split = math.sqrt(2.0) - 1.0

print(f"method: {result.method}")
print(f"p(y1) = {float(result.p['y1']):.15f}  target {target_shared:.15f}")
print(f"p(y2) = {float(result.p['y2']):.15f}  target {target_shared:.15f}")
for c in result.diagnostics["splitting_parameters"]:
    print(f"splitting parameter {c:.15f}  target {target_split:.15f}")

longer = path5()
res5 = estimate(longer, {x: 1 for x in longer.outcomes})
print(f"\nfive-operation chain: method {res5.method}")
print("shared outcomes:", {x: round(float(res5.p[x]), 6) for x in ("y1", "y2", "y3", "y4")})
lam = res5.diagnostics["multipliers"]
print("splitting parameters:", [round(b / (a + b), 6) for a, b in zip(lam, lam[1:])])
print(f"residual: {res5.residual:.2e}")
