"""The four-cycle has no closed form; the dual solver certifies it.

Every outcome sits in two operations, so no decomposition applies and
the estimate comes from damped Newton iterations on the dual; "sweeps"
counts them.  The KKT residual printed after the operation sums is the
certificate: stationarity of the returned point under the solver's own
multipliers, and its largest operation-sum gap.
"""

import numpy as np

from greechie_mle import brute_force_mle, estimate, log_likelihood, OracleBudget
from greechie_mle.shapes import four_cycle

diagram = four_cycle()
rng = np.random.Generator(np.random.Philox(7))
counts = {x: int(rng.integers(1, 40)) for x in diagram.outcomes}
print("counts:", counts)

result = estimate(diagram, counts)
print(f"method: {result.method}, Newton iterations: {result.diagnostics['sweeps']}")
for op in diagram.operations:
    print(f"  sum over {op} = {sum(float(result.p[x]) for x in op):.15f}")
print(f"KKT residual: {result.residual:.2e}")
print(f"multipliers: {[round(v, 3) for v in result.diagnostics['multipliers']]}")

# A random-search oracle over the feasible polytope never does better.
best = brute_force_mle(diagram, counts, OracleBudget(sample_count=20_000, rng_seed=1))
print(f"solver  log-lik: {log_likelihood(counts, result.p):.9f}")
print(f"oracle  log-lik: {log_likelihood(counts, best):.9f}")
