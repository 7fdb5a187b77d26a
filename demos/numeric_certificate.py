"""The four-cycle has no closed form; the dual solver certifies it.

Every outcome sits in two operations, so no decomposition applies and
the estimate comes from primal-dual Newton iterations; "sweeps" counts
them.  They stop once p(x) sigma(x) = n(x), where sigma(x) sums the
printed multipliers of the operations containing x, and every operation
sum is 1, both to 1e-13.  The certificate, printed after the operation
sums, is the worst constraint gap: the largest distance of an operation
sum from 1 or of a probability from [0, 1].
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
print(f"certificate (worst constraint gap): {result.residual:.2e}")
print(f"multipliers: {[round(v, 3) for v in result.diagnostics['multipliers']]}")

# A random-search oracle over the feasible polytope never does better.
best = brute_force_mle(diagram, counts, OracleBudget(sample_count=20_000, rng_seed=1))
print(f"solver  log-lik: {log_likelihood(counts, result.p):.9f}")
print(f"oracle  log-lik: {log_likelihood(counts, best):.9f}")
