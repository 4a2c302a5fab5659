"""How mismatched pairs erode validity, and what the computable bounds say.

On continuous features no two records coincide, so every pair the matcher
picks carries some approximation error. Given a smoothness constant C for the
prediction density, we can bound the worst per-pair swap bias (epsilon*), the
resulting excess type-I error, and a corrected rejection threshold.
"""

import numpy as np

from experttest import (
    Dataset,
    DistanceMetric,
    Smoothness,
    adjusted_threshold,
    epsilon_star,
    greedy_match,
    pair_distance_summary,
    tv_coin_bound,
    type1_bound,
)

rng = np.random.default_rng(0)
n = 400
x = rng.uniform(0, 1, (n, 2))
data = Dataset(x, rng.standard_normal(n), rng.standard_normal(n))
metric = DistanceMetric.euclidean()

alpha, K, C = 0.05, 1000, 2.0
print(f"alpha={alpha}  K={K}  smoothness C={C}")
print(f"{'L':>4} {'max dist':>9} {'eps*':>8} {'theorem':>8} {'union':>8} {'adj thr':>8}")
for L in (10, 50, 100, 200):
    m = greedy_match(data, L, metric)
    eps = epsilon_star(data, m, Smoothness(C))
    theorem1, union = type1_bound(alpha, eps, L, K)
    adj = adjusted_threshold(alpha, C, m, L, K)
    print(f"{L:>4} {m.max_distance:>9.4f} {eps:>8.4f} {theorem1:>8.4f} {union:>8.4f} {adj:>8.4f}")

print()
m = greedy_match(data, 100, metric)
print("pair distance distribution at L=100:", pair_distance_summary(m))

# the coupling bound behind the theorem, on its own
devs = np.abs(1 / (1 + (1 + C * m.distances) ** 2) - 0.5)
print(f"tv_coin_bound over the 100 pairs: {tv_coin_bound(devs):.4f}")
