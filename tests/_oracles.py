"""Reference implementations that the tests compare the package against."""

from typing import Sequence

import numpy as np

from experttest.core import Dataset, DistanceMetric
from experttest.matching import Matching, TooManyPairs

_SCAN_CHUNK = 1 << 16


def dense_greedy_match(d: Dataset, L: int, metric: DistanceMetric) -> Matching:
    """Literal greedy matching: sort all n(n-1)/2 pairs, then scan them once.

    O(n^2) memory; the reference for :func:`experttest.matching.greedy_match`.
    """
    n = d.n
    if L < 1:
        raise ValueError("L must be at least 1")
    if L > n // 2:
        raise TooManyPairs(f"L={L} exceeds floor(n/2)={n // 2}")

    dist = metric.pairwise_condensed(d.x)
    ii, jj = np.triu_indices(n, k=1)
    # process pairs in (distance, i, j) order; the first pair with both
    # endpoints unused is exactly the greedy argmin at that step
    order = np.lexsort((jj, ii, dist))

    free = np.ones(n, dtype=bool)
    pairs: list[tuple[int, int]] = []
    dists: list[float] = []
    for start in range(0, order.size, _SCAN_CHUNK):
        block = order[start : start + _SCAN_CHUNK]
        bi = ii[block].tolist()
        bj = jj[block].tolist()
        bd = dist[block].tolist()
        for i, j, t in zip(bi, bj, bd):
            if free[i] and free[j]:
                free[i] = False
                free[j] = False
                pairs.append((i, j))
                dists.append(t)
                if len(pairs) == L:
                    return Matching(pairs, dists)
    raise AssertionError("unreachable: L <= floor(n/2) guarantees enough pairs")


def resample_once(d: Dataset, m: Matching, rng: np.random.Generator) -> Dataset:
    """One synthetic dataset: each pair's predictions are exchanged with probability 1/2.

    Draws one Bernoulli per pair from ``rng`` in pair order; ``x`` and ``y``
    values never move. With ``rng = swap_stream(seed, k)`` this is the k-th
    resample of the literal test procedure that the engine vectorises.
    """
    pi, pj = m.pairs.T
    if len(m) and m.pairs.max() >= d.n:
        raise ValueError("matching indices out of range for this dataset")
    swap = rng.random(len(m)) < 0.5
    y_hat = d.y_hat.copy()
    a, b = pi[swap], pj[swap]
    y_hat[a], y_hat[b] = y_hat[b], y_hat[a]
    return d.with_y_hat(y_hat)


def tau_statistic(
    observed_loss: float, resampled_losses: Sequence[float], rng: np.random.Generator
) -> float:
    """Fraction of resampled losses below the observed loss, ties split by fair coins.

    Each comparison contributes 1 when the resampled loss is strictly
    smaller, 0 when strictly larger, and an independent fair Bernoulli draw
    (one per tied comparison, in comparison order) when exactly equal. With
    ``rng = tie_break_stream(seed)`` this is the engine's ``tau``.
    """
    res = np.asarray(resampled_losses, dtype=np.float64)
    if res.size < 1:
        raise ValueError("need at least one resampled loss")
    less = res < observed_loss
    ties = res == observed_loss
    coins = rng.random(int(ties.sum())) < 0.5
    return float((int(less.sum()) + int(coins.sum())) / res.size)
