"""Reference implementations that the tests compare the package against."""

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
                    return Matching.from_pairs(pairs, dists)
    raise AssertionError("unreachable: L <= floor(n/2) guarantees enough pairs")
