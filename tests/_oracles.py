"""Reference implementations that the tests compare the package against, and a draw recorder."""

from fractions import Fraction
from typing import Sequence

import numpy as np

from experttest import engine
from experttest.core import Dataset, DistanceMetric, ExpertTestError, LossSpec, row_distances
from experttest.engine import TestConfig, swap_stream, tie_break_stream
from experttest.matching import Matching, TooManyPairs

_SCAN_CHUNK = 1 << 16

# exhaustive enumeration cap for the minimax oracle
_MAX_ORACLE_N = 14


class InstanceTooLarge(ExpertTestError):
    """The exhaustive matching oracle only handles very small instances."""


def pairwise_condensed(metric: DistanceMetric, x: np.ndarray) -> np.ndarray:
    """Condensed distance vector over the rows of ``x`` (scipy pdist order)."""
    ii, jj = np.triu_indices(len(x), k=1)
    return row_distances(metric._scaled(x), ii, jj)


def pairwise_matrix(metric: DistanceMetric, x: np.ndarray) -> np.ndarray:
    from scipy.spatial.distance import squareform

    return squareform(pairwise_condensed(metric, x))


def dense_greedy_match(d: Dataset, L: int, metric: DistanceMetric) -> Matching:
    """Literal greedy matching: sort all n(n-1)/2 pairs, then scan them once.

    O(n^2) memory; the reference for :func:`experttest.matching.greedy_match`.
    """
    n = d.n
    if L < 1:
        raise ValueError("L must be at least 1")
    if L > n // 2:
        raise TooManyPairs(f"L={L} exceeds floor(n/2)={n // 2}")

    dist = pairwise_condensed(metric, d.x)
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


def brute_force_optimal_matching(d: Dataset, L: int, metric: DistanceMetric) -> float:
    """Minimax pair distance over *all* matchings of size ``L`` (exhaustive).

    Returns the smallest achievable maximum pair distance among every way of
    choosing ``L`` disjoint index pairs. Exponential in ``n``; refuses
    instances with more than 14 records (:class:`InstanceTooLarge`).
    """
    n = d.n
    if n > _MAX_ORACLE_N:
        raise InstanceTooLarge(f"n={n} exceeds the enumeration cap of {_MAX_ORACLE_N}")
    if L < 1:
        raise ValueError("L must be at least 1")
    if L > n // 2:
        raise TooManyPairs(f"L={L} exceeds floor(n/2)={n // 2}")

    dm = pairwise_matrix(metric, d.x)
    full = (1 << n) - 1
    memo: dict[tuple[int, int], float] = {}

    def best_max(mask: int, t: int) -> float:
        # minimal achievable max distance using t disjoint pairs among the
        # indices still set in mask
        if t == 0:
            return 0.0
        key = (mask, t)
        if key in memo:
            return memo[key]
        i = (mask & -mask).bit_length() - 1  # lowest free index
        rest = mask & ~(1 << i)
        best = np.inf
        if rest.bit_count() >= 2 * t:
            best = best_max(rest, t)  # leave i unmatched
        sub = rest
        while sub:
            j = (sub & -sub).bit_length() - 1
            sub &= sub - 1
            cand = max(dm[i, j], best_max(rest & ~(1 << j), t - 1))
            if cand < best:
                best = cand
        memo[key] = best
        return best

    return float(best_max(full, L))


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
    return Dataset(d.x, d.y, y_hat)


def tau_statistic(
    observed_loss: float, resampled_losses: Sequence[float], rng: np.random.Generator
) -> float:
    """Fraction of resampled losses below the observed loss, ties split by fair coins.

    Each comparison contributes 1 when the resampled loss is strictly
    smaller, 0 when strictly larger, and an independent fair Bernoulli draw
    (one per tied comparison, in comparison order) when exactly equal. With
    ``rng = tie_break_stream(seed)`` this is the engine's ``tau``. The
    losses may be floats or exact ``Fraction``s, which compare exactly.
    """
    res = np.asarray(resampled_losses)
    if res.size < 1:
        raise ValueError("need at least one resampled loss")
    less = res < observed_loss
    ties = res == observed_loss
    coins = rng.random(int(ties.sum())) < 0.5
    return float((int(less.sum()) + int(coins.sum())) / res.size)


def stacked_swap_mask(master_seed: int, K: int, L: int) -> np.ndarray:
    """The whole K x L swap mask: row k is the first L decisions of swap stream k."""
    return np.stack([swap_stream(master_seed, k).random(L) < 0.5 for k in range(K)])


def record_swap_streams(monkeypatch) -> list[tuple[int, ...]]:
    """Record the seed words of every swap row the engine draws, one entry per row's state written.

    Each call of the engine's ``_SwapMask._draw(start, stop, ...)`` records
    rows ``start`` to ``stop`` as their ``SeedSequence`` words, built here
    from the seed and the row index. A row read from the kept mask is not drawn,
    and the words of row k at one seed are unique to (seed, k), so a
    repeated entry is a row drawn twice.
    """
    built = []
    draw = engine._SwapMask._draw

    def record(self, start, stop, *buffers):
        for k in range(start, stop):
            seq = np.random.SeedSequence(self.master_seed % 2**64, spawn_key=(engine._SWAP_STREAM_BASE + k,))
            built.append(tuple(seq.generate_state(4, np.uint64).tolist()))
        return draw(self, start, stop, *buffers)

    monkeypatch.setattr(engine._SwapMask, "_draw", record)
    return built


def whole_mask_tau(d: Dataset, m: Matching, cfg: TestConfig) -> float:
    """The engine's ``tau``, compared on one whole stacked mask instead of row blocks."""
    less, ties = whole_mask_counts(d, m, cfg)
    coins = tie_break_stream(cfg.master_seed).random(ties) < 0.5
    return (less + int(coins.sum())) / cfg.K


def whole_mask_counts(d: Dataset, m: Matching, cfg: TestConfig) -> tuple[int, int]:
    """How many resamples of one whole stacked mask score below the observed loss, and how many tie it.

    Both counts are exact: every loss change is summed without rounding.
    """
    mask = stacked_swap_mask(cfg.master_seed, cfg.K, cfg.L)
    if cfg.loss.requires_binary:
        less, ties = _compare_binary(d, m, cfg.loss, mask)
    else:
        less, ties = _compare_squared(d, m, mask)
    return int(less.sum()), int(ties.sum())


def exact_squared_loss(d: Dataset) -> Fraction:
    """The mean squared error of the given floats, in exact arithmetic."""
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(d.y.tolist(), d.y_hat.tolist())) / d.n


def mistake_changes(d: Dataset, m: Matching) -> tuple[np.ndarray, np.ndarray]:
    """Which binary pairs' swaps raise their mistake count, and which lower it, counted before and after."""
    pi, pj = m.pairs.T
    y1, y2, p1, p2 = d.y[pi], d.y[pj], d.y_hat[pi], d.y_hat[pj]
    before = (p1 != y1).astype(int) + (p2 != y2)
    after = (p2 != y1).astype(int) + (p1 != y2)
    return after > before, after < before


def _compare_binary(
    d: Dataset, m: Matching, loss: LossSpec, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # a pair's swap adds a false positive and a false negative when it makes
    # two mistakes out of none, and removes one of each when it makes none
    # out of two; a swap that keeps the pair's mistake count moves nothing,
    # so the loss difference is (fp_cost + fn_cost) * (executed increases -
    # decreases) and comparisons are exact integer arithmetic
    increase, decrease = mistake_changes(d, m)
    executed_inc = (mask & increase).sum(axis=1)
    executed_dec = (mask & decrease).sum(axis=1)
    unit = loss.fp_cost + loss.fn_cost
    diff = executed_inc - executed_dec
    if unit == 0.0:
        return np.zeros(mask.shape[0], dtype=bool), np.ones(mask.shape[0], dtype=bool)
    return diff < 0, diff == 0


def _compare_squared(d: Dataset, m: Matching, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the squared errors of the given floats as exact Fractions: each
    # resample's loss change, summed over its swapped pairs, is the literal
    # resample-and-score procedure's, with nothing lost to rounding
    pi, pj = m.pairs.T
    y = np.array([Fraction(v) for v in d.y.tolist()], dtype=object)
    y_hat = np.array([Fraction(v) for v in d.y_hat.tolist()], dtype=object)
    unswapped = (y[pi] - y_hat[pi]) ** 2 + (y[pj] - y_hat[pj]) ** 2
    swapped = (y[pi] - y_hat[pj]) ** 2 + (y[pj] - y_hat[pi]) ** 2
    delta = swapped - unswapped
    diff = np.array([sum(delta[row], Fraction(0)) for row in mask], dtype=object)
    return diff < 0, diff == 0
