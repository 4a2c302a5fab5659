"""Greedy nearest-pair matching and an exhaustive minimax-matching oracle.

The greedy matcher repeatedly removes the globally closest remaining pair of
records, ties going to the lexicographically smallest index pair. It finds
that matching exactly without the n(n-1)/2 pair table: one sort pairs up
equal rows, then rounds of KD-tree radius queries over the records still
free return every pair below a radius, which is all the greedy scan needs
below it (see :func:`greedy_match`). Time and memory grow with n and the candidates per
round, not with n squared. The oracle enumerates every disjoint pairing of a
small instance and returns the best achievable maximum pair distance, which
upper-bounds the greedy matcher's worst pair at twice the matching size (a
guarantee the test suite checks on random instances).
"""

from dataclasses import dataclass

import numpy as np

from .core import Dataset, DistanceMetric, ExpertTestError, row_distances

__all__ = [
    "TooManyPairs",
    "InstanceTooLarge",
    "Matching",
    "PairDistanceSummary",
    "greedy_match",
    "brute_force_optimal_matching",
    "pair_distance_summary",
]

# exhaustive enumeration cap for the oracle
_MAX_ORACLE_N = 14

# free records at or below which one dense scan finishes the matching
_DENSE_TAIL = 64


class TooManyPairs(ExpertTestError):
    """Requested more disjoint pairs than floor(n/2)."""


class InstanceTooLarge(ExpertTestError):
    """The exhaustive matching oracle only handles very small instances."""


@dataclass(frozen=True)
class Matching:
    """L disjoint index pairs in greedy selection order.

    ``pairs[t]`` is the pair removed at step ``t``; ``distances[t]`` is its
    distance, so ``distances`` is nondecreasing. ``mismatch_count`` is the
    number of pairs whose members are not identical in feature space
    (distance > 0), the source of the test's approximation error.
    """

    pairs: tuple[tuple[int, int], ...]
    distances: tuple[float, ...]
    mismatch_count: int

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.distances):
            raise ValueError("pairs and distances must align")
        seen: set[int] = set()
        for i, j in self.pairs:
            if i == j or i in seen or j in seen:
                raise ValueError("matching pairs must be disjoint")
            seen.update((i, j))
        if any(b < a for a, b in zip(self.distances, self.distances[1:])):
            raise ValueError("greedy distances must be nondecreasing")
        if any(t < 0 for t in self.distances):
            raise ValueError("distances must be nonnegative")
        if self.mismatch_count != sum(1 for t in self.distances if t > 0):
            raise ValueError("mismatch_count inconsistent with distances")

    def __len__(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_pairs(cls, pairs, distances) -> "Matching":
        distances = tuple(float(t) for t in distances)
        return cls(
            tuple((int(i), int(j)) for i, j in pairs),
            distances,
            sum(1 for t in distances if t > 0),
        )

    def prefix(self, L: int) -> "Matching":
        """First ``L`` selected pairs; identical to running the greedy matcher at L."""
        if not 0 <= L <= len(self.pairs):
            raise ValueError(f"prefix length {L} out of range")
        return Matching.from_pairs(self.pairs[:L], self.distances[:L])

    def index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Pair members as two int arrays (first member, second member)."""
        if not self.pairs:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty.copy()
        arr = np.asarray(self.pairs, dtype=np.intp)
        return arr[:, 0], arr[:, 1]

    @property
    def max_distance(self) -> float:
        return max(self.distances) if self.distances else 0.0


@dataclass(frozen=True)
class PairDistanceSummary:
    """Order statistics of a matching's pair distances."""

    count: int
    zero_count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def greedy_match(d: Dataset, L: int, metric: DistanceMetric) -> Matching:
    """Select ``L`` disjoint pairs by repeatedly removing the closest remaining pair.

    Ties are broken deterministically by the lexicographically smallest
    ``(i, j)`` index pair. With odd ``n`` the leftover record is simply never
    selected.

    The result is the literal greedy matching -- same pairs, order and
    float distances as sorting all n(n-1)/2 pairs -- found without forming
    that table. Distance-0 pairs come first, and for all but vanishingly
    small coordinates they are the pairs of equal rows, which one sort
    groups. The rest is found in rounds. Each round builds a KD tree on the
    records still free and collects the pairs within a radius ``r``: the
    ``need``-th smallest nearest-neighbour distance among them, where
    ``need`` is the number of pairs still missing, doubled after a round that
    adds no pair. The candidates are scanned in ``(distance, i, j)`` order
    and a pair is accepted while its distance is at most ``r * (1 - 1e-9)``.
    Up to that limit every free pair is a candidate, so each accepted pair is
    the global greedy choice at its step. Greedy on the records still free
    continues greedy on all records, so the next round starts over on them;
    once at most 64 records are free, one dense scan over their pairs
    finishes.

    Typical inputs need a handful of rounds, each O(m log m + c log c) time
    and O(m + c) memory for m free records and c candidates, where c is
    usually of the order of ``need``. Distances come from the same
    column-by-column kernel as :meth:`DistanceMetric.distance`.

    Raises
    ------
    TooManyPairs
        If ``L`` exceeds floor(n/2).
    ValueError
        If ``L < 1``, if the metric's weights do not match the feature
        dimension, or if weighting makes a feature NaN or infinite.
    """
    from scipy.spatial import cKDTree

    n = d.n
    if L < 1:
        raise ValueError("L must be at least 1")
    if L > n // 2:
        raise TooManyPairs(f"L={L} exceeds floor(n/2)={n // 2}")

    x = metric._scaled(d.x)
    # NaN or infinite coordinates would stall the rounds below
    if not np.isfinite(x).all():
        raise ValueError("metric-scaled features must be finite; check the metric weights")
    free = np.ones(n, dtype=bool)
    zero = _identical_pairs(x)[:L]
    free[zero.ravel()] = False
    pairs = [(i, j) for i, j in zero.tolist()]
    dists = [0.0] * len(pairs)
    grow = 1.0
    while len(pairs) < L:
        idx = np.flatnonzero(free)
        found = len(pairs)
        if idx.size <= _DENSE_TAIL:
            ii, jj = np.triu_indices(idx.size, k=1)
            limit = np.inf
        else:
            sub = x[idx]
            tree = cKDTree(sub)
            nearest = tree.query(sub, k=2)[0][:, 1]
            need = L - found
            r = np.partition(nearest, need - 1)[need - 1] * grow
            ii, jj = tree.query_pairs(r, output_type="ndarray").T
            # the tree's own distance arithmetic may differ from the kernel's
            # in the last bits; the margin keeps every accepted pair well inside
            # r, and r == 0 still admits the exact zeros it collected
            limit = r * (1 - 1e-9)
        ii, jj = idx[ii], idx[jj]
        dist = row_distances(x, ii, jj)
        # (distance, i, j) order: the first candidate with both endpoints free
        # is the greedy argmin at that step, as long as it lies within the limit
        order = np.lexsort((jj, ii, dist))
        order = order[: np.searchsorted(dist[order], limit, side="right")]
        for i, j, t in zip(ii[order].tolist(), jj[order].tolist(), dist[order].tolist()):
            if free[i] and free[j]:
                free[i] = False
                free[j] = False
                pairs.append((i, j))
                dists.append(t)
                if len(pairs) == L:
                    break
        grow = 1.0 if len(pairs) > found else 2 * grow
    return Matching.from_pairs(pairs, dists)


def _identical_pairs(x: np.ndarray) -> np.ndarray:
    """The distance-0 pairs greedy takes first, as a (k, 2) index array.

    Within each group of equal rows, members are paired in index order
    (first with second, third with fourth, ...), and the pairs are sorted by
    their first index: exactly the order of a ``(0, i, j)`` scan. Equal rows
    are the distance-0 pairs only if no two distinct rows are at distance 0:
    coordinates below 2**-400 in magnitude can differ by so little that the
    difference squares to 0, so for such data no pairs are returned and the
    radius-0 rounds of :func:`greedy_match` find them instead. Grouping here
    costs O(n log n) where radius 0 yields g(g-1)/2 candidates per group.
    """
    if ((x != 0) & (np.abs(x) < 2.0**-400)).any():
        return np.empty((0, 2), dtype=np.intp)
    order = np.lexsort(x.T)  # stable, so equal rows stay in index order
    rows = x[order]
    starts = np.ones(len(x), dtype=bool)
    starts[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    pos = np.arange(len(x))
    rank = pos - np.maximum.accumulate(np.where(starts, pos, 0))
    first = np.flatnonzero((rank[:-1] % 2 == 0) & ~starts[1:])
    found = np.column_stack((order[first], order[first + 1]))
    return found[np.argsort(found[:, 0])]


def brute_force_optimal_matching(d: Dataset, L: int, metric: DistanceMetric) -> float:
    """Minimax pair distance over *all* matchings of size ``L`` (exhaustive).

    Returns the smallest achievable maximum pair distance among every way of
    choosing ``L`` disjoint index pairs. Exponential in ``n``; refuses
    instances with more than 14 records.

    Raises
    ------
    InstanceTooLarge
        If ``n`` exceeds the enumeration cap.
    TooManyPairs
        If ``L`` exceeds floor(n/2).
    """
    n = d.n
    if n > _MAX_ORACLE_N:
        raise InstanceTooLarge(f"n={n} exceeds the enumeration cap of {_MAX_ORACLE_N}")
    if L < 1:
        raise ValueError("L must be at least 1")
    if L > n // 2:
        raise TooManyPairs(f"L={L} exceeds floor(n/2)={n // 2}")

    dm = metric.pairwise_matrix(d.x)
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


def pair_distance_summary(m: Matching) -> PairDistanceSummary:
    """Distribution summary (min, quartiles, max, count at zero) of pair distances."""
    if not m.distances:
        raise ValueError("cannot summarize an empty matching")
    t = np.asarray(m.distances)
    q1, med, q3 = np.quantile(t, [0.25, 0.5, 0.75])
    return PairDistanceSummary(
        count=len(m),
        zero_count=int((t == 0).sum()),
        minimum=float(t.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(t.max()),
    )
