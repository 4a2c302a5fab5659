"""Greedy nearest-pair matching and a summary of its pair distances.

The greedy matcher repeatedly removes the globally closest remaining pair of
records, ties going to the lexicographically smallest index pair. It finds
that matching exactly without the n(n-1)/2 pair table: one sort pairs up
equal rows, then rounds of KD-tree radius queries over the records still
free return every pair below a radius, which is all the greedy scan needs
below it (see :func:`greedy_match`). Time and memory grow with n and the candidates per
round, not with n squared.
"""

from dataclasses import dataclass

import numpy as np

from .core import Dataset, DistanceMetric, ExpertTestError, row_distances

__all__ = [
    "TooManyPairs",
    "Matching",
    "PairDistanceSummary",
    "greedy_match",
    "pair_distance_summary",
]


class TooManyPairs(ExpertTestError, ValueError):
    """Requested more disjoint pairs than floor(n/2)."""


@dataclass(frozen=True, eq=False)
class Matching:
    """L disjoint index pairs in greedy selection order.

    ``pairs`` is a read-only ``(L, 2)`` index array whose row ``t`` is the
    pair removed at step ``t``; ``distances[t]`` is its distance, so
    ``distances`` is nondecreasing. ``mismatch_count`` is the number of pairs
    whose members are not identical in feature space (distance > 0), the
    source of the test's approximation error.
    """

    pairs: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        pairs = np.array(self.pairs, dtype=np.intp)
        distances = np.array(self.distances, dtype=np.float64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if distances.ndim != 1 or pairs.shape != (distances.size, 2):
            raise ValueError("pairs must be an (L, 2) array aligned with L distances")
        if (pairs < 0).any() or np.unique(pairs).size != pairs.size:
            raise ValueError("matching pairs must be disjoint nonnegative indices")
        if (np.diff(distances) < 0).any():
            raise ValueError("greedy distances must be nondecreasing")
        if not (distances >= 0).all():
            raise ValueError("distances must be nonnegative")
        for name, arr in (("pairs", pairs), ("distances", distances)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.distances)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return np.array_equal(self.pairs, other.pairs) and np.array_equal(
            self.distances, other.distances
        )

    def prefix(self, L: int) -> "Matching":
        """First ``L`` selected pairs; identical to running the greedy matcher at L.

        A prefix of a checked matching passes every check of
        ``__post_init__`` by construction, so it is not checked again: its
        arrays are read-only views of this matching's first ``L`` rows.
        """
        if not 0 <= L <= len(self):
            raise ValueError(f"prefix length {L} out of range")
        head = object.__new__(Matching)
        object.__setattr__(head, "pairs", self.pairs[:L])
        object.__setattr__(head, "distances", self.distances[:L])
        return head

    @property
    def mismatch_count(self) -> int:
        return int(np.count_nonzero(self.distances))

    @property
    def max_distance(self) -> float:
        return float(self.distances[-1]) if len(self) else 0.0


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
    records still free and collects the pairs within a radius ``r``. The
    candidates are scanned in ``(distance, i, j)`` order and a pair is
    accepted while its distance is at most ``r * (1 - 1e-9)``. Up to that
    limit every free pair is a candidate, so each accepted pair is the
    global greedy choice at its step, whatever ``r`` is. Greedy on the
    records still free continues greedy on all records, so the next round
    starts over on them, until L pairs are taken.

    The radius only sets how much one round takes. It is just above the
    ``need``-th smallest nearest-free-neighbour distance, where ``need`` is
    the number of pairs still missing, and at least twice the last round's
    radius. A round that ends short of L took every free pair within its
    limit, so a round at or below its radius could take nothing. The
    nearest-neighbour distances are queried in the first round and reused
    after it: a record's distance to its nearest free neighbour can only
    grow as records are taken, so the stored values are lower bounds. They
    are queried again only after a round at radius 0, since doubling cannot
    move a radius of 0.

    Typical inputs need two to six rounds, each O(m log m + c log c) time
    and O(m + c) memory for m free records and c candidates, where c is
    usually of the order of ``need``. Distances come from the same
    column-by-column kernel as :meth:`DistanceMetric.distance`. scipy's
    KD tree is imported when the first round needs it, so a matching made
    of equal rows alone never loads it.

    Raises
    ------
    TooManyPairs
        If ``L`` exceeds floor(n/2).
    ValueError
        If ``L < 1``, if the metric's weights do not match the feature
        dimension, if weighting makes a feature NaN or infinite, or if the
        scaled features span so wide that squared pair distances overflow.
    """
    n = d.n
    if L < 1:
        raise ValueError("L must be at least 1")
    if L > n // 2:
        raise TooManyPairs(f"L={L} exceeds floor(n/2)={n // 2}")

    x = metric._scaled(d.x)
    # NaN or infinite coordinates would stall the rounds below
    if not np.isfinite(x).all():
        raise ValueError("metric-scaled features must be finite; check the metric weights")
    # the KD tree squares radii of up to about twice the largest pair distance
    with np.errstate(over="ignore"):
        span = 8 * np.square(x.max(0) - x.min(0)).sum()
    if not np.isfinite(span):
        raise ValueError("metric-scaled feature span too wide; squared pair distances overflow")
    free = np.ones(n, dtype=bool)
    zero = _identical_pairs(x)[:L]
    free[zero.ravel()] = False
    pairs, dists = [zero], [np.zeros(len(zero))]  # one entry per round
    found = len(zero)
    nearest = np.empty(n)  # per record, a lower bound on its distance to the nearest free record
    r = 0.0  # the last KD round's radius
    while found < L:
        from scipy.spatial import cKDTree

        idx = np.flatnonzero(free)
        sub = x[idx]
        tree = cKDTree(sub)
        # in the first round and after a round at radius 0, which doubling
        # cannot move: only fresh bounds can
        if r == 0:
            nearest[idx] = tree.query(sub, k=2)[0][:, 1]
        need = L - found
        bound = np.partition(nearest[idx], need - 1)[need - 1]
        # just above the need-th distance, so that with exact distances
        # the closest free pair lies inside the acceptance limit below;
        # at least twice the last radius, which the last round used up
        r = max(bound * (1 + 1e-8), 2 * r)
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
        taken = []
        for k, i, j in zip(order.tolist(), ii[order].tolist(), jj[order].tolist()):
            if free[i] and free[j]:
                free[i] = free[j] = False
                taken.append(k)
                if found + len(taken) == L:
                    break
        pairs.append(np.column_stack((ii[taken], jj[taken])))
        dists.append(dist[taken])
        found += len(taken)
    return Matching(np.concatenate(pairs), np.concatenate(dists))


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


def pair_distance_summary(m: Matching) -> PairDistanceSummary:
    """Distribution summary (min, quartiles, max, count at zero) of pair distances."""
    if not len(m):
        raise ValueError("cannot summarize an empty matching")
    t = m.distances
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
