"""Shared domain types: datasets, loss functions, distance metrics, seeded RNG streams.

Everything here is an immutable value object; instances are safe to share
across concurrent workers. Every random draw in the package is a draw of a
:func:`stream`, so any two runs with the same master seed produce
bit-identical results.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "ExpertTestError",
    "IncompatibleLoss",
    "Dataset",
    "LossSpec",
    "DistanceMetric",
    "stream",
    "derive_seed",
    "dataset_loss",
]


class ExpertTestError(Exception):
    """Base class for every error raised by this package."""


class IncompatibleLoss(ExpertTestError):
    """A binary loss variant was applied to non-binary outcomes or predictions."""


# ---------------------------------------------------------------------------
# Seeded RNG streams
# ---------------------------------------------------------------------------

_U64 = (1 << 64) - 1


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for sub-stream ``path`` of ``master_seed``.

    Equal ``(master_seed, path)`` always yield identical draw sequences;
    distinct paths yield statistically independent streams; path entries
    must be nonnegative. Keying every draw by its path makes results
    reproducible under any execution order of independent work items. The
    engine reserves first path entries >= 2**32 for its resampling streams,
    so other code should stick to small ones; the :mod:`experttest.engine`
    module docstring says how it draws them.
    """
    seq = np.random.SeedSequence(master_seed & _U64, spawn_key=path)
    return np.random.default_rng(seq)


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse a sub-stream identity into a fresh 64-bit master seed."""
    seq = np.random.SeedSequence(master_seed & _U64, spawn_key=path)
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class Dataset:
    """An ordered collection of records, stored column-wise.

    Parameters
    ----------
    x : array_like, shape (n, d)
        Feature vectors. A 1-d array is treated as ``d = 1``.
    y : array_like, shape (n,)
        Observed outcomes.
    y_hat : array_like, shape (n,)
        Expert predictions.

    All values must be finite; missing data is rejected at construction,
    never imputed. Arrays are copied and frozen, so a dataset never changes
    after it is built. Which records are binary is decided once, here:
    ``binary_records`` holds read-only per-record flags, True where the
    outcome and the prediction are both 0 or 1, and :meth:`is_binary` reads
    whether all of them are.
    """

    x: np.ndarray
    y: np.ndarray
    y_hat: np.ndarray
    binary_records: np.ndarray = field(init=False)
    _all_binary: bool = field(init=False)

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array of shape (n, d)")
        y = np.array(self.y, dtype=np.float64)
        y_hat = np.array(self.y_hat, dtype=np.float64)
        n = x.shape[0]
        if y.shape != (n,) or y_hat.shape != (n,):
            raise ValueError("x, y and y_hat must agree on the number of records")
        if n < 2:
            raise ValueError("a dataset needs at least 2 records")
        if x.shape[1] < 1:
            raise ValueError("feature dimension must be at least 1")
        if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(y_hat).all()):
            raise ValueError("all values must be finite; missing data is not supported")
        binary = ((y == 0.0) | (y == 1.0)) & ((y_hat == 0.0) | (y_hat == 1.0))
        for name, arr in (("x", x), ("y", y), ("y_hat", y_hat), ("binary_records", binary)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_all_binary", bool(binary.all()))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.y_hat, other.y_hat)
        )

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d})"

    def is_binary(self) -> bool:
        """True when every outcome and prediction is exactly 0 or 1."""
        return self._all_binary


# ---------------------------------------------------------------------------
# Loss functions
# ---------------------------------------------------------------------------

_ZERO_ONE = "zero_one"
_SQUARED = "squared_error"
_WEIGHTED = "weighted_binary"


@dataclass(frozen=True)
class LossSpec:
    """Which dataset loss to use when comparing observed and resampled data.

    Construct via :meth:`zero_one`, :meth:`squared_error` or
    :meth:`weighted_binary`. The costs belong to ``weighted_binary`` alone:
    the other two variants take (1, 1) and reject any others, so a cost
    means the same thing in every computation. Zero-one is
    ``weighted_binary(1, 1)`` under its own name.
    """

    variant: str
    fp_cost: float = 1.0
    fn_cost: float = 1.0

    def __post_init__(self) -> None:
        if self.variant not in (_ZERO_ONE, _SQUARED, _WEIGHTED):
            raise ValueError(f"unknown loss variant: {self.variant!r}")
        if not (0.0 <= self.fp_cost < np.inf and 0.0 <= self.fn_cost < np.inf):
            raise ValueError("false-positive / false-negative costs must be finite and nonnegative")
        if self.variant != _WEIGHTED and (self.fp_cost, self.fn_cost) != (1.0, 1.0):
            raise ValueError(f"{self.variant} loss takes no costs; use weighted_binary")

    @classmethod
    def zero_one(cls) -> "LossSpec":
        """Fraction of records with ``y != y_hat``."""
        return cls(_ZERO_ONE)

    @classmethod
    def squared_error(cls) -> "LossSpec":
        """Mean of ``(y - y_hat)**2``."""
        return cls(_SQUARED)

    @classmethod
    def weighted_binary(cls, fp_cost: float, fn_cost: float) -> "LossSpec":
        """(fp_cost * #false-positives + fn_cost * #false-negatives) / n."""
        return cls(_WEIGHTED, fp_cost=fp_cost, fn_cost=fn_cost)

    @property
    def requires_binary(self) -> bool:
        return self.variant in (_ZERO_ONE, _WEIGHTED)

    def check_compatible(self, d: Dataset) -> None:
        if self.requires_binary and not d.is_binary():
            raise IncompatibleLoss(
                f"{self.variant} loss requires y and y_hat in {{0, 1}} for every record"
            )

    def describe(self) -> str:
        if self.variant == _WEIGHTED:
            return f"weighted_binary(fp={self.fp_cost:g}, fn={self.fn_cost:g})"
        return self.variant


def dataset_loss(d: Dataset, loss: LossSpec) -> float:
    """The loss of the expert predictions on ``d``, bit-for-bit invariant under record order.

    A binary loss is (fp_cost * #false-positives + fn_cost * #false-negatives)
    / n from integer counts, zero-one at costs (1, 1), where the counts
    add exactly and the result is the mistake count over n. Squared error
    is the mean of the squared differences, summed in sorted order.

    Raises
    ------
    IncompatibleLoss
        If a binary loss variant is applied to non-binary data.
    """
    loss.check_compatible(d)
    y, y_hat = d.y, d.y_hat
    if loss.requires_binary:
        # Python ints, so a cost times a count is a Python float, which
        # overflows to inf without a warning
        n_fp, n_fn = int(np.count_nonzero(y_hat > y)), int(np.count_nonzero(y > y_hat))
        total = loss.fp_cost * n_fp + loss.fn_cost * n_fn
        if math.isinf(total):
            # finite costs whose sum overflows: their mean is at most the
            # larger cost, so it is finite, and exact arithmetic reaches it;
            # imported here, since importing fractions (and decimal) takes
            # about 5 ms and no other input needs it
            from fractions import Fraction

            return float((Fraction(loss.fp_cost) * n_fp + Fraction(loss.fn_cost) * n_fn) / d.n)
        return total / d.n
    diff = y - y_hat
    return float(np.sort(diff * diff).sum() / d.n)


# ---------------------------------------------------------------------------
# Distance metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistanceMetric:
    """Distance over feature vectors used to decide which records may be paired.

    Without ``weights`` it is the plain l2 distance (:meth:`euclidean`); with
    them (:meth:`weighted_euclidean`) each squared coordinate difference is
    scaled by a finite nonnegative weight, and zero weights ablate features
    entirely.
    """

    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.weights is not None:
            weights = tuple(float(w) for w in self.weights)
            if not weights:
                raise ValueError("weighted_euclidean needs a weight vector")
            if not all(0.0 <= w < np.inf for w in weights):
                raise ValueError("metric weights must be finite and nonnegative")
            object.__setattr__(self, "weights", weights)

    @classmethod
    def euclidean(cls) -> "DistanceMetric":
        return cls()

    @classmethod
    def weighted_euclidean(cls, weights: Sequence[float]) -> "DistanceMetric":
        return cls(weights)

    def _scaled(self, x: np.ndarray) -> np.ndarray:
        """Rows of ``x`` scaled so that this metric is plain euclidean on them.

        Raises ``ValueError`` if the weights and the feature dimension differ.
        """
        # sqrt(sum(w * dx**2)) == plain euclidean on coordinates scaled by sqrt(w)
        x = np.asarray(x, dtype=np.float64)
        if self.weights is None:
            return x
        if len(self.weights) != x.shape[-1]:
            raise ValueError(
                f"metric has {len(self.weights)} weights but data has {x.shape[-1]} features"
            )
        return x * np.sqrt(np.asarray(self.weights))

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        rows = self._scaled(np.stack(np.atleast_1d(a, b)))
        return float(row_distances(rows, 0, 1))

    def describe(self) -> str:
        if self.weights is None:
            return "euclidean"
        return "weighted_euclidean(" + ",".join(f"{w:g}" for w in self.weights) + ")"


def row_distances(x: np.ndarray, ii, jj) -> np.ndarray:
    """Euclidean distances between rows ``x[ii]`` and ``x[jj]``.

    Squared differences are summed one column at a time, left to right. That
    is the order scipy's ``pdist`` uses, so the two agree bit for bit, while
    numpy's pairwise ``sum(axis=1)`` differs in the last bit from 8 columns
    on. Every distance the package reports comes from here, so
    :meth:`DistanceMetric.distance` and the matcher return the same float
    for the same two records.
    """
    total = np.zeros(np.shape(ii))
    for col in x.T:
        diff = col[ii] - col[jj]
        total += diff * diff
    return np.sqrt(total)
