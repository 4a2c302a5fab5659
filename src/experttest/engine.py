"""The hypothesis test: pair-swap resampling, the tau statistic, and rejection.

The test statistic is the fraction of resampled datasets whose loss falls
below the observed loss, with exact ties broken by independent fair coins. A
small tau means the expert's observed loss is unusually good relative to the
swap distribution, which is evidence that predictions carry information the
features do not.

Loss comparisons are computed from per-pair swap deltas rather than by
rebuilding each resampled dataset. For binary losses the delta of every
executed swap is plus or minus one (fp_cost + fn_cost) unit, so comparisons
and ties reduce to exact integer counts, the same as scoring each resampled
dataset. For squared error the per-pair deltas are summed in floating
point; that sum can round differently from rescoring each resampled dataset
in full, so a resample whose loss change is within rounding of zero can be
counted on the other side of the observed loss.

Resample k's swaps are the first L draws of ``swap_stream(seed, k)``, which is
``stream(seed, 2**32 + k)``. The engine reproduces those draws without
building K seed sequences: it hashes all K seed states at once, seeds each
``PCG64`` from its row, and reads the streams a block of at most
``_BLOCK_ROWS`` resamples at a time (:func:`_swap_mask_blocks`), so no
Python code runs per resample. Each block is compared and reduced to two
counts before the next is drawn, which bounds the working memory to
``_BLOCK_ROWS`` x L whatever K is. Row k depends only on (seed, k), so the K
resamples can still be evaluated in any order (or concurrently) without
changing the result. A property test checks the concatenated blocks against
the stacked streams.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import methodcaller
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import (
    _U64,
    Dataset,
    DistanceMetric,
    ExpertTestError,
    LossSpec,
    dataset_loss,
    stream,
)
from .matching import Matching, greedy_match

__all__ = [
    "NonBinaryData",
    "TestConfig",
    "TestResult",
    "SwapCounts",
    "classify_swaps",
    "expert_test",
    "expert_test_with_matching",
    "exact_binary_p",
    "swap_stream",
    "tie_break_stream",
]


class NonBinaryData(ExpertTestError):
    """Swap classification is only defined for binary outcomes and predictions."""


# Stream ids reserved on the master seed: one stream per resample index plus a
# dedicated tie-break stream, so resamples are reproducible under any
# execution order.
_TIE_STREAM_ID = 1
_SWAP_STREAM_BASE = 1 << 32

# numpy's SeedSequence hash constants, which _swap_seed_words reproduces to
# seed every swap stream without constructing its SeedSequence
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_U32 = (1 << 32) - 1
_HALF_RAW = np.uint64(1 << 63)
# resamples drawn and compared per block; 32 to 256 measured within noise
_BLOCK_ROWS = 64


def swap_stream(master_seed: int, resample_index: int) -> np.random.Generator:
    """Stream that decides which pairs the given resample swaps."""
    return stream(master_seed, _SWAP_STREAM_BASE + resample_index)


def tie_break_stream(master_seed: int) -> np.random.Generator:
    """Stream consumed by the tau statistic's randomized tie-breaking."""
    return stream(master_seed, _TIE_STREAM_ID)


@dataclass(frozen=True)
class TestConfig:
    """Parameters of one test run."""

    __test__ = False  # not a pytest class, despite the name

    L: int
    K: int
    alpha: float
    loss: LossSpec
    metric: DistanceMetric
    master_seed: int

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError("L must be at least 1")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")


@dataclass(frozen=True)
class SwapCounts:
    """How many pairs' swaps would increase, decrease, or not change the loss."""

    increase: int
    decrease: int
    neutral: int


@dataclass(frozen=True)
class TestResult:
    """Outcome of one test run.

    ``tau`` is always a multiple of 1/K. ``effective_p`` is
    ``tau + 1/(K + 1)``, the tightest level at which the run rejects.
    ``binary_swap_counts`` is filled whenever every matched record is binary,
    regardless of the loss used.
    """

    __test__ = False  # not a pytest class, despite the name

    tau: float
    effective_p: float
    rejected: bool
    L: int
    K: int
    mismatch_count: int
    observed_loss: float
    binary_swap_counts: SwapCounts | None


def classify_swaps(d: Dataset, m: Matching) -> SwapCounts:
    """Classify each pair by the effect of exchanging its two predictions.

    For binary data a swap changes the mistake count only when the pair's
    outcomes differ and its predictions differ: if both predictions are
    currently correct the swap creates a false positive and a false negative
    (increase); if both are currently wrong it removes one of each
    (decrease); every other configuration leaves any mistake-count-monotone
    loss unchanged (neutral).

    Raises
    ------
    NonBinaryData
        If any matched record has a non-binary outcome or prediction.
    """
    inc, dec = _swap_class_masks(d, m)
    n_inc = int(inc.sum())
    n_dec = int(dec.sum())
    return SwapCounts(n_inc, n_dec, len(m) - n_inc - n_dec)


def _swap_class_masks(d: Dataset, m: Matching) -> tuple[np.ndarray, np.ndarray]:
    pi, pj = m.pairs.T
    y1, y2 = d.y[pi], d.y[pj]
    p1, p2 = d.y_hat[pi], d.y_hat[pj]
    for arr in (y1, y2, p1, p2):
        if not np.isin(arr, (0.0, 1.0)).all():
            raise NonBinaryData("matched records must have y and y_hat in {0, 1}")
    differ = y1 != y2
    inc = differ & (p1 == y1) & (p2 == y2)
    dec = differ & (p1 == y2) & (p2 == y1)
    return inc, dec


def _swap_mask_blocks(master_seed: int, K: int, L: int) -> Iterator[np.ndarray]:
    """The K x L Bernoulli(1/2) swap decisions, as bool blocks of at most ``_BLOCK_ROWS`` rows.

    Row k of the concatenated blocks is ``swap_stream(master_seed, k).random(L) < 0.5``.
    Rather than build K seed sequences, the K seed states are derived at once
    and each ``PCG64`` seeds itself from its row; the streams are built and
    drawn by C-level iterators and each block is read with one ``fromiter``.
    ``Generator.random`` returns ``(raw >> 11) * 2**-53``, so a draw is below
    1/2 exactly when its raw 64-bit output is below 2**63.
    """
    if K >= _SWAP_STREAM_BASE:
        raise ValueError(f"K={K} exceeds the {_SWAP_STREAM_BASE - 1} swap streams a seed provides")
    streams = map(np.random.PCG64, map(_SeedWords, _swap_seed_words(master_seed, K)))
    raws = map(methodcaller("random_raw", L), streams)
    row = np.dtype((np.uint64, (L,)))
    return (
        np.fromiter(raws, dtype=row, count=min(_BLOCK_ROWS, K - start)) < _HALF_RAW
        for start in range(0, K, _BLOCK_ROWS)
    )


class _SeedWords(ISeedSequence):
    """Seed sequence whose state is precomputed: ``PCG64`` asks for 4 uint64 words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@lru_cache(maxsize=1)
def _swap_seed_words(master_seed: int, K: int) -> np.ndarray:
    """Row k is ``SeedSequence(master_seed & U64, spawn_key=(2**32 + k,)).generate_state(4, uint64)``.

    numpy's SeedSequence hash: the entropy words are the seed's two 32-bit
    halves padded to the pool size, then the spawn key's words ``k`` and
    ``1``. The hash constants advance independently of the data, so every
    stream shares them. The seed's words are the same for every k and are
    hashed in Python ints; from the word ``k`` on, the hash is vectorised
    over k.

    The last result is kept, because a sweep over L tests one (seed, K)
    several times in a row; it is read-only, since every caller shares it.
    """
    hashmix = _hash_steps(_INIT_A, _MULT_A)
    seed = master_seed & _U64
    pool = [hashmix(w) for w in (seed & _U32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # one-element arrays wrap on overflow like the (K,) ones, with no warning
    pool = [np.array([w], dtype=np.uint32) for w in pool]
    for word in (np.arange(K, dtype=np.uint32), np.array([1], dtype=np.uint32)):
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))

    generate = _hash_steps(_INIT_B, _MULT_B)
    words = [generate(pool[i % 4]).astype(np.uint64) for i in range(8)]
    # little-endian pairs of 32-bit words make the four 64-bit state words
    state = np.stack([words[2 * j] | words[2 * j + 1] << np.uint64(32) for j in range(4)], axis=1)
    state.flags.writeable = False
    return state


def _hash_steps(init: int, mult: int):
    """SeedSequence's hash of a 32-bit word, given as an int or as a uint32 array.

    Each call advances the hash constant once.
    """
    const = init

    def hash_words(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _U32
        value = value * const & _U32
        return value ^ (value >> 16)

    return hash_words


def _mix(x, y):
    """SeedSequence's pool mix of two ints or of two uint32 arrays."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _U32
    return r ^ (r >> 16)


def expert_test(d: Dataset, cfg: TestConfig) -> TestResult:
    """Run the full test: match, resample K times, compare losses, reject if tau <= alpha."""
    matching = greedy_match(d, cfg.L, cfg.metric)
    return expert_test_with_matching(d, matching, cfg)


def expert_test_with_matching(d: Dataset, matching: Matching, cfg: TestConfig) -> TestResult:
    """Like :func:`expert_test` but reusing a precomputed matching.

    ``matching`` must be the greedy matching of ``d`` at ``cfg.L`` (or a
    prefix of a longer greedy matching, which is the same thing); results are
    bit-identical to :func:`expert_test`.
    """
    if len(matching) != cfg.L:
        raise ValueError(f"matching has {len(matching)} pairs, config wants L={cfg.L}")
    observed = dataset_loss(d, cfg.loss)

    try:
        inc, dec = _swap_class_masks(d, matching)
    except NonBinaryData:
        counts = None
    else:
        n_inc, n_dec = int(inc.sum()), int(dec.sum())
        counts = SwapCounts(n_inc, n_dec, cfg.L - n_inc - n_dec)
    # a binary loss passed dataset_loss's compatibility check, so inc and dec exist
    if not cfg.loss.requires_binary:
        delta = _swap_deltas(d, matching, cfg.loss)
    elif cfg.loss.fp_cost + cfg.loss.fn_cost == 0.0:
        delta = np.zeros(cfg.L, dtype=np.int64)
    else:
        # every executed increase swap adds one false positive and one false
        # negative; every executed decrease swap removes one of each, so the
        # loss difference is (fp_cost + fn_cost) times the sum of these units
        # and comparisons are exact integer arithmetic
        delta = inc.astype(np.int64) - dec

    less = ties = 0
    for mask in _swap_mask_blocks(cfg.master_seed, cfg.K, cfg.L):
        # an elementwise product and a row sum, not mask @ delta: each row
        # keeps the one float reduction order whatever the block size
        diff = (mask * delta).sum(axis=1)
        less += int(np.count_nonzero(diff < 0))
        ties += int(np.count_nonzero(diff == 0))

    coins = tie_break_stream(cfg.master_seed).random(ties) < 0.5
    tau = (less + int(coins.sum())) / cfg.K
    return TestResult(
        tau=tau,
        effective_p=tau + 1.0 / (cfg.K + 1),
        rejected=tau <= cfg.alpha,
        L=cfg.L,
        K=cfg.K,
        mismatch_count=matching.mismatch_count,
        observed_loss=observed,
        binary_swap_counts=counts,
    )


def _swap_deltas(d: Dataset, m: Matching, loss: LossSpec) -> np.ndarray:
    """Per-pair change in summed per-record loss when the pair's predictions are exchanged."""
    pi, pj = m.pairs.T
    unswapped = loss.per_record(d.y[pi], d.y_hat[pi]) + loss.per_record(d.y[pj], d.y_hat[pj])
    swapped = loss.per_record(d.y[pi], d.y_hat[pj]) + loss.per_record(d.y[pj], d.y_hat[pi])
    return swapped - unswapped


def exact_binary_p(increase: int, decrease: int) -> float:
    """Expected tau for binary data with the given count of loss-changing pairs.

    Under the swap distribution, each of the ``increase`` pairs independently
    worsens the resample with probability 1/2 and each of the ``decrease``
    pairs improves it, so the resampled-vs-observed comparison is decided by
    X ~ Binomial(increase, 1/2) against Y ~ Binomial(decrease, 1/2):
    P(resampled < observed) + P(tie)/2 = P(X < Y) + P(X = Y)/2.

    Since ``decrease - Y`` is also Binomial(decrease, 1/2), X < Y exactly when
    Z = X + (decrease - Y) ~ Binomial(increase + decrease, 1/2) is below
    ``decrease``, and X = Y when Z equals it, so the result is
    ``[2 * sum(C(n, s) for s < decrease) + C(n, decrease)] / 2**(n + 1)`` with
    ``n = increase + decrease``, computed in exact integer arithmetic.
    """
    if increase < 0 or decrease < 0:
        raise ValueError("swap counts must be nonnegative")
    n = increase + decrease
    # doubled numerator so the half-weight of ties stays integral
    doubled = 0
    c = 1  # C(n, s), updated in step with s
    for s in range(decrease):
        doubled += 2 * c
        c = c * (n - s) // (s + 1)
    return (doubled + c) / 2 ** (n + 1)
