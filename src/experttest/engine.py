"""The hypothesis test: pair-swap resampling, the tau statistic, and rejection.

The test statistic is the fraction of resampled datasets whose loss falls
below the observed loss, with exact ties broken by independent fair coins. A
small tau means the expert's observed loss is unusually good relative to the
swap distribution, which is evidence that predictions carry information the
features do not.

Loss comparisons are computed from per-pair swap deltas rather than by
rebuilding each resampled dataset, one path for every loss. For binary
losses every delta is exactly 0 or plus or minus (fp_cost + fn_cost), so the
engine takes its sign instead: a resample's sum of signs is an exact integer
with the sign of its loss change, and comparisons and ties are the same as
scoring each resampled dataset. When every delta is an integer and their
absolute values sum below 2**53 (the binary signs, or squared error on
integer-valued outcomes and predictions), every partial sum of a resample's
deltas is exact in floating point, so the comparison is one matrix product
per block. Any other squared error deltas are summed in floating point in
one fixed order; that sum can round differently from rescoring each
resampled dataset in full, so a resample whose loss change is within
rounding of zero can be counted on the other side of the observed loss.

Resample k's swaps are the first L draws of ``swap_stream(seed, k)``, which is
``stream(seed, 2**32 + k)``. The engine reproduces those draws without
building K seed sequences: it hashes all K seed states at once, and one
seeder hands each ``PCG64`` its row in turn, so the only Python code that
runs per resample is that seeder's ``generate_state`` call. numpy's
C-level iterators build and draw the streams a block of at most
``_BLOCK_ROWS`` resamples at a time (:func:`_swap_mask_blocks`). Each block is
compared and reduced to two counts before the next is drawn, and the drawn
decisions are packed into bits about ``_PACK_BYTES`` of them at a time, which
bounds the working memory whatever K is. Row k depends
only on (seed, k), so the K resamples can still be evaluated in any order
(or concurrently) without changing the result. A property test checks the
concatenated blocks against the stacked streams.

The last mask drawn to its end is kept, packed into K x L / 8 bytes (2.5 MB
at K = 10 000, L = 2000). A later test at the same seed and K and an L no
larger reads the first L columns of every kept row instead of drawing, since
a smaller L reads a prefix of every stream; so a sweep over L at one seed,
largest L first, draws the mask once. Any other seed, K or larger L draws
again and replaces what is kept. The kept value is one tuple of read-only
arrays, assigned only when a draw has reached its last block, so a draw
that is abandoned or interleaved with another never leaves part of a mask.
"""

from dataclasses import dataclass
from itertools import repeat
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
# bools drawn into one array and packed with one call, in whole blocks and
# at least one: a pack call per 64-row block cost about 1.5 us at L = 25 to
# 150, one call on 1000 rows 4 to 7 us, and a larger array grows the peak
# memory of a test at large L
_PACK_BYTES = 1 << 16

# (master_seed, K, L, the mask's groups of _group_rows(L) rows, each packed
# row after row into bits) of the last mask drawn to its end, which a sweep
# over L at one seed reads again; it is replaced whole, never changed
_kept_mask: tuple[int, int, int, tuple[np.ndarray, ...]] | None = None


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
    loss unchanged (neutral). The matched values are checked for being
    binary in one scan.

    Raises
    ------
    NonBinaryData
        If any matched record has a non-binary outcome or prediction.
    """
    pi, pj = m.pairs.T
    y1, y2, p1, p2 = matched = np.stack((d.y[pi], d.y[pj], d.y_hat[pi], d.y_hat[pj]))
    if not np.isin(matched, (0.0, 1.0)).all():
        raise NonBinaryData("matched records must have y and y_hat in {0, 1}")
    differ = y1 != y2
    n_inc = int(np.count_nonzero(differ & (p1 == y1) & (p2 == y2)))
    n_dec = int(np.count_nonzero(differ & (p1 == y2) & (p2 == y1)))
    return SwapCounts(n_inc, n_dec, len(m) - n_inc - n_dec)


def _swap_mask_blocks(master_seed: int, K: int, L: int) -> Iterator[np.ndarray]:
    """The K x L Bernoulli(1/2) swap decisions, as bool blocks of at most ``_BLOCK_ROWS`` rows.

    Row k of the concatenated blocks is ``swap_stream(master_seed, k).random(L) < 0.5``.
    Rather than build K seed sequences, the K seed states are derived at once
    and one seeder hands them to the K ``PCG64``s in order; the streams are
    built and drawn by C-level iterators and each block is read with one
    ``fromiter``. ``Generator.random`` returns ``(raw >> 11) * 2**-53``, so a
    draw is below 1/2 exactly when its raw 64-bit output is below 2**63.

    A call with the seed and K of the kept mask and an L no larger than its
    own unpacks the kept mask instead of drawing.
    """
    if K >= _SWAP_STREAM_BASE:
        raise ValueError(f"K={K} exceeds the {_SWAP_STREAM_BASE - 1} swap streams a seed provides")
    kept = _kept_mask
    if kept is not None and kept[:2] == (master_seed, K) and L <= kept[2]:
        return _unpacked_blocks(kept[3], K, kept[2], L)
    return _drawn_blocks(master_seed, K, L)


def _drawn_blocks(master_seed: int, K: int, L: int) -> Iterator[np.ndarray]:
    """Draw the mask block by block, and keep it packed once its last block is drawn.

    Each group of ``_group_rows(L)`` rows is drawn into one bool array,
    whose blocks are handed out as views, and packed with one call after its
    last block is compared; the caller only reads the blocks.
    """
    global _kept_mask
    seeder = _StateRows(_swap_seed_words(master_seed, K))
    raws = map(methodcaller("random_raw", L), map(np.random.PCG64, repeat(seeder, K)))
    row = np.dtype((np.uint64, (L,)))
    packed = []
    group_rows = _group_rows(L)
    for start in range(0, K, group_rows):
        group = np.empty((min(group_rows, K - start), L), dtype=bool)
        for first in range(0, len(group), _BLOCK_ROWS):
            block = group[first : first + _BLOCK_ROWS]
            np.less(np.fromiter(raws, dtype=row, count=len(block)), _HALF_RAW, block)
            yield block
        bits = np.packbits(group)
        bits.flags.writeable = False
        packed.append(bits)
    _kept_mask = (master_seed, K, L, tuple(packed))


def _unpacked_blocks(
    packed: tuple[np.ndarray, ...], K: int, drawn_L: int, L: int
) -> Iterator[np.ndarray]:
    """The first L columns of a kept mask drawn at ``drawn_L``, in the blocks a draw gives."""
    group_rows = _group_rows(drawn_L)
    for start, bits in zip(range(0, K, group_rows), packed):
        rows = min(group_rows, K - start)
        group = np.unpackbits(bits, count=rows * drawn_L).view(bool).reshape(rows, drawn_L)[:, :L]
        for first in range(0, rows, _BLOCK_ROWS):
            yield group[first : first + _BLOCK_ROWS]


def _group_rows(L: int) -> int:
    """Rows of a mask of L columns that are drawn into one array and packed together."""
    return _BLOCK_ROWS * max(1, _PACK_BYTES // (_BLOCK_ROWS * L))


class _StateRows(ISeedSequence):
    """Seed sequence that returns the rows of a precomputed state array in turn.

    ``PCG64`` calls ``generate_state(4, uint64)`` exactly once, when it is
    built, so the i-th ``PCG64`` built from one instance is seeded by row i.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self._next_row = iter(rows).__next__

    def generate_state(self, n_words, dtype=np.uint32):
        return self._next_row()


def _hash_constants(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constants of SeedSequence's first n word hashes.

    Hash step t XORs its word with constant t and multiplies it by constant
    t + 1, so the constants advance independently of the data.
    """
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _U32)
    return list(zip(consts[:-1], consts[1:]))


def _hash(value, xor, mult):
    """SeedSequence's hash of a 32-bit word, for ints or for uint32 arrays."""
    value = (value ^ xor) * mult & _U32
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's pool mix of two ints or of two uint32 arrays."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _U32
    return r ^ (r >> 16)


def _columns(steps: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The xor and the multiply constants of hash steps, as two (steps, 1) uint32 columns."""
    return tuple(np.array(c, dtype=np.uint32)[:, None] for c in zip(*steps))


# the pool hash runs 4 steps for the seed's entropy words and 12 for the pool
# mixes, which give SeedSequence(seed).pool, then 4 each for the spawn key's
# words k and 1, one per pool word
_POOL_STEPS = _hash_constants(_INIT_A, _MULT_A, 24)[16:]
_WORD_K_STEPS = _columns(_POOL_STEPS[:4])
_WORD_ONE_HASHES = np.array([_hash(1, *c) for c in _POOL_STEPS[4:]], dtype=np.uint32)[:, None]
# the state hash runs one step per output word
_STATE_STEPS = _columns(_hash_constants(_INIT_B, _MULT_B, 8))


def _swap_seed_words(master_seed: int, K: int) -> np.ndarray:
    """Row k is ``SeedSequence(master_seed & U64, spawn_key=(2**32 + k,)).generate_state(4, uint64)``.

    numpy's SeedSequence hash: the entropy words are the seed's two 32-bit
    halves padded to the pool size, then the spawn key's words ``k`` and
    ``1``. The seed's words are the same for every k, and hashing them
    gives the pool of ``SeedSequence(master_seed & U64)``, which pads a
    seed without a spawn key with the same zeros, so that pool is taken as
    it is. From the word ``k`` on, the hash runs as array passes over k:
    the four pool words' mixes with the hashes of words ``k`` and ``1`` as
    one (4, K) pass, and the eight output words as one (8, K) pass, each
    row with its own hash constants.
    """
    pool = np.random.SeedSequence(master_seed & _U64).pool[:, None]
    # uint32 arrays wrap on overflow silently, where numpy scalars would warn
    word_k = _hash(np.arange(K, dtype=np.uint32), *_WORD_K_STEPS)
    pool = _mix(_mix(pool, word_k), _WORD_ONE_HASHES)
    # output word i hashes pool word i % 4
    words = _hash(np.vstack([pool, pool]), *_STATE_STEPS)
    # as numpy does: little-endian pairs of 32-bit words make each 64-bit word
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


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
        counts = classify_swaps(d, matching)
    except NonBinaryData:
        counts = None
    delta = _swap_deltas(d, matching, cfg.loss)
    if cfg.loss.requires_binary:
        # a pair's two per-record losses add to the same float in either
        # order, so each delta is exactly 0 or +-(fp_cost + fn_cost), and its
        # sign scores every resample as the unit-weighted sum does; inf - inf
        # (NaN), from costs near the float maximum, comes only from a neutral
        # pair, and neither comparison counts it
        delta = (delta > 0).astype(np.int64) - (delta < 0)

    # when every row's sum is exact in any order, a matrix product gives the
    # same sums as the elementwise product and row sum, which otherwise keep
    # each row's one float reduction order whatever the block size
    exact = _sums_exact(delta)
    whole = delta.astype(np.float64)
    less = ties = 0
    for mask in _swap_mask_blocks(cfg.master_seed, cfg.K, cfg.L):
        diff = mask @ whole if exact else (mask * delta).sum(axis=1)
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


def _sums_exact(delta: np.ndarray) -> bool:
    """Whether every sum of a subset of ``delta`` is exact in float64, in any order.

    That holds when every entry is an integer and their absolute values sum
    below 2**53, since every partial sum is then an integer no larger. It
    covers the signs that score the binary losses and squared error on
    integer-valued outcomes and predictions.
    """
    return bool((delta == np.trunc(delta)).all()) and float(np.abs(delta).sum()) < 2.0**53


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
