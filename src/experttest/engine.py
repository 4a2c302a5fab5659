"""The hypothesis test: pair-swap resampling, the tau statistic, and rejection.

The test statistic is the fraction of resampled datasets whose loss falls
below the observed loss, with exact ties broken by independent fair coins:
the first draws of ``tie_break_stream(seed)``, one per tie. A test without
ties builds no tie-break stream, since zero coins add nothing to tau. A
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
Squared errors too large for float64 raise :class:`LossOverflow`: their
deltas would be infinite or NaN, and a NaN counts on neither side.

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

The rows of the last mask drawn are kept, packed into L / 8 bytes a row
(2.5 MB at K = 10 000, L = 2000). A later test at the same seed and K and
an L no larger reads the first L columns of every kept row instead of
drawing, since a smaller L reads a prefix of every stream, and draws any
rows not yet drawn at the kept L, which extends what is kept; so a sweep
over L at one seed, largest L first, draws each row of the mask at most
once. Any other seed, K or larger L draws again and replaces what is
kept. The kept value is one tuple of read-only arrays, assigned when a
draw ends or is closed, so a draw that is interleaved with another leaves
the rows of the one that ended last, never part of a row or a mix.

A test that only needs its verdict (``verdict_only``, which
``run_power_curve``, ``run_power_vs_L`` and ``run_type1_curve`` pass) stops
comparing after the first block at which the resamples so far below the
observed loss already exceed alpha * K
(compared as ``less / K > alpha``, the float rule of ``rejected``); the tie
coins can only add to that count, so such a test cannot reject. Its result
has ``rejected`` false and no ``tau``, and the rows it drew are kept. A test
that can still reject compares all K rows, so every verdict is the full
test's.
"""

import math
from contextlib import closing
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
    "LossOverflow",
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


class LossOverflow(ExpertTestError, ValueError):
    """The squared errors of the data overflow float64, so no loss comparison is exact."""


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

# (master_seed, K, L, rows, groups) of the last mask drawn: its first rows
# rows, drawn at L, as (row count, bits packed row after row) groups in row
# order; a sweep over L at one seed reads it again and draws on from its end.
# It is replaced whole, never changed
_kept_mask: tuple[int, int, int, int, tuple[tuple[int, np.ndarray], ...]] | None = None


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

    ``tau`` is a multiple of 1/K. ``effective_p`` is ``tau + 1/(K + 1)``,
    the tightest level at which the run rejects. Both are None when a
    ``verdict_only`` test stopped once it could no longer reject; such a
    result has ``rejected`` false.
    ``binary_swap_counts`` is filled whenever every matched record is binary,
    regardless of the loss used.
    """

    __test__ = False  # not a pytest class, despite the name

    tau: float | None
    effective_p: float | None
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
    loss unchanged (neutral). Whether every matched record is binary is read
    from the dataset's stored flags (:attr:`Dataset.binary_records`), without
    a scan when the whole dataset is binary.

    Raises
    ------
    NonBinaryData
        If any matched record has a non-binary outcome or prediction.
    """
    if not _matched_binary(d, m):
        raise NonBinaryData("matched records must have y and y_hat in {0, 1}")
    pi, pj = m.pairs.T
    y1, y2, p1, p2 = d.y[pi], d.y[pj], d.y_hat[pi], d.y_hat[pj]
    differ = y1 != y2
    n_inc = int(np.count_nonzero(differ & (p1 == y1) & (p2 == y2)))
    n_dec = int(np.count_nonzero(differ & (p1 == y2) & (p2 == y1)))
    return SwapCounts(n_inc, n_dec, len(m) - n_inc - n_dec)


def _matched_binary(d: Dataset, m: Matching) -> bool:
    """Whether every record of the matching has a binary outcome and prediction."""
    return d.is_binary() or bool(d.binary_records[m.pairs].all())


def _swap_mask_blocks(master_seed: int, K: int, L: int) -> Iterator[np.ndarray]:
    """The K x L Bernoulli(1/2) swap decisions, as bool blocks of at most ``_BLOCK_ROWS`` rows.

    Row k of the concatenated blocks is ``swap_stream(master_seed, k).random(L) < 0.5``.
    Rather than build K seed sequences, the K seed states are derived at once
    and one seeder hands them to the K ``PCG64``s in order; the streams are
    built and drawn by C-level iterators and each block is read with one
    ``fromiter``. ``Generator.random`` returns ``(raw >> 11) * 2**-53``, so a
    draw is below 1/2 exactly when its raw 64-bit output is below 2**63.

    The rows kept at this seed and K, drawn at an L no smaller, are read
    first; the rest are drawn at the kept L (or at L when nothing is kept
    for this call), each group of ``_group_rows`` rows into one bool array
    whose blocks are handed out as views. When the generator ends or is
    closed, every row it drew is packed and kept with the rows it read; a
    generator that only read leaves the kept mask as it was. The caller
    only reads the blocks.
    """
    global _kept_mask
    if K >= _SWAP_STREAM_BASE:
        raise ValueError(f"K={K} exceeds the {_SWAP_STREAM_BASE - 1} swap streams a seed provides")
    kept = _kept_mask
    if kept is None or kept[:2] != (master_seed, K) or L > kept[2]:
        kept = (master_seed, K, L, 0, ())
    drawn_L, rows, groups = kept[2:]
    for group_len, bits in groups:
        group = np.unpackbits(bits, count=group_len * drawn_L).view(bool)
        group = group.reshape(group_len, drawn_L)[:, :L]
        for first in range(0, group_len, _BLOCK_ROWS):
            yield group[first : first + _BLOCK_ROWS]
    if rows == K:
        return
    seeder = _StateRows(_swap_seed_words(master_seed, K)[rows:])
    raws = map(methodcaller("random_raw", drawn_L), map(np.random.PCG64, repeat(seeder, K - rows)))
    row = np.dtype((np.uint64, (drawn_L,)))
    group_rows = _group_rows(drawn_L)
    drawn = []
    filled = 0  # rows of the group being drawn that are drawn but not packed
    try:
        for start in range(rows, K, group_rows):
            group = np.empty((min(group_rows, K - start), drawn_L), dtype=bool)
            for first in range(0, len(group), _BLOCK_ROWS):
                block = group[first : first + _BLOCK_ROWS]
                np.less(np.fromiter(raws, dtype=row, count=len(block)), _HALF_RAW, block)
                filled = first + len(block)
                yield block[:, :L]
            drawn.append(_packed(group))
            filled = 0
    finally:
        if filled:
            drawn.append(_packed(group[:filled]))
        if drawn:
            rows += sum(group_len for group_len, _ in drawn)
            _kept_mask = (master_seed, K, drawn_L, rows, groups + tuple(drawn))


def _packed(group: np.ndarray) -> tuple[int, np.ndarray]:
    """A group's row count and its bools packed row after row into read-only bits."""
    bits = np.packbits(group)
    bits.flags.writeable = False
    return len(group), bits


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


def expert_test_with_matching(
    d: Dataset, matching: Matching, cfg: TestConfig, *, verdict_only: bool = False
) -> TestResult:
    """Like :func:`expert_test` but reusing a precomputed matching.

    ``matching`` must be the greedy matching of ``d`` at ``cfg.L`` (or a
    prefix of a longer greedy matching, which is the same thing); results are
    bit-identical to :func:`expert_test`.

    With ``verdict_only`` set, the comparison stops after the first block
    at which ``less / K > alpha``, where ``less`` counts the resamples so far
    whose loss is below the observed loss: the tie coins only add to it, so
    tau is already above alpha. Such a result has ``rejected`` false and
    ``tau`` and ``effective_p`` None, and the tie-break stream is not drawn;
    ``rejected`` is always the full test's. The rows drawn before the stop
    are kept, and a later test at the same seed and K and an L no larger
    reads them and draws on from there.

    Raises
    ------
    LossOverflow
        If the loss is squared error and the observed loss or the sum of
        the absolute per-pair swap deltas is not finite in float64.
    """
    if len(matching) != cfg.L:
        raise ValueError(f"matching has {len(matching)} pairs, config wants L={cfg.L}")
    with np.errstate(over="ignore"):
        # squared errors that overflow raise LossOverflow below instead
        observed = dataset_loss(d, cfg.loss)
    counts = classify_swaps(d, matching) if _matched_binary(d, matching) else None
    delta = _swap_deltas(d, matching, cfg.loss)
    if cfg.loss.requires_binary:
        # a pair's two per-record losses add to the same float in either
        # order, so each delta is exactly 0 or +-(fp_cost + fn_cost), and its
        # sign scores every resample as the unit-weighted sum does; inf - inf
        # (NaN), from costs near the float maximum, comes only from a neutral
        # pair, and neither comparison counts it
        delta = (delta > 0).astype(np.int64) - (delta < 0)
    else:
        _check_finite(observed, delta)

    # when every row's sum is exact in any order, a matrix product gives the
    # same sums as the elementwise product and row sum, which otherwise keep
    # each row's one float reduction order whatever the block size
    exact = _sums_exact(delta)
    whole = delta.astype(np.float64)
    less = ties = 0
    tau = None
    # closed on a stop, so the rows drawn so far are kept before returning
    with closing(_swap_mask_blocks(cfg.master_seed, cfg.K, cfg.L)) as blocks:
        for mask in blocks:
            diff = mask @ whole if exact else (mask * delta).sum(axis=1)
            less += int(np.count_nonzero(diff < 0))
            ties += int(np.count_nonzero(diff == 0))
            # int / int is correctly rounded, so monotone in less: this is
            # TestResult.rejected's rule failing for every count of coins
            if verdict_only and less / cfg.K > cfg.alpha:
                break
        else:
            # no coins to draw, no stream to build
            heads = int((tie_break_stream(cfg.master_seed).random(ties) < 0.5).sum()) if ties else 0
            tau = (less + heads) / cfg.K
    return TestResult(
        tau=tau,
        effective_p=None if tau is None else tau + 1.0 / (cfg.K + 1),
        rejected=tau is not None and tau <= cfg.alpha,
        L=cfg.L,
        K=cfg.K,
        mismatch_count=matching.mismatch_count,
        observed_loss=observed,
        binary_swap_counts=counts,
    )


def _check_finite(observed: float, delta: np.ndarray) -> None:
    """Raise :class:`LossOverflow` unless the observed loss and ``sum(|delta|)`` are finite.

    A NaN delta (inf - inf) counts on neither side of the comparison, and an
    infinite delta or an overflowing sum of finite ones can count on the
    wrong side, so a test on such data would report a verdict it never
    computed.
    """
    with np.errstate(over="ignore"):
        spread = float(np.abs(delta).sum())
    if not (math.isfinite(observed) and math.isfinite(spread)):
        raise LossOverflow("squared errors overflow float64; rescale y and y_hat")


def _sums_exact(delta: np.ndarray) -> bool:
    """Whether every sum of a subset of ``delta`` is exact in float64, in any order.

    That holds when every entry is an integer and their absolute values sum
    below 2**53, since every partial sum is then an integer no larger. It
    covers the signs that score the binary losses and squared error on
    integer-valued outcomes and predictions.
    """
    return bool((delta == np.trunc(delta)).all()) and float(np.abs(delta).sum()) < 2.0**53


def _swap_deltas(d: Dataset, m: Matching, loss: LossSpec) -> np.ndarray:
    """Per-pair change in summed per-record loss when the pair's predictions are exchanged.

    Per-record losses near the float maximum (costs such as 1e308) make a
    pair's summed losses inf and its delta inf - inf. The binary losses take
    each delta's sign, and a NaN counts on neither side of the comparison,
    so those operations do not warn.
    """
    pi, pj = m.pairs.T
    with np.errstate(over="ignore", invalid="ignore"):
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
