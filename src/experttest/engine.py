"""The hypothesis test: pair-swap resampling, the tau statistic, and rejection.

The test statistic is the fraction of resampled datasets whose loss falls
below the observed loss, with exact ties broken by independent fair coins:
the first draws of ``tie_break_stream(seed)``, one per tie. A test without
ties builds no tie-break stream, since zero coins add nothing to tau. A
small tau means the expert's observed loss is unusually good relative to the
swap distribution, which is evidence that predictions carry information the
features do not.

Loss comparisons are computed from per-pair swap deltas rather than by
rebuilding each resampled dataset, and each resample is counted below, on or
above the observed loss as scoring its dataset in exact arithmetic would
count it, whatever the summation order, block size or BLAS build. Every test
takes squared error's delta D = 2 (y_i - y_j)(y_hat_i - y_hat_j) for each
pair: swapping a pair's predictions changes squared error by D, and on
binary records, where D is exactly 0 or plus or minus 2,
``weighted_binary(fp, fn)`` by (fp + fn) / 2 times D, zero-one (costs 1
and 1) by D. So a resample ranks against the observed loss as its sum of D
over its swapped pairs ranks against zero, save that a loss whose costs are
both zero (only ``weighted_binary`` takes other costs than 1 and 1) makes
every resample a tie (its deltas are zeroed). The signs of D also give
``binary_swap_counts``. Each block drawn is compared with one matrix
product of its rows with the deltas, summed in whatever order the BLAS sums
(a kept binary block is counted on its packed rows, below). A row whose product lies beyond a rigorous bound on its rounding
error (:func:`_rounding_margin`, about (L + 3) 2**-53 times the sum of the
absolute deltas) has the sign of its exact sum. A row within it takes the
exact sign of its sum of D over its swapped pairs, in integers built from
the floats the first time a test needs them (:func:`_exact_deltas`). So a
tie is an exact zero. On integer outcomes and predictions, binary ones among
them, whose absolute deltas sum below 2**53, every delta and every partial
sum of them is an exact float, so no row needs the margin; binary records
are integers, so only other records are checked for it. Squared errors
too large for float64 raise :class:`LossOverflow`: their deltas, or a row's
sum of them, would be infinite or NaN.

Resample k's swaps are the first L draws of ``swap_stream(seed, k)``, which is
``stream(seed, 2**32 + k)``. The engine reproduces those draws without
building K seed sequences or K generators: it hashes all K seed states at
once and turns each into the ``PCG64`` state one step before the seeded
one with array arithmetic. Each thread keeps one numpy ``bitgen_t`` per
row of a block, with ``PCG64``'s functions on a state of its own, and
copies a block's states into them with one assignment, so the only Python
that runs per resample is one ctypes call into numpy's exported
``random_standard_uniform_fill``, the fill behind ``Generator.random``,
which writes a row of the block's float array in place and whose first
double (the step) is dropped. The streams are drawn a block of at most
``_BLOCK_ROWS`` resamples at a time (:class:`_SwapMask`), and each block is
compared and reduced to two counts before the next is read, which bounds
the working memory whatever K is. A property test checks the concatenated
blocks against the stacked streams, and another each row's doubles
against its stream's.

A test reads the first ``cfg.L`` pairs of its matching and the first
``cfg.L`` columns of a mask drawn at the matching's length. Blocks are
packed into bits as they are drawn, each row padded with zero bits to
ceil(L / 8) whole bytes, and the mask of the last seed, K and matching
length is kept (2.5 MB at K = 10 000, L = 2000): a later test on those
three reads the blocks already drawn and draws the rest, so a sweep over L
on one matching, in any order, draws each row at most once. A binary test
counts a kept block on its packed rows, with no unpacking: half a row's
sum of D is the number of its bits, among the pairs whose D is nonzero,
that differ from the bits of the negative ones, less the number of
negative ones, an exact integer. Any other test unpacks each kept row to
its whole bytes, as a drawn block comes, and the deltas past L are zero. A
block depends only on (seed, K, L, its index), so the result does not
depend on which test drew it, or in what order.

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

import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from itertools import compress
from typing import Iterator

import numpy as np

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


class _UnknownStateLayout(ExpertTestError, RuntimeError):
    """numpy's ``PCG64`` or its uniform fill is not laid out as the swap draw copies and calls them."""


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
# resamples drawn, packed and compared per block; 32 to 256 measured within noise
_BLOCK_ROWS = 64


def swap_stream(master_seed: int, resample_index: int) -> np.random.Generator:
    """Stream that decides which pairs the given resample swaps."""
    return stream(master_seed, _SWAP_STREAM_BASE + resample_index)


def tie_break_stream(master_seed: int) -> np.random.Generator:
    """Stream consumed by the tau statistic's randomized tie-breaking."""
    return stream(master_seed, _TIE_STREAM_ID)


@dataclass(frozen=True)
class TestConfig:
    """Parameters of one test run, each checked here; the matching's metric goes beside the data."""

    __test__ = False  # not a pytest class, despite the name

    L: int
    K: int
    alpha: float
    loss: LossSpec
    master_seed: int

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError("L must be at least 1")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.K >= _SWAP_STREAM_BASE:
            raise ValueError(f"K={self.K} exceeds the {_SWAP_STREAM_BASE - 1} swap streams a seed provides")
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
    loss unchanged (neutral). Those are the pairs whose swap delta 2 (y_i -
    y_j)(y_hat_i - y_hat_j) is 2, -2 and 0, the rule of the engine's
    compare. Whether every matched record is binary is read from the
    dataset's stored flags (:attr:`Dataset.binary_records`), without a scan
    when the whole dataset is binary.

    Raises
    ------
    NonBinaryData
        If any matched record has a non-binary outcome or prediction.
    """
    if not _matched_binary(d, m):
        raise NonBinaryData("matched records must have y and y_hat in {0, 1}")
    return _swap_counts(_deltas(d.y[m.pairs], d.y_hat[m.pairs]))


def _deltas(y: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Each pair's swap delta 2 (y_i - y_j)(y_hat_i - y_hat_j), doubled last, where that is exact."""
    return 2.0 * ((y[:, 0] - y[:, 1]) * (y_hat[:, 0] - y_hat[:, 1]))


def _swap_counts(delta: np.ndarray) -> SwapCounts:
    """The pairs whose delta is above, below and at zero."""
    increase, decrease = int(np.count_nonzero(delta > 0)), int(np.count_nonzero(delta < 0))
    return SwapCounts(increase, decrease, len(delta) - increase - decrease)


def _matched_binary(d: Dataset, m: Matching) -> bool:
    """Whether every record of the matching has a binary outcome and prediction."""
    return d.is_binary() or bool(d.binary_records[m.pairs].all())


class _SwapMask:
    """The K x L Bernoulli(1/2) swap decisions at one seed, drawn a block at a time.

    Row k is ``swap_stream(master_seed, k).random(L) < 0.5``. Block i, rows
    ``_BLOCK_ROWS * i`` on, is drawn the first time a reader reaches it and
    stored in ``bits`` under i as a read-only ``(rows, ceil(L / 8))``
    uint8 array, each row packed into whole bytes with zero padding bits.
    The mask holds each row's ``PCG64`` state one step before the seeded
    one (:func:`_pre_states`) as four uint64 words in the thread layout's
    order; the thread that draws a block copies its rows' states into its
    own generators (:class:`_Stream`), one per row, and fills each row of
    one ``(rows, L + 1)`` float array with one :data:`_fill` call, dropping
    the first double. K comes from a :class:`TestConfig`, which keeps it
    below 2**32. Tests take their mask from :func:`_swap_mask`, which keeps
    the last one.
    """

    def __init__(self, master_seed: int, K: int, L: int) -> None:
        self.master_seed, self.K, self.L = master_seed, K, L
        self.bits: dict[int, np.ndarray] = {}
        order = _thread_stream().order  # raises _UnknownStateLayout, which the import put off to here
        self._pre = np.take(_pre_states(_swap_seed_words(master_seed, K)), order, axis=1)

    def blocks(self, L: int) -> Iterator[np.ndarray]:
        """The first L (at most ``self.L``) columns up to a whole byte, ``_BLOCK_ROWS`` rows at a time; only read them.

        A block drawn by this read comes as bools, ``(rows, 8 * ceil(L /
        8))``, and a block kept from an earlier read as its packed rows,
        ``(rows, ceil(L / 8))`` uint8. Either way the columns past L are
        later columns of the mask or its zero padding, for the reader to
        ignore.
        """
        width = -(-L // 8)
        for i, start in enumerate(range(0, self.K, _BLOCK_ROWS)):
            bits = self.bits.get(i)
            if bits is None:
                block = self._draw(start, min(start + _BLOCK_ROWS, self.K))
                # the padded bools pack row by row, each into whole bytes
                bits = np.packbits(block).reshape(len(block), -1)
                bits.flags.writeable = False
                self.bits.setdefault(i, bits)
                yield block[:, : 8 * width]
            else:
                yield bits[:, :width]

    def _draw(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start`` to ``stop`` as bools, from each pre-state's ``self.L + 1`` doubles with the first dropped.

        The rows' pre-states are copied into the thread's states with one
        assignment, and row i's doubles are filled in place by numpy's
        uniform fill on the thread's generator i, so no state is written and
        no array is built per row. Each row is padded with False to a whole
        number of bytes.
        """
        stream = _thread_stream()
        stream.states[: stop - start] = self._pre[start:stop]
        out = np.empty((stop - start, self.L + 1))
        fill, count = _fill, ctypes.c_ssize_t(self.L + 1)
        for generator, row in zip(stream.generators, _row_addresses(out)):
            fill(generator, count, row)
        block = np.zeros((stop - start, -(-self.L // 8) * 8), dtype=bool)
        # comparing the whole contiguous array and copying the rows out is
        # faster than comparing the strided columns that drop the first
        block[:, : self.L] = (out < 0.5)[:, 1:]
        return block


# the mask of the last (seed, K, matching length); a sweep over L on one
# matching at one seed reads it again and draws no row twice
_swap_mask = functools.lru_cache(maxsize=1)(_SwapMask)


try:
    # numpy's random_standard_uniform_fill(bitgen_t *, npy_intp, double *),
    # declared in its public numpy/random/distributions.h, which
    # Generator.random calls; a PyDLL call keeps the GIL. Where it is not
    # exported the first swap draw raises, so importing and matching still work.
    _fill = ctypes.PyDLL(np.random._generator.__file__).random_standard_uniform_fill
except AttributeError:
    _fill = None
else:
    _fill.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p)
    _fill.restype = None


class _Stream(threading.local):
    """Each thread's ``_BLOCK_ROWS`` numpy ``bitgen_t`` structs, one per row of a block, and the states they draw from.

    ``states`` holds one numpy ``pcg64_random_t`` per row, its 128-bit state
    and increment as four uint64 words. Each is stored low half first where
    the C compiler has a native 128-bit integer and high half first where
    numpy emulates one (MSVC), so ``order`` takes a row ``[state_lo,
    state_hi, inc_lo, inc_hi]`` to the words in memory; it is read from a
    ``PCG64``'s ``.state``, which numpy decodes from the same struct.
    ``generators[i]`` points to a ``bitgen_t`` with that ``PCG64``'s
    functions, whose state is a ``pcg64_state`` whose first field points to
    row i of ``states``, so ``_fill(generators[i], n, out)`` writes the n
    doubles that ``Generator.random`` draws from that row's state, and
    advances it. Each thread has its own (made at import for the importing
    thread, on first use for any other), so no two threads draw from one
    struct.

    Raises
    ------
    _UnknownStateLayout
        If numpy exports no ``random_standard_uniform_fill``, its ``PCG64``
        keeps its state struct outside the generator object or holds the
        known state in neither order, or the fill through row 0's
        ``bitgen_t``, from the generator's state, does not give the doubles
        of ``Generator.random``.
    """

    def __init__(self) -> None:
        if _fill is None:
            raise _UnknownStateLayout("numpy exports no random_standard_uniform_fill")
        bit_generator = np.random.PCG64(0)
        # numpy's pcg64_state, whose first field points to the pcg64_random_t;
        # checked by reading alone, before any fill runs on copies of that layout
        struct = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
        start = id(bit_generator)  # in CPython, the object's address
        if struct is None or not start <= struct <= start + type(bit_generator).__basicsize__ - 32:
            raise _UnknownStateLayout("PCG64's state struct is not inside the generator")
        words = np.frombuffer((ctypes.c_uint64 * 4).from_address(struct), dtype=np.uint64)
        known = bit_generator.state["state"]
        halves = [known["state"] & _U64, known["state"] >> 64, known["inc"] & _U64, known["inc"] >> 64]
        for order in ([0, 1, 2, 3], [1, 0, 3, 2]):
            if words.tolist() == [halves[i] for i in order]:
                self.order = order
                break
        else:
            raise _UnknownStateLayout("PCG64's state words are in neither 128-bit layout")
        # 16-byte aligned, as a struct of 128-bit integers is
        buffer = np.zeros(4 * _BLOCK_ROWS + 1, dtype=np.uint64)
        skip = buffer.ctypes.data % 16 // 8
        self.states = buffer[skip : skip + 4 * _BLOCK_ROWS].reshape(_BLOCK_ROWS, 4)
        # each pcg64_state: a pointer to its row of states, then has_uint32 and uinteger, zero
        self._pcg64_states = np.zeros((_BLOCK_ROWS, 2), dtype=np.uint64)
        self._pcg64_states[:, 0] = _row_addresses(self.states)
        # each bitgen_t: its state, then next_uint64, next_uint32, next_double and next_raw
        bitgen = (ctypes.c_uint64 * 5).from_address(bit_generator.ctypes.bit_generator.value)
        self._bitgens = np.tile(np.frombuffer(bitgen, dtype=np.uint64), (_BLOCK_ROWS, 1))
        self._bitgens[:, 0] = _row_addresses(self._pcg64_states)
        self.generators = [ctypes.c_void_p(address) for address in _row_addresses(self._bitgens)]
        # row 0, from the generator's own state, must give its Generator's doubles
        self.states[0] = words
        got, want = np.empty(8), np.random.Generator(bit_generator).random(8)
        _fill(self.generators[0], 8, got.ctypes.data)
        if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            raise _UnknownStateLayout("numpy's uniform fill from a copy of PCG64's state does not give its doubles")


def _row_addresses(array: np.ndarray) -> range:
    """The address of each row of a C-contiguous array, as ints."""
    start = array.ctypes.data
    return range(start, start + array.nbytes, array.strides[0])


# one _Stream, a threading.local: each thread that reads it builds its own generators
_thread_stream = functools.cache(_Stream)
# made here for the importing thread: made during its first test, its
# long-lived objects landed amid that test's heap and raised the peak RSS of
# a power study by about 0.3 MB. Where numpy's PCG64 layout or fill is unknown
# nothing is cached and the first swap draw raises, so importing and matching
# still work.
try:
    _thread_stream()
except _UnknownStateLayout:
    pass


def _pre_states(words: np.ndarray) -> np.ndarray:
    """Row k is the ``PCG64`` state and increment one step before those seeded by ``words[k]``.

    numpy's ``pcg64_set_seed`` reads a row of seed words as ``[initstate_hi,
    initstate_lo, initseq_hi, initseq_lo]``, sets ``inc = (initseq << 1) | 1``
    and then the state ``(initstate + inc) * mult + inc`` mod 2**128, one
    step of the generator from ``initstate + inc``. That pre-state is the
    one returned, so the step is the first raw of a draw and no 128-bit
    multiply is needed: each row is ``[state_lo, state_hi, inc_lo,
    inc_hi]``, the add done in 64-bit halves with a carry.
    """
    init_hi, init_lo, seq_hi, seq_lo = words.T
    one = np.uint64(1)
    inc_hi = seq_hi << one | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << one | one
    # uint64 arrays wrap on overflow, so the low half wrapped when it came out smaller
    lo = init_lo + inc_lo
    hi = init_hi + inc_hi + (lo < init_lo)
    return np.stack([lo, hi, inc_lo, inc_hi], axis=1)


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


def expert_test(d: Dataset, cfg: TestConfig, metric: DistanceMetric) -> TestResult:
    """Run the full test: match under ``metric``, resample K times, compare losses, reject if tau <= alpha."""
    matching = greedy_match(d, cfg.L, metric)
    return expert_test_with_matching(d, matching, cfg)


def expert_test_with_matching(
    d: Dataset, matching: Matching, cfg: TestConfig, *, verdict_only: bool = False
) -> TestResult:
    """Like :func:`expert_test` but reusing a precomputed matching.

    ``matching`` must be a greedy matching of ``d`` with at least ``cfg.L``
    pairs; the test reads its first ``cfg.L``, so results are bit-identical
    to :func:`expert_test`. The swap mask is drawn at the matching's length,
    so the tests of a sweep over one matching, in any order, read one mask.
    That makes a single test on a long matching draw every row at the
    matching's length; such a test should pass ``matching.prefix(cfg.L)``
    or call :func:`expert_test`.

    With ``verdict_only`` set, the comparison stops after the first block
    at which ``less / K > alpha``, where ``less`` counts the resamples so far
    whose loss is below the observed loss: the tie coins only add to it, so
    tau is already above alpha. Such a result has ``rejected`` false and
    ``tau`` and ``effective_p`` None, and the tie-break stream is not drawn;
    ``rejected`` is always the full test's. The blocks drawn before the stop
    are kept, and a later test at the same seed, K and matching length
    reads them and draws the rest.

    Every comparison is exact, whatever the loss: a resample counts below
    the observed loss exactly when the sum, over the pairs it swaps, of 2
    (y_i - y_j)(y_hat_i - y_hat_j) is below zero, and as a tie exactly when
    that sum is zero or both of the loss's costs are zero. The float
    product of a block with the deltas decides every row beyond its rounding
    margin (:func:`_rounding_margin`), and each row within it is summed
    exactly.

    Raises
    ------
    LossOverflow
        If the loss is squared error and the observed loss is not finite in
        float64, or the sum of the absolute float deltas, with its rounding
        margin, is not finite.
    """
    if len(matching) < cfg.L:
        raise ValueError(f"matching has {len(matching)} pairs, config wants L={cfg.L}")
    m = matching.prefix(cfg.L)
    with np.errstate(over="ignore"):
        # squared errors that overflow raise LossOverflow below instead
        observed = dataset_loss(d, cfg.loss)
    y, y_hat = d.y[m.pairs], d.y_hat[m.pairs]
    # zero past L, so the columns a block carries up to its whole byte count nothing
    delta = np.zeros(-(-cfg.L // 8) * 8)
    with np.errstate(over="ignore", invalid="ignore"):
        delta[: cfg.L] = _deltas(y, y_hat)
        counts = _swap_counts(delta[: cfg.L]) if _matched_binary(d, m) else None
        # only weighted_binary takes costs other than 1 and 1, and with both
        # zero no swap changes it
        free = not (cfg.loss.fp_cost or cfg.loss.fn_cost)
        if free:
            delta[:] = 0.0
        spread = float(np.abs(delta).sum())
    # the deltas of integer outcomes and predictions, binary ones among
    # them, are exact integers while their absolute values sum below 2**53,
    # and so is every partial sum of them, in any order: then no row needs
    # a margin; binary records are integers without a scan
    integral = counts is not None or (
        np.array_equal(np.trunc(y), y) and np.array_equal(np.trunc(y_hat), y_hat)
    )
    margin = 0.0 if integral and spread < 2.0**53 else _rounding_margin(cfg.L, spread)
    # a difference that overflows makes a delta infinite, or NaN (inf * 0),
    # and a row sum that overflows can count on the wrong side
    if not (math.isfinite(observed) and math.isfinite(spread + 2.0 * margin)):
        raise LossOverflow("squared errors overflow float64; rescale y and y_hat")

    less = ties = 0
    tau = None
    packed = exact = None  # made when a test first needs them
    for mask in _swap_mask(cfg.master_seed, cfg.K, len(matching)).blocks(cfg.L):
        if counts is not None and mask.dtype != bool:
            # dec and informative pack the negative and the nonzero deltas,
            # each -2 or 2: half a packed row's sum is the count of its
            # informative bits that differ from dec, less the count of dec:
            # the decrease count, or 0 once a free loss's deltas are zeroed
            # (bitwise_count is NumPy 2.0's, hence the package's numpy>=2.0)
            if packed is None:
                packed = np.packbits(delta < 0), np.packbits(delta != 0), 0 if free else counts.decrease
            dec, informative, n_dec = packed
            diff = np.bitwise_count((mask ^ dec) & informative).sum(axis=1, dtype=np.intp) - n_dec
        else:
            # a kept block is unpacked to its whole bytes, as a drawn block comes
            rows = mask if mask.dtype == bool else np.unpackbits(mask, axis=1)
            diff = rows @ delta
        below = int(np.count_nonzero(diff < -margin))
        undecided = len(diff) - below - int(np.count_nonzero(diff > margin))
        less += below
        if undecided and not margin:
            # an exact sum on neither side is a tie
            ties += undecided
        elif undecided:
            # a float row within the rounding margin of zero takes the sign of its exact sum
            if exact is None:
                exact = _exact_deltas(y, y_hat)
            changed, values = exact
            for row in rows[np.abs(diff) <= margin][:, changed].tolist():
                total = sum(compress(values, row))
                less += total < 0
                ties += total == 0
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
        mismatch_count=m.mismatch_count,
        observed_loss=observed,
        binary_swap_counts=counts,
    )


def _rounding_margin(L: int, spread: float) -> float:
    """A bound on how far a row's float sum of squared-error deltas lies from its exact sum.

    Pair k's float delta d_k = 2 fl(fl(y_i - y_j) fl(yhat_i - yhat_j))
    stands for D_k = 2 (y_i - y_j)(yhat_i - yhat_j). ``spread`` is the
    float sum of the L values |d_k|, and A their exact sum. Let u = 2**-53
    and g(n) = n u / (1 - n u) (Higham, "Accuracy and Stability of
    Numerical Algorithms", ch. 3 and 4). A difference that underflows is
    exact, and so is the doubling, so |d_k - D_k| <= g(3) |D_k| + 2**-1074,
    the last term for a product that underflows. A row's float sum, in any
    order or tree of additions (so in any BLAS), errs from the exact sum of
    its d_k by at most g(L - 1) A: adding a zero, a product by a mask's 0
    or 1, fused or not, and an addition that underflows are exact. And
    ``spread`` >= (1 - g(L - 1)) A. So a row's float sum lies within
    (g(L - 1) + g(3) / (1 - g(3))) A + L 2**-1073 <= (L + 3) u / (1 -
    (2L + 6) u) ``spread`` + L 2**-1073 of its exact sum. The margin's
    denominator 1 - (2L + 10) u and its doubled absolute term also cover
    the three roundings of computing it (L < 2**50). Every partial sum is
    at most ``spread`` plus twice the margin, so none overflows while that
    is finite.
    """
    return (L + 3) * 2.0**-53 / (1.0 - (2 * L + 10) * 2.0**-53) * spread + L * 2.0**-1072


def _exact_deltas(y: np.ndarray, y_hat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The pairs whose swap changes the squared error, and each one's 2 (y_i - y_j)(yhat_i - yhat_j) exactly.

    A finite float is an integer of at most 53 bits times a power of two
    (``np.frexp``), so the matched outcomes times one power of two are
    integers, and so are the matched predictions times another
    (:func:`_integers`). A pair's product of its two integer differences is
    its swap delta in the unit 2 / (both powers), so a sum of them has the
    sign of the exact sum of the deltas. Pairs whose delta is zero are left
    out; the rest are returned as their indices and their products.
    """
    y, y_hat = _integers(y), _integers(y_hat)
    deltas = (y[:, 0] - y[:, 1]) * (y_hat[:, 0] - y_hat[:, 1])
    changed = np.flatnonzero(deltas)
    return changed, deltas[changed].tolist()


def _integers(values: np.ndarray) -> np.ndarray:
    """``values`` times one power of two, as exact Python integers in an object array."""
    mantissa, exponent = np.frexp(values)
    # a mantissa in [0.5, 1) has 53 bits, so times 2**53 it is an exact integer
    return (mantissa * 2.0**53).astype(np.int64).astype(object) << (exponent - exponent.min()).astype(object)


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
