import contextlib
import ctypes
import inspect
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from _oracles import (
    exact_squared_loss,
    mistake_changes,
    record_swap_streams,
    resample_once,
    stacked_swap_mask,
    tau_statistic,
    whole_mask_counts,
    whole_mask_tau,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from experttest import engine
from experttest.core import (
    Dataset,
    DistanceMetric,
    IncompatibleLoss,
    LossSpec,
    dataset_loss,
    derive_seed,
    stream,
)
from experttest.engine import (
    LossOverflow,
    NonBinaryData,
    SwapCounts,
    TestConfig,
    classify_swaps,
    exact_binary_p,
    expert_test,
    swap_stream,
    expert_test_with_matching,
    tie_break_stream,
)
from experttest.matching import Matching, TooManyPairs, greedy_match
from experttest.synthgen import ExpertiseConfig, gen_expertise_pairs, gen_validity_cube

L2 = DistanceMetric.euclidean()
B = engine._BLOCK_ROWS
# the LCG multiplier of numpy's PCG64
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


class OtherState(np.random.PCG64):
    """A PCG64 whose reported increment differs from the one in its C struct, as under an unknown layout."""

    @property
    def state(self):
        state = super().state
        state["state"]["inc"] ^= 1 << 70
        return state


def paired_binary_dataset(increase, decrease, neutral=0):
    """Duplicated-x pairs with the requested swap-classification counts."""
    y, p = [], []
    for _ in range(increase):
        y += [0.0, 1.0]
        p += [0.0, 1.0]  # both correct, outcomes differ
    for _ in range(decrease):
        y += [0.0, 1.0]
        p += [1.0, 0.0]  # both wrong, outcomes differ
    for _ in range(neutral):
        y += [0.0, 0.0]
        p += [0.0, 1.0]  # same outcome: a swap moves nothing that matters
    n = len(y)
    x = np.repeat(np.arange(n // 2, dtype=float), 2)
    return Dataset(x, y, p)


def cube_with_outcomes(n, seed, values):
    """Validity-cube features with outcomes and predictions drawn from ``values``."""
    d = gen_validity_cube(n, seed)
    rng = np.random.default_rng(seed)
    return Dataset(d.x, rng.choice(values, n), rng.choice(values, n))


def audit_like(n, seed):
    """Binary outcomes and decisions on integer and one-decimal features, with duplicate records.

    The decisions are a weak expert's, so about as many swaps decrease the
    loss as increase it, and most pairs' outcomes agree, which makes them
    neutral: resamples fall on both sides of the observed loss and on it.
    """
    rng = np.random.default_rng(seed)
    age = rng.integers(18, 91, n).astype(np.float64)
    visits = rng.poisson(3.0, n).astype(np.float64)
    hgb = np.round(rng.normal(13.5, 1.6, n), 1)
    x = np.column_stack([age, visits, hgb])
    risk = 0.04 * (age - 55) + 0.3 * (visits - 3) - 0.4 * (hgb - 13.5) + rng.normal(0.0, 1.0, n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-risk))).astype(np.float64)
    y_hat = (risk + rng.normal(0.0, 10.0, n) > 0).astype(np.float64)
    return Dataset(x, y, y_hat)


def named_dataset(name, n, seed):
    """The engine tests' inputs.

    ``integers`` has integer-valued outcomes and predictions, whose
    squared-loss deltas sum exactly in any order, and ``huge-integers`` has
    integers whose absolute deltas sum past 2**53. On ``tenths`` the deltas
    often cancel in exact arithmetic, so many resamples' exact loss changes
    are zero or a few ulps from it, where a float sum can take the wrong
    sign; ``decimals`` has one-decimal values like lab results.
    ``binary-matched`` is not binary, but every record of its first n/2
    greedy pairs is.
    """
    return {
        "pairs": lambda: gen_expertise_pairs(ExpertiseConfig(n=n, delta=0.1, seed=seed)),
        "cube": lambda: gen_validity_cube(n, seed),
        "tenths": lambda: cube_with_outcomes(n, seed, [0.1, 0.2, 0.3]),
        "integers": lambda: cube_with_outcomes(n, seed, [0.0, 1.0, 2.0, 3.0, 7.0]),
        "decimals": lambda: cube_with_outcomes(n, seed, [4.7, 12.1, 13.5, 13.6, 0.9]),
        "audit": lambda: audit_like(n, seed),
        "huge-integers": lambda: cube_with_outcomes(n, seed, [0.0, 1e7, 3e7, 5e7, 9e7]),
        "binary-matched": lambda: with_unpaired_threes(
            gen_expertise_pairs(ExpertiseConfig(n=n, delta=0.1, seed=seed))
        ),
    }[name]()


def with_unpaired_threes(d):
    """``d`` and n more records, far from each other and from ``d``, whose y and y_hat are 3."""
    x = np.vstack([d.x, np.full_like(d.x, 1000.0) + 10.0 * np.arange(d.n)[:, None]])
    fill = np.full(d.n, 3.0)
    return Dataset(x, np.concatenate([d.y, fill]), np.concatenate([d.y_hat, fill]))


class TestResampleOnce:
    def test_empty_matching_returns_identical_dataset(self):
        d = paired_binary_dataset(2, 1)
        out = resample_once(d, Matching([], []), stream(3, 0))
        assert out == d

    def test_forced_swap_exchanges_predictions_only(self):
        d = Dataset([[0.0], [0.0]], [1.0, 2.0], [10.0, 20.0])
        m = greedy_match(d, 1, L2)
        seed = next(s for s in range(50) if stream(s, 0).random(1)[0] < 0.5)
        out = resample_once(d, m, stream(seed, 0))
        assert out.y_hat.tolist() == [20.0, 10.0]
        assert out.y.tolist() == [1.0, 2.0]
        assert np.array_equal(out.x, d.x)

    def test_leaves_original_untouched(self):
        d = Dataset([[0.0], [1.0]], [0.0, 1.0], [0.0, 1.0])
        m = Matching([(0, 1)], [1.0])
        seed = next(s for s in range(50) if stream(s, 0).random(1)[0] < 0.5)
        out = resample_once(d, m, stream(seed, 0))
        assert d.y_hat.tolist() == [0.0, 1.0]
        assert out.y_hat.tolist() == [1.0, 0.0]
        assert np.array_equal(d.x, out.x)

    def test_no_swap_when_draw_high(self):
        d = Dataset([[0.0], [0.0]], [1.0, 2.0], [10.0, 20.0])
        m = greedy_match(d, 1, L2)
        seed = next(s for s in range(50) if stream(s, 0).random(1)[0] >= 0.5)
        assert resample_once(d, m, stream(seed, 0)) == d

    def test_reproducible_across_runs(self):
        d = paired_binary_dataset(5, 5, 5)
        m = greedy_match(d, 15, L2)
        a = resample_once(d, m, stream(123, 9))
        b = resample_once(d, m, stream(123, 9))
        assert a == b

    def test_out_of_range_indices_rejected(self):
        d = paired_binary_dataset(2, 0)
        with pytest.raises(ValueError):
            resample_once(d, Matching([(0, 99)], [0.0]), stream(0, 0))


def swap_mask(seed, K, L, l=None):
    """The first l (default L) columns of the engine's mask at (seed, K, L), its blocks each full but the last."""
    l = L if l is None else l
    blocks = list(engine._swap_mask(seed, K, L).blocks(l))
    assert [len(b) for b in blocks] == [min(B, K - s) for s in range(0, K, B)]
    return read_blocks(blocks, l)


def read_blocks(blocks, l):
    """The first l columns of blocks read at l, as one bool mask.

    Each block must be l columns rounded up to a whole byte: bools if it was
    drawn by the read, its rows packed into bytes if it was kept.
    """
    got = []
    for b in blocks:
        if b.dtype == np.uint8:
            b = np.unpackbits(b, axis=1).view(bool)
        assert b.dtype == bool and b.shape[1] == -(-l // 8) * 8
        got.append(b[:, :l])
    return np.concatenate(got)


def kept_mask(seed, K, L):
    """The engine's mask at (seed, K, L), which must be the kept one: asking for it builds none."""
    misses = engine._swap_mask.cache_info().misses
    mask = engine._swap_mask(seed, K, L)
    assert engine._swap_mask.cache_info().misses == misses
    return mask


def no_draw(*args):
    raise AssertionError("swap streams drawn again")


@contextlib.contextmanager
def warnings_as_errors():
    """Warnings turn into errors inside the block only.

    A test sets this around its engine calls rather than taking the
    ``filterwarnings("error")`` mark, under which hypothesis's report of a
    failing example fails on a warning of its own imports and stops the session.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


# a numpy scalar in the seed-word hash would warn on overflow where arrays
# wrap, so each test runs the engine with warnings as errors
class TestSwapMasks:
    @given(
        seed=st.integers(-(2**63), 2**64 - 1),
        K=st.integers(1, 2 * B + 10),
        L=st.integers(1, 300),
        cut=st.floats(0.0, 1.0),
    )
    @example(seed=0, K=1, L=1, cut=1.0)
    @example(seed=-1, K=64, L=300, cut=0.5)
    @example(seed=2**32 - 1, K=7, L=33, cut=0.0)
    @example(seed=2**32, K=7, L=33, cut=0.3)
    @example(seed=2**64 - 1, K=64, L=1, cut=1.0)
    @example(seed=5, K=B - 1, L=9, cut=0.5)
    @example(seed=5, K=B, L=9, cut=0.5)
    @example(seed=5, K=B + 1, L=9, cut=0.5)
    @example(seed=-3, K=2 * B + 3, L=40, cut=0.2)
    # seeds whose 32-bit halves hit the edges of the word hash, past one block
    @example(seed=0, K=2 * B + 3, L=5, cut=0.4)
    @example(seed=-1, K=B + 1, L=70, cut=0.9)
    @example(seed=2**32, K=2 * B, L=2, cut=0.5)
    @example(seed=2**64 - 1, K=B + 7, L=128, cut=0.1)
    @example(seed=12345, K=100, L=17, cut=0.6)
    @settings(max_examples=100, deadline=None)
    def test_equals_stacked_swap_streams(self, seed, K, L, cut):
        # a smaller L reads a prefix of every stream, here from the kept mask
        l = max(1, round(cut * L))
        with warnings_as_errors():
            mask, prefix = swap_mask(seed, K, L), swap_mask(seed, K, L, l)
        assert np.array_equal(mask, stacked_swap_mask(seed, K, L))
        assert np.array_equal(prefix, stacked_swap_mask(seed, K, l))

    @given(
        seed=st.integers(-(2**63), 2**64 - 1),
        K=st.integers(1, 2 * B + 10),
        L=st.integers(1, 200),
    )
    @example(seed=-1, K=B - 1, L=1)
    @example(seed=-(2**63), K=B, L=1)
    @example(seed=2**63, K=B + 1, L=1)
    @example(seed=2**63 + 5, K=2 * B + 3, L=25)
    @example(seed=2**64 - 1, K=B + 1, L=150)
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_stacked_swap_stream_raws(self, seed, K, L):
        # each row's doubles after the dropped first one are the stream's own,
        # bit for bit, not only their comparisons with 1/2: each fill's doubles
        # are copied from the address it wrote them to
        fill, rows = engine._fill, []

        def record(generator, count, address):
            fill(generator, count, address)
            rows.append(np.ctypeslib.as_array((ctypes.c_double * count.value).from_address(address)).copy())

        with warnings_as_errors(), mock.patch.object(engine, "_fill", record):
            blocks = list(engine._SwapMask(seed, K, L).blocks(L))
        doubles = np.stack([swap_stream(seed, k).random(L) for k in range(K)])
        assert np.array_equal(np.stack(rows)[:, 1:].view(np.uint64), doubles.view(np.uint64))
        # a double is its raw's top 53 bits, so it is below 1/2 exactly when the raw is below 2**63
        raws = np.stack([swap_stream(seed, k).bit_generator.random_raw(L) for k in range(K)])
        assert np.array_equal(doubles, (raws >> np.uint64(11)) * 2.0**-53)
        assert np.array_equal(read_blocks(blocks, L), raws < 2**63)
        # drawn at the mask's own L, so every column past it is padding
        assert not any(b[:, L:].any() for b in blocks)

    @pytest.mark.parametrize(
        "words",
        [
            # the low halves' add wraps and carries into the high half
            [5, 2**64 - 3, 7, 2**62],
            # initseq_lo's top bit shifts into inc_hi
            [0, 1, 2**63 + 1, 2**63 + 9],
            [2**64 - 1] * 4,
            [0, 0, 0, 0],
        ],
        ids=["low-carry", "seq-top-bit", "all-ones", "zeros"],
    )
    def test_pre_states_step_to_numpys_seeded_state(self, words):
        init_hi, init_lo, seq_hi, seq_lo = words
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) % 2**128
        pre = ((init_hi << 64 | init_lo) + inc) % 2**128
        want = [pre % 2**64, pre >> 64, inc % 2**64, inc >> 64]
        with warnings_as_errors():
            got = engine._pre_states(np.array([words], dtype=np.uint64))
        assert got.dtype == np.uint64 and got.tolist() == [want]

        # one PCG64 step from the pre-state is the state numpy seeds from the words
        class Words(np.random.bit_generator.ISeedSequence):
            def generate_state(self, n_words, dtype=np.uint32):
                return np.array(words, dtype=np.uint64)

        seeded = np.random.PCG64(Words()).state["state"]
        assert seeded == {"state": (pre * PCG64_MULTIPLIER + inc) % 2**128, "inc": inc}

    @pytest.mark.parametrize(
        "layout, message",
        [
            ("other-state", "neither 128-bit layout"),
            ("struct-elsewhere", "not inside the generator"),
            ("other-fill", "does not give its doubles"),
            ("no-fill", "exports no random_standard_uniform_fill"),
        ],
    )
    def test_unknown_state_layout_raises(self, monkeypatch, layout, message):
        class StructElsewhere(np.random.PCG64):
            @property
            def ctypes(self):
                self.outside = (ctypes.c_uint64 * 4)()
                self.pointer = ctypes.c_void_p(ctypes.addressof(self.outside))
                return SimpleNamespace(state_address=ctypes.addressof(self.pointer))

        class OtherFill(np.random.PCG64):
            # PCG64DXSM's functions read the same state struct but output other doubles
            @property
            def ctypes(self):
                self.other = np.random.PCG64DXSM(0)
                return SimpleNamespace(state_address=super().ctypes.state_address,
                                       bit_generator=self.other.ctypes.bit_generator)

        if layout == "no-fill":
            monkeypatch.setattr(engine, "_fill", None)
        else:
            generator = {"other-state": OtherState, "struct-elsewhere": StructElsewhere, "other-fill": OtherFill}
            monkeypatch.setattr(np.random, "PCG64", generator[layout])
        with warnings_as_errors(), pytest.raises(engine._UnknownStateLayout, match=message):
            engine._Stream()

    def test_unknown_state_layout_raises_at_the_first_draw_not_at_import(self):
        # a fresh interpreter whose PCG64 reports an unknown layout from the start
        prelude = inspect.getsource(OtherState) + "np.random.PCG64 = OtherState\n"
        assert first_draw_in_fresh_interpreter(prelude) == "raised: PCG64's state words are in neither 128-bit layout\n"

    def test_missing_fill_raises_at_the_first_draw_not_at_import(self):
        # a fresh interpreter in which numpy's library exports no function
        prelude = """
            import ctypes

            class NoExports(ctypes.PyDLL):
                def __getattr__(self, name):
                    raise AttributeError(name)

            ctypes.PyDLL = NoExports
        """
        assert first_draw_in_fresh_interpreter(prelude) == "raised: numpy exports no random_standard_uniform_fill\n"

    def test_too_many_resamples_rejected_before_allocating(self, monkeypatch):
        # swap stream k is keyed 2**32 + k, whose words are (k, 1) only for k
        # < 2**32; TestConfig checks K, so no mask is built for a larger one
        def fail(*args):
            raise AssertionError("seed words derived for an oversized K")

        monkeypatch.setattr(engine, "_swap_seed_words", fail)
        tracemalloc.start()
        try:
            message = "K=4294967296 exceeds the 4294967295 swap streams"
            with warnings_as_errors(), pytest.raises(ValueError, match=message):
                TestConfig(L=1, K=2**32, alpha=0.05, loss=LossSpec.zero_one(), master_seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_kept_mask_read_only_and_replaced(self):
        with warnings_as_errors():
            engine._swap_mask.cache_clear()
            swap_mask(11, B + 5, 20)
            kept = kept_mask(11, B + 5, 20)
            # one entry per block, each row packed into 3 bytes, its last 4 bits zero
            assert [(i, bits.shape) for i, bits in kept.bits.items()] == [(0, (B, 3)), (1, (5, 3))]
            assert np.array_equal(kept_rows(kept), stacked_swap_mask(11, B + 5, 20))
            for bits in kept.bits.values():
                assert not (bits[:, -1] & 0x0F).any()
                assert not bits.flags.writeable
                with pytest.raises(ValueError):
                    bits[0] = 0
            # another (seed, K, L) replaces the kept mask; the masks stay right
            for seed, K, L in [(12, B + 5, 20), (11, 3, 20), (11, B + 5, 19), (11, B + 5, 20)]:
                assert np.array_equal(swap_mask(seed, K, L), stacked_swap_mask(seed, K, L))
                kept_mask(seed, K, L)
            assert kept_mask(11, B + 5, 20) is not kept

    @pytest.mark.parametrize(
        "K, L",
        # the last K is seven full blocks and one row
        [(B - 1, 40), (B, 40), (B + 1, 40), (2 * B + 3, 40), (7 * B + 1, 300)],
    )
    def test_smaller_L_reads_kept_mask(self, monkeypatch, K, L):
        # the unpacked prefix must be the streams' own first draws, block by
        # block, not just the columns the first draw handed out
        with warnings_as_errors():
            engine._swap_mask.cache_clear()
            swap_mask(7, K, L)
            kept = kept_mask(7, K, L)
            monkeypatch.setattr(engine, "_swap_seed_words", no_draw)
            built = record_swap_streams(monkeypatch)
            for l in (L, L - 1, 9, 1):
                assert np.array_equal(swap_mask(7, K, L, l), stacked_swap_mask(7, K, l))
            assert kept_mask(7, K, L) is kept and built == []

    def test_larger_L_or_other_stream_redraws(self, monkeypatch):
        with warnings_as_errors():
            engine._swap_mask.cache_clear()
            built = record_swap_streams(monkeypatch)
            # each call's mask (seed, K, L), the columns it reads and the rows it
            # draws; the mask asked for is kept after it
            calls = [
                ((3, 70, 10), 10, 70),
                ((3, 70, 25), 25, 70),  # a larger L
                ((3, 70, 25), 10, 0),  # a shorter read of the kept mask draws nothing
                ((4, 70, 10), 10, 70),  # another seed
                ((3, 70, 10), 10, 70),  # a smaller L
                ((3, 71, 5), 5, 71),  # another K
                ((3, 70, 5), 5, 70),
            ]
            for (seed, K, L), l, rows in calls:
                built.clear()
                assert np.array_equal(swap_mask(seed, K, L, l), stacked_swap_mask(seed, K, l))
                assert len(built) == rows
                kept_mask(seed, K, L)

    def test_closed_draw_keeps_rows_it_yielded(self, monkeypatch):
        with warnings_as_errors():
            K = 2 * B + 3
            engine._swap_mask.cache_clear()
            built = record_swap_streams(monkeypatch)
            # a reader stopped after one block leaves that block kept
            next(engine._swap_mask(6, K, 30).blocks(30))
            assert len(built) == B
            assert np.array_equal(kept_rows(kept_mask(6, K, 30)), stacked_swap_mask(6, B, 30))
            # readers of two seeds interleaved block by block each read their own
            # streams; the mask asked for last is kept
            a, b = engine._swap_mask(8, K, 20).blocks(20), engine._swap_mask(9, K, 20).blocks(20)
            got_a, got_b = zip(*zip(a, b))
            assert np.array_equal(read_blocks(got_a, 20), stacked_swap_mask(8, K, 20))
            assert np.array_equal(read_blocks(got_b, 20), stacked_swap_mask(9, K, 20))
            assert np.array_equal(kept_rows(kept_mask(9, K, 20)), stacked_swap_mask(9, K, 20))
            # two readers of one mask at two L, one after the other and stopped
            # at different blocks: each block is drawn once, by the first to reach it
            for n_a, n_b in [(1, 2), (2, 1), (3, 3)]:
                engine._swap_mask.cache_clear()
                built.clear()
                mask = engine._swap_mask(10, K, 20)
                a, b = mask.blocks(20), mask.blocks(7)
                got_a = [next(a) for _ in range(n_a)]
                got_b = [next(b) for _ in range(n_b)]
                assert np.array_equal(read_blocks(got_a, 20), stacked_swap_mask(10, K, 20)[: n_a * B])
                assert np.array_equal(read_blocks(got_b, 7), stacked_swap_mask(10, K, 7)[: n_b * B])
                rows = min(K, max(n_a, n_b) * B)
                assert len(set(built)) == len(built) == rows
                assert np.array_equal(kept_rows(kept_mask(10, K, 20)), stacked_swap_mask(10, rows, 20))
            # leapfrogging readers: each draws a block, reads the next one the
            # other drew, then draws again
            built.clear()
            mask = engine._swap_mask(11, K, 20)
            readers = {20: mask.blocks(20), 7: mask.blocks(7)}
            got = {20: [], 7: []}
            for l in (20, 7, 7, 20, 20, 7):
                got[l].append(next(readers[l]))
            for l in (20, 7):
                assert np.array_equal(read_blocks(got[l], l), stacked_swap_mask(11, K, l))
            assert len(set(built)) == len(built) == K

    def test_concurrent_readers_read_the_streams(self):
        # readers of one mask on eight threads: each block is drawn once, by
        # the first thread to reach it, from that thread's own generators
        with warnings_as_errors():
            K, L, readers = 5 * B + 3, 40, 8
            engine._swap_mask.cache_clear()
            mask = engine._swap_mask(12, K, L)
            got = [None] * readers

            def read(i):
                got[i] = read_blocks(mask.blocks(L - i), L - i)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            want = stacked_swap_mask(12, K, L)
            for i in range(readers):
                assert np.array_equal(got[i], want[:, : L - i])
            assert np.array_equal(kept_rows(kept_mask(12, K, L)), want)

    def test_threads_on_two_seeds_read_their_own_streams(self):
        # each thread copies its block's states into its own generators and
        # fills from them; a fill from the other thread's would show as a row
        # of the wrong seed
        with warnings_as_errors():
            K, L, rounds = 5 * B + 3, 40, 4
            seeds = (13, 14)
            got = {seed: [] for seed in seeds}

            def read(seed):
                for _ in range(rounds):
                    got[seed].append(read_blocks(engine._SwapMask(seed, K, L).blocks(L), L))

            threads = [threading.Thread(target=read, args=(seed,)) for seed in seeds]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            for seed in seeds:
                want = stacked_swap_mask(seed, K, L)
                assert len(got[seed]) == rounds
                assert all(np.array_equal(mask, want) for mask in got[seed])

    @pytest.mark.parametrize(
        "K, L, stop",
        [(B + 1, 40, 1), (2 * B + 3, 40, 1), (2 * B + 3, 40, 2), (7 * B + 1, 300, 3), (7 * B + 1, 300, 4)],
    )
    def test_read_after_stop_and_continuation_equal_streams(self, monkeypatch, K, L, stop):
        with warnings_as_errors():
            engine._swap_mask.cache_clear()
            blocks = engine._swap_mask(4, K, L).blocks(L)
            for _ in range(stop):
                next(blocks)
            assert list(kept_mask(4, K, L).bits) == list(range(stop))
            built = record_swap_streams(monkeypatch)
            # the first read takes the kept blocks and draws the rest at the kept L
            for l in (L - 1, L, 9, 1):
                assert np.array_equal(swap_mask(4, K, L, l), stacked_swap_mask(4, K, l))
            assert len(built) == K - stop * B
            assert np.array_equal(kept_rows(kept_mask(4, K, L)), stacked_swap_mask(4, K, L))


def first_draw_in_fresh_interpreter(prelude):
    """What a fresh interpreter prints that runs ``prelude`` after importing numpy as np, then experttest's first test.

    The interpreter must import experttest and match records before the test
    draws, and the test must raise ``_UnknownStateLayout``, whose message it prints.
    """
    script = textwrap.dedent(prelude) + textwrap.dedent("""
        import experttest
        from experttest import engine

        d = experttest.gen_expertise_pairs(experttest.ExpertiseConfig(n=40, delta=0.2, seed=1))
        metric = experttest.DistanceMetric.euclidean()
        assert len(experttest.greedy_match(d, 10, metric)) == 10
        cfg = experttest.TestConfig(L=10, K=5, alpha=0.05, loss=experttest.LossSpec.zero_one(), master_seed=3)
        try:
            experttest.expert_test(d, cfg, metric)
        except engine._UnknownStateLayout as exc:
            print("raised:", exc)
    """)
    src = Path(engine.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", "import numpy as np\n" + script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def kept_rows(kept):
    """Every row drawn into a mask, at the L it was drawn at; its blocks must be the first ones.

    Each kept block must be its rows packed to whole bytes, with every padding bit zero.
    """
    assert sorted(kept.bits) == list(range(len(kept.bits)))
    rows = []
    for i, n in enumerate(min(B, kept.K - s) for s in range(0, B * len(kept.bits), B)):
        assert kept.bits[i].shape == (n, -(-kept.L // 8)) and kept.bits[i].dtype == np.uint8
        unpacked = np.unpackbits(kept.bits[i], axis=1).view(bool)
        assert not unpacked[:, kept.L :].any()
        rows.append(unpacked[:, : kept.L])
    return np.concatenate(rows)


def verdict_dataset(kind, half, seed):
    """The inputs of the verdict-only property test, with 2 * half records."""
    n = 2 * half
    if kind == "neutral":
        increase, decrease = np.random.default_rng(seed).integers(0, half // 3 + 1, 2)
        return paired_binary_dataset(increase, decrease, half - increase - decrease)
    if kind == "tenths":
        return cube_with_outcomes(n, seed, [round(0.1 * i, 1) for i in range(10)])
    return gen_expertise_pairs(ExpertiseConfig(n=n, delta={"pairs0": 0.0, "pairs02": 0.2}[kind], seed=seed))


class TestVerdictOnly:
    @given(
        kind=st.sampled_from(["neutral", "tenths", "pairs0", "pairs02"]),
        half=st.integers(2, 60),
        L=st.integers(1, 60),
        K=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3]) | st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.001, 0.999),
    )
    # tau = alpha exactly, where alpha * K rounds below the integer count
    # (0.29 * 100) or above it (0.07 * 100), with no tie coins
    @example(kind="tenths", half=30, L=30, K=100, seed=158, alpha=0.07)
    @example(kind="tenths", half=30, L=30, K=100, seed=428, alpha=0.29)
    @example(kind="pairs02", half=20, L=20, K=100, seed=50, alpha=0.07)
    @settings(max_examples=150, deadline=None)
    def test_rejected_equals_full_test(self, kind, half, L, K, seed, alpha):
        d = verdict_dataset(kind, half, seed)
        L = min(L, half)
        loss = LossSpec.squared_error() if kind == "tenths" else LossSpec.zero_one()
        m = greedy_match(d, L, L2)
        cfg = TestConfig(L=L, K=K, alpha=alpha, loss=loss, master_seed=seed)
        # the verdict draws, the full test reads what it kept and draws on
        engine._swap_mask.cache_clear()
        verdict = expert_test_with_matching(d, m, cfg, verdict_only=True)
        full = expert_test_with_matching(d, m, cfg)
        assert full == whole_result(d, m, cfg)
        assert verdict.rejected == full.rejected
        if verdict.tau is None:
            assert verdict == replace(full, tau=None, effective_p=None)
        else:
            assert verdict == full
        # at alpha = tau the full test rejects, with tau * K resamples at or
        # below the observed loss: a stop on any count that low is wrong
        if 0.0 < full.tau < 1.0:
            at_tau = replace(cfg, alpha=full.tau)
            engine._swap_mask.cache_clear()
            assert expert_test_with_matching(d, m, at_tau, verdict_only=True) == replace(
                full, rejected=True
            )

    def test_stopped_test_draws_no_tie_coins(self, monkeypatch):
        def fail(seed):
            raise AssertionError("tie-break stream built for a stopped test")

        monkeypatch.setattr(engine, "tie_break_stream", fail)
        engine._swap_mask.cache_clear()
        built = record_swap_streams(monkeypatch)
        d = gen_expertise_pairs(ExpertiseConfig(n=200, delta=0.0, seed=4))
        cfg = TestConfig(L=50, K=1000, alpha=0.05, loss=LossSpec.zero_one(), master_seed=9)
        r = expert_test_with_matching(d, greedy_match(d, 50, L2), cfg, verdict_only=True)
        assert (r.tau, r.effective_p, r.rejected) == (None, None, False)
        # stopped after whole blocks, whose rows are kept
        assert len(built) % B == 0 and len(built) < cfg.K
        assert len(kept_mask(9, cfg.K, 50).bits) * B == len(built)


def whole_result(d, m, cfg):
    """The full test's result, with tau from one comparison of the whole stacked mask."""
    tau = whole_mask_tau(d, m, cfg)
    try:
        counts = classify_swaps(d, m)
    except NonBinaryData:
        counts = None
    return engine.TestResult(
        tau=tau, effective_p=tau + 1.0 / (cfg.K + 1), rejected=tau <= cfg.alpha, L=cfg.L,
        K=cfg.K, mismatch_count=m.mismatch_count, observed_loss=dataset_loss(d, cfg.loss),
        binary_swap_counts=counts,
    )


def pairs_dataset(*pairs):
    """One duplicated-x pair per ``(y_i, y_j, y_hat_i, y_hat_j)``, matched in the order given."""
    y = [v for p in pairs for v in p[:2]]
    y_hat = [v for p in pairs for v in p[2:]]
    x = np.repeat(10.0 * np.arange(len(pairs)), 2)
    return Dataset(x, y, y_hat)


def with_deltas(*deltas):
    """Pairs whose squared-error swap deltas are exactly ``deltas``, each float delta exact too."""
    return [(1.0, 0.0, v / 2, 0.0) for v in deltas]


def engine_counts(monkeypatch, d, m, cfg):
    """The engine's (less, ties) on a freshly drawn mask: every tie coin lands tails, and their number is the ties."""
    drawn = []

    class Tails:
        def random(self, n):
            drawn.append(n)
            return np.ones(n)

    monkeypatch.setattr(engine, "tie_break_stream", lambda seed: Tails())
    engine._swap_mask.cache_clear()
    r = expert_test_with_matching(d, m, cfg)
    return round(r.tau * cfg.K), sum(drawn)


class TestExactCompare:
    @given(
        data=st.sampled_from(["tenths", "decimals", "integers", "huge-integers", "cube"]),
        half=st.integers(2, 60),
        L=st.integers(1, 60),
        extra=st.integers(0, 9),
        K=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3]) | st.integers(1, 300),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**64 - 1),
        kept=st.booleans(),
        verdict_only=st.booleans(),
        alpha=st.floats(0.001, 0.999),
    )
    # the cases of TestVerdictOnly's tenths examples, at tau = alpha
    @example(data="tenths", half=30, L=30, extra=0, K=100, data_seed=158, seed=158, kept=False,
             verdict_only=True, alpha=0.07)
    @example(data="tenths", half=30, L=30, extra=0, K=100, data_seed=428, seed=428, kept=False,
             verdict_only=True, alpha=0.29)
    # test_blocks_match_whole_mask[tenths-loss5-131]'s row that a float sum
    # in one fixed order put on the wrong side
    @example(data="tenths", half=60, L=37, extra=3, K=131, data_seed=12, seed=8128, kept=True,
             verdict_only=False, alpha=0.05)
    @settings(max_examples=150, deadline=None)
    def test_tau_equals_exact_oracle(self, data, half, L, extra, K, data_seed, seed, kept, verdict_only, alpha):
        # tau is the literal resample-and-score procedure in exact arithmetic,
        # on drawn and on kept blocks, and a verdict-only test stops only
        # where that tau exceeds alpha
        d = named_dataset(data, 2 * half, data_seed)
        L = min(L, half)
        m = greedy_match(d, min(L + extra, half), L2)
        cfg = TestConfig(L=L, K=K, alpha=alpha, loss=LossSpec.squared_error(), master_seed=seed)
        engine._swap_mask.cache_clear()
        if kept:
            expert_test_with_matching(d, m, replace(cfg, L=len(m)))
        r = expert_test_with_matching(d, m, cfg, verdict_only=verdict_only)
        tau = whole_mask_tau(d, m.prefix(L), cfg)
        if r.tau is None:
            assert verdict_only and tau > alpha and not r.rejected
        else:
            assert (r.tau, r.rejected) == (tau, tau <= alpha)

    @pytest.mark.parametrize(
        "pairs",
        [
            # exact sum 0; in order, the float sum is 2**-55
            with_deltas(0.1, 0.2, -0.1, -0.2),
            # exact sums 2**-55 and -2**-55; in order, the float sums are
            # 2**-54 and 0
            with_deltas(0.1, 0.2, -0.3),
            with_deltas(0.1, 0.2, -0.30000000000000004),
            # exact sum -2**-60, a few ulps of the terms below 0
            with_deltas(1.0, 2.0**-60, -1.0, -(2.0**-59)),
            # one-decimal pairs whose float deltas are +-0.020000000000000004,
            # so every float sum of the two is 0, though the exact one is not
            [(0.9, 0.8, 0.4, 0.3), (0.2, 0.1, 0.1, 0.2)],
            # a product that underflows: the float delta is 2**-1073, the
            # exact one 1.5 * 2**-1074, and the other pair's is -2**-1073
            [(2.0**-537, 0.0, 3 * 2.0**-539, 0.0), (1.0, 0.0, -(2.0**-1074), 0.0)],
        ],
        ids=["tenths-zero", "tenths-above", "tenths-below", "ulps-below", "decimal-products", "underflow"],
    )
    def test_rows_at_the_margin_are_settled_exactly(self, monkeypatch, pairs):
        # rows whose exact loss change is 0, or a few ulps either side, count
        # below, on or above the observed loss as exact arithmetic counts them
        d = pairs_dataset(*pairs)
        m = greedy_match(d, len(pairs), L2)
        assert m.pairs.tolist() == [[2 * k, 2 * k + 1] for k in range(len(pairs))]
        cfg = TestConfig(L=len(pairs), K=400, alpha=0.05, loss=LossSpec.squared_error(), master_seed=5)
        # every pair swapped together, the row that lands at the margin
        assert stacked_swap_mask(5, cfg.K, cfg.L).all(axis=1).any()
        assert engine_counts(monkeypatch, d, m, cfg) == whole_mask_counts(d, m, cfg)

    def test_integer_sums_need_no_exact_fallback(self, monkeypatch):
        # integer outcomes and predictions sum exactly in floats, so their
        # ties are counted without the exact deltas
        monkeypatch.setattr(engine, "_exact_deltas", None)
        d = named_dataset("integers", 120, 12)
        m = greedy_match(d, 40, L2)
        cfg = TestConfig(L=40, K=300, alpha=0.05, loss=LossSpec.squared_error(), master_seed=3)
        less, ties = engine_counts(monkeypatch, d, m, cfg)
        assert ties > 0 and (less, ties) == whole_mask_counts(d, m, cfg)

    @pytest.mark.parametrize("loss", [LossSpec.zero_one(), LossSpec.squared_error()], ids=["zero-one", "squared"])
    def test_binary_records_are_not_scanned_for_integers(self, monkeypatch, loss):
        # binary records are integers, whatever the loss: a test on them
        # neither scans its outcomes and predictions nor needs the exact deltas
        d = paired_binary_dataset(12, 9, 7)
        m = greedy_match(d, 28, L2)
        cfg = TestConfig(L=28, K=300, alpha=0.05, loss=loss, master_seed=4)
        tau = whole_mask_tau(d, m, cfg)

        def scan(*args, **kwargs):
            raise AssertionError("binary records scanned for integers")

        monkeypatch.setattr(np, "trunc", scan)
        monkeypatch.setattr(engine, "_exact_deltas", None)
        engine._swap_mask.cache_clear()
        assert expert_test_with_matching(d, m, cfg).tau == tau


COSTS = [0.0, 5e-324, 0.3, 1.0, 1e308]
BINARY = st.sampled_from([0.0, 1.0])


class TestOneDelta:
    @given(
        pairs=st.lists(st.tuples(BINARY, BINARY, BINARY, BINARY), min_size=1, max_size=40),
        L=st.integers(1, 40),
        # costs that charge nothing, the one loss whose deltas are zeroed,
        # are also drawn on their own, so that they come often
        loss=st.sampled_from([LossSpec.zero_one(), LossSpec.squared_error(), LossSpec.weighted_binary(0, 0)])
        | st.builds(LossSpec.weighted_binary, st.sampled_from(COSTS), st.sampled_from(COSTS)),
        K=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3]) | st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
        kept=st.booleans(),
        verdict_only=st.booleans(),
        alpha=st.floats(0.001, 0.999),
    )
    # costs that charge nothing, whose every resample ties, on kept blocks;
    # the smallest cost that charges something, on either side, on kept and
    # on drawn blocks; costs whose sum overflows
    @example(pairs=[(0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)] * 5, L=9, loss=LossSpec.weighted_binary(0, 0),
             K=2 * B + 3, seed=3, kept=True, verdict_only=False, alpha=0.5)
    @example(pairs=[(0.0, 1.0, 1.0, 0.0), (1.0, 1.0, 0.0, 1.0)] * 5, L=10,
             loss=LossSpec.weighted_binary(5e-324, 0), K=B + 1, seed=3, kept=True, verdict_only=False, alpha=0.5)
    @example(pairs=[(0.0, 1.0, 1.0, 0.0), (1.0, 1.0, 0.0, 1.0)] * 5, L=10,
             loss=LossSpec.weighted_binary(0, 5e-324), K=B + 1, seed=3, kept=False, verdict_only=False, alpha=0.5)
    @example(pairs=[(0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0), (0.0, 0.0, 1.0, 1.0)] * 4, L=11,
             loss=LossSpec.weighted_binary(1e308, 1e308), K=B, seed=3, kept=True, verdict_only=True, alpha=0.5)
    @settings(max_examples=150, deadline=None)
    def test_binary_pairs_score_from_one_delta(self, pairs, L, loss, K, seed, kept, verdict_only, alpha):
        # every loss ranks a binary resample by its sum of squared-error
        # deltas, on drawn and on kept blocks, and the same deltas classify
        # the swaps as the mistakes they add or remove; the pairs include
        # equal outcomes and equal predictions
        d = pairs_dataset(*pairs)
        m = greedy_match(d, len(pairs), L2)
        assert m.pairs.tolist() == [[2 * k, 2 * k + 1] for k in range(len(pairs))]
        L = min(L, len(pairs))
        cfg = TestConfig(L=L, K=K, alpha=alpha, loss=loss, master_seed=seed)
        engine._swap_mask.cache_clear()
        # costs near the float maximum must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if kept:
                expert_test_with_matching(d, m, replace(cfg, L=len(m)))
            r = expert_test_with_matching(d, m, cfg, verdict_only=verdict_only)
        increase, decrease = (int(c.sum()) for c in mistake_changes(d, m.prefix(L)))
        counts = SwapCounts(increase, decrease, L - increase - decrease)
        assert r.binary_swap_counts == classify_swaps(d, m.prefix(L)) == counts
        tau = whole_mask_tau(d, m.prefix(L), cfg)
        if r.tau is None:
            assert verdict_only and tau > alpha and not r.rejected
        else:
            assert (r.tau, r.rejected) == (tau, tau <= alpha)


class TestTauStatistic:
    def test_all_resampled_smaller_gives_one(self):
        assert tau_statistic(5.0, [1.0, 2.0, 3.0, 4.0], stream(0, 0)) == 1.0

    def test_all_resampled_greater_gives_zero(self):
        assert tau_statistic(1.0, [2.0, 3.0, 4.0], stream(0, 0)) == 0.0

    def test_all_ties_behave_like_fair_coins(self):
        K = 20
        taus = [tau_statistic(1.0, [1.0] * K, stream(s, 0)) for s in range(500)]
        assert 0.45 <= np.mean(taus) <= 0.55
        assert all(round(t * K) in range(K + 1) for t in taus)

    def test_empty_losses_rejected(self):
        with pytest.raises(ValueError):
            tau_statistic(1.0, [], stream(0, 0))


class TestClassifySwaps:
    def test_both_correct_pair_increases(self):
        d = paired_binary_dataset(1, 0)
        assert classify_swaps(d, greedy_match(d, 1, L2)) == SwapCounts(1, 0, 0)

    def test_both_wrong_pair_decreases(self):
        d = paired_binary_dataset(0, 1)
        assert classify_swaps(d, greedy_match(d, 1, L2)) == SwapCounts(0, 1, 0)

    def test_same_outcome_pair_is_neutral(self):
        # y1 = y2 means a swap cannot change any mistake count
        d = Dataset([[0.0], [0.0]], [1.0, 1.0], [0.0, 1.0])
        assert classify_swaps(d, greedy_match(d, 1, L2)) == SwapCounts(0, 0, 1)

    def test_counts_sum_to_L(self):
        d = paired_binary_dataset(3, 2, 4)
        counts = classify_swaps(d, greedy_match(d, 9, L2))
        assert counts == SwapCounts(3, 2, 4)

    def test_non_binary_rejected(self):
        d = Dataset([[0.0], [0.0]], [0.5, 1.0], [0.0, 1.0])
        with pytest.raises(NonBinaryData):
            classify_swaps(d, greedy_match(d, 1, L2))

    def test_only_matched_records_must_be_binary(self):
        # the third pair, taken last, holds the one non-binary record
        d = Dataset([0.0, 0.0, 1.0, 1.0, 5.0, 5.5], [0, 1, 0, 1, 0.5, 1], [0, 1, 1, 0, 0, 1])
        full = greedy_match(d, 3, L2)
        assert not d.is_binary() and full.pairs[2].tolist() == [4, 5]
        assert classify_swaps(d, full.prefix(2)) == SwapCounts(1, 1, 0)
        with pytest.raises(NonBinaryData):
            classify_swaps(d, full)
        cfg = TestConfig(L=2, K=20, alpha=0.05, loss=LossSpec.squared_error(), master_seed=3)
        assert expert_test_with_matching(d, full.prefix(2), cfg).binary_swap_counts == SwapCounts(1, 1, 0)
        cfg = replace(cfg, L=3)
        assert expert_test_with_matching(d, full, cfg).binary_swap_counts is None


class TestTieCoins:
    def cfg(self, loss, seed):
        return TestConfig(L=40, K=300, alpha=0.05, loss=loss, master_seed=seed)

    def test_no_tie_stream_without_ties(self, monkeypatch):
        def fail(seed):
            raise AssertionError("tie-break stream built for a test without ties")

        d = gen_validity_cube(120, 5)
        m = greedy_match(d, 40, L2)
        cfg = self.cfg(LossSpec.squared_error(), 13)
        monkeypatch.setattr(engine, "tie_break_stream", fail)
        r = expert_test_with_matching(d, m, cfg)
        assert r.tau == whole_mask_tau(d, m, cfg)
        assert 0.0 < r.tau < 1.0

    def test_one_tie_stream_with_ties(self, monkeypatch):
        built = []

        def recorded(seed):
            built.append(seed)
            return tie_break_stream(seed)

        d = paired_binary_dataset(3, 3, 10)
        m = greedy_match(d, 16, L2)
        cfg = replace(self.cfg(LossSpec.zero_one(), 21), L=16)
        monkeypatch.setattr(engine, "tie_break_stream", recorded)
        r = expert_test_with_matching(d, m, cfg)
        assert built == [21]
        assert r.tau == whole_mask_tau(d, m, cfg)


class TestExactBinaryP:
    def test_no_loss_changing_pairs_is_half(self):
        assert exact_binary_p(0, 0) == 0.5

    def test_single_increase_pair(self):
        # two equally likely resamples: a tie (contributes 1/4) or worse (0)
        assert exact_binary_p(1, 0) == 0.25

    def test_matches_exhaustive_mask_enumeration(self):
        def oracle(a, b):
            total = 0.0
            for mask in range(2 ** (a + b)):
                x = (mask & ((1 << a) - 1)).bit_count()
                y = (mask >> a).bit_count()
                if x < y:
                    total += 1.0
                elif x == y:
                    total += 0.5
            return total / 2 ** (a + b)

        for a in range(7):
            for b in range(7):
                assert exact_binary_p(a, b) == oracle(a, b), (a, b)

    def test_symmetry(self):
        # swapping roles mirrors the comparison around 1/2
        for a, b in [(3, 5), (0, 4), (6, 1)]:
            assert exact_binary_p(a, b) + exact_binary_p(b, a) == pytest.approx(1.0)

    def test_large_counts_match_binomial(self):
        # X + (b - Y) ~ Binomial(a + b, 1/2), and tau compares it with b
        for a, b in [(31, 30), (30, 31), (600, 400), (400, 600)]:
            z = binom(a + b, 0.5)
            want = z.cdf(b - 1) + z.pmf(b) / 2
            assert exact_binary_p(a, b) == pytest.approx(want, rel=1e-9), (a, b)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            exact_binary_p(-1, 0)


class TestConfigValidation:
    def test_bounds(self):
        loss = LossSpec.zero_one()
        with pytest.raises(ValueError):
            TestConfig(L=0, K=1, alpha=0.05, loss=loss, master_seed=0)
        with pytest.raises(ValueError):
            TestConfig(L=1, K=0, alpha=0.05, loss=loss, master_seed=0)
        with pytest.raises(ValueError):
            TestConfig(L=1, K=1, alpha=1.0, loss=loss, master_seed=0)


class TestExpertTest:
    def cfg(self, **kw):
        base = dict(L=10, K=50, alpha=0.05, loss=LossSpec.zero_one(), master_seed=7)
        base.update(kw)
        return TestConfig(**base)

    def test_deterministic(self):
        d = gen_expertise_pairs(ExpertiseConfig(n=100, delta=0.2, seed=5))
        assert expert_test(d, self.cfg(), L2) == expert_test(d, self.cfg(), L2)

    def test_tau_granularity_and_effective_p(self):
        d = gen_expertise_pairs(ExpertiseConfig(n=100, delta=0.2, seed=5))
        r = expert_test(d, self.cfg(K=37), L2)
        assert r.tau * 37 == pytest.approx(round(r.tau * 37), abs=1e-9)
        assert 0 <= round(r.tau * 37) <= 37
        assert r.effective_p == r.tau + 1.0 / 38
        assert r.rejected == (r.tau <= 0.05)

    def test_perfect_expert_rejects(self):
        # delta = 1/2: observed loss is minimal and any executed swap on any
        # pair strictly increases it
        d = gen_expertise_pairs(ExpertiseConfig(n=200, delta=0.5, seed=3))
        r = expert_test(d, self.cfg(L=50, K=1000), L2)
        assert r.tau <= 0.001
        assert r.rejected
        assert r.observed_loss == 0.0
        assert r.binary_swap_counts == SwapCounts(50, 0, 0)

    def test_propagates_too_many_pairs(self):
        d = gen_expertise_pairs(ExpertiseConfig(n=20, delta=0.1, seed=1))
        with pytest.raises(TooManyPairs):
            expert_test(d, self.cfg(L=11), L2)

    def test_propagates_incompatible_loss(self):
        d = gen_validity_cube(40, 2)
        with pytest.raises(IncompatibleLoss):
            expert_test(d, self.cfg(), L2)

    def test_swap_counts_present_for_binary_data_any_loss(self):
        d = paired_binary_dataset(4, 2, 4)
        for loss in (LossSpec.zero_one(), LossSpec.squared_error(), LossSpec.weighted_binary(1, 5)):
            r = expert_test(d, self.cfg(loss=loss), L2)
            assert r.binary_swap_counts == SwapCounts(4, 2, 4)

    def test_swap_counts_absent_for_continuous_data(self):
        d = gen_validity_cube(60, 4)
        r = expert_test(d, self.cfg(loss=LossSpec.squared_error()), L2)
        assert r.binary_swap_counts is None
        assert r.mismatch_count == 10

    def test_matches_literal_composition(self):
        # the vectorized engine must be bit-identical to running
        # resample_once -> dataset_loss -> tau_statistic by hand, with
        # squared errors scored in exact arithmetic
        d = gen_expertise_pairs(ExpertiseConfig(n=80, delta=0.1, seed=12))
        dcont = gen_validity_cube(80, 12)
        cases = [
            (d, LossSpec.zero_one()),
            (d, LossSpec.weighted_binary(0.3, 1.7)),
            (d, LossSpec.squared_error()),
            (dcont, LossSpec.squared_error()),
        ]
        for data, loss in cases:
            cfg = self.cfg(L=20, K=151, loss=loss, master_seed=99)
            m = greedy_match(data, cfg.L, L2)
            score = exact_squared_loss if loss == LossSpec.squared_error() else lambda d: dataset_loss(d, loss)
            observed = score(data)
            resampled = [score(resample_once(data, m, swap_stream(cfg.master_seed, k))) for k in range(cfg.K)]
            literal = tau_statistic(observed, resampled, tie_break_stream(cfg.master_seed))
            assert expert_test(data, cfg, L2).tau == literal, loss.describe()

    @pytest.mark.parametrize("K", [1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize(
        "data, loss",
        [
            ("pairs", LossSpec.zero_one()),
            ("pairs", LossSpec.weighted_binary(0.3, 1.7)),
            ("pairs", LossSpec.weighted_binary(0, 0)),
            ("pairs", LossSpec.squared_error()),
            ("cube", LossSpec.squared_error()),
            ("tenths", LossSpec.squared_error()),
            ("audit", LossSpec.zero_one()),
            ("audit", LossSpec.squared_error()),
            ("integers", LossSpec.squared_error()),
            ("decimals", LossSpec.squared_error()),
            # a unit of 0.8, whose float multiples do not all sum exactly
            ("pairs", LossSpec.weighted_binary(0.3, 0.5)),
            ("binary-matched", LossSpec.squared_error()),
            ("huge-integers", LossSpec.squared_error()),
        ],
    )
    def test_blocks_match_whole_mask(self, data, loss, K):
        # comparing block by block must count exactly what one exact
        # comparison of the whole stacked mask counts: on the matrix product
        # of the signs that binary matched records take and of the float
        # deltas of every other test, each row within its rounding margin
        # summed exactly, for the blocks the first test draws, and on the
        # popcounts of packed binary rows and the unpacked float rows of the
        # kept blocks that a second test, at an L that is not a multiple of
        # 8, reads (tenths at K = 131 and seed 8128 reads a row at L = 37
        # whose float sum in one fixed order took the wrong sign)
        n, L = (4000, 1000) if data == "audit" else (120, 40)
        d = named_dataset(data, n, 12)
        m = greedy_match(d, L, L2)
        binary = data in ("pairs", "audit", "binary-matched")
        assert engine._matched_binary(d, m) == binary
        if data == "huge-integers":
            # the squared-error deltas 2 (y_i - y_j)(y_hat_i - y_hat_j) sum past
            # the integers a float holds exactly, so rows take the margin
            y, y_hat = d.y[m.pairs], d.y_hat[m.pairs]
            assert np.abs(2.0 * (y[:, 0] - y[:, 1]) * (y_hat[:, 0] - y_hat[:, 1])).sum() > 2.0**53
        for seed in (0, 2**64 - 1, 8128):
            engine._swap_mask.cache_clear()
            for l in (L, L - 3):
                cfg = self.cfg(L=l, K=K, loss=loss, master_seed=seed)
                r = expert_test_with_matching(d, m, cfg)
                tau = whole_mask_tau(d, m.prefix(l), cfg)
                assert (r.tau, r.effective_p) == (tau, tau + 1.0 / (K + 1))
                assert r.binary_swap_counts == (classify_swaps(d, m.prefix(l)) if binary else None)
            kept_mask(seed, K, L)

    @pytest.mark.parametrize(
        "data, loss",
        [("audit", LossSpec.zero_one()), ("cube", LossSpec.squared_error())],
        ids=["zero-one", "squared"],
    )
    def test_working_memory_bounded_by_blocks(self, data, loss):
        # a whole K x L float mask * delta would take 160 MB here
        d = named_dataset(data, 4000, 3)
        cfg = self.cfg(L=2000, K=10_000, loss=loss)
        m = greedy_match(d, cfg.L, L2)
        tracemalloc.start()
        try:
            expert_test_with_matching(d, m, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_with_matching_requires_matching_length(self):
        d = gen_expertise_pairs(ExpertiseConfig(n=40, delta=0.1, seed=0))
        m = greedy_match(d, 5, L2)
        with pytest.raises(ValueError, match="matching has 5 pairs, config wants L=6"):
            expert_test_with_matching(d, m, self.cfg(L=6))

    @pytest.mark.parametrize("verdict_only", [False, True], ids=["full", "verdict"])
    @pytest.mark.parametrize(
        "data, loss",
        [("pairs", LossSpec.zero_one()), ("decimals", LossSpec.squared_error())],
        ids=["zero-one", "squared-decimals"],
    )
    def test_longer_matching_equals_its_prefix(self, data, loss, verdict_only):
        # a test reads the first L pairs of the matching it is given, at any
        # length, and the first L columns of the mask drawn at that length
        d = named_dataset(data, 120, 5)
        full = greedy_match(d, 40, L2)
        for seed, L, alpha in [(3, 1, 0.5), (3, 7, 0.05), (11, 25, 0.5), (11, 39, 0.05), (12, 40, 0.3)]:
            cfg = self.cfg(L=L, K=2 * B + 3, alpha=alpha, loss=loss, master_seed=seed)
            engine._swap_mask.cache_clear()
            r = expert_test_with_matching(d, full, cfg, verdict_only=verdict_only)
            kept_mask(seed, cfg.K, 40)
            engine._swap_mask.cache_clear()
            assert r == expert_test_with_matching(d, full.prefix(L), cfg, verdict_only=verdict_only)

    @pytest.mark.parametrize(
        "L_values", [[5, 10, 25, 40], [40, 25, 10, 5], [25, 5, 40, 10, 25]],
        ids=["ascending", "descending", "shuffled"],
    )
    def test_sweep_over_full_matching_builds_each_row_once(self, monkeypatch, L_values):
        # K spans two full 64-row blocks and part of a third
        d = named_dataset("pairs", 120, 6)
        full = greedy_match(d, max(L_values), L2)
        engine._swap_mask.cache_clear()
        built = record_swap_streams(monkeypatch)
        cfgs = [self.cfg(L=L, K=130, master_seed=19) for L in L_values]
        results = [expert_test_with_matching(d, full, cfg) for cfg in cfgs]
        assert len(set(built)) == len(built) == 130
        for cfg, r in zip(cfgs, results):
            # a standalone test draws its own mask, not the sweep's
            engine._swap_mask.cache_clear()
            assert r == expert_test(d, cfg, L2)

    def test_prefix_of_larger_matching_is_bit_identical(self):
        # resample streams draw one uniform per pair in order, so a smaller L
        # consumes a prefix of each stream and sweeping L over one matching
        # reproduces standalone runs exactly
        d = gen_validity_cube(120, 31)
        full = greedy_match(d, 40, L2)
        for L in (5, 17, 40):
            cfg = self.cfg(L=L, K=29, loss=LossSpec.squared_error(), master_seed=61)
            assert expert_test_with_matching(d, full.prefix(L), cfg) == expert_test(d, cfg, L2)

    def test_loss_class_robustness(self):
        # identical seeds: the tau trajectory only depends on the swap
        # classification, so any strictly positive cost pair agrees exactly
        d = gen_expertise_pairs(ExpertiseConfig(n=300, delta=0.15, seed=9))
        losses = [
            LossSpec.zero_one(),
            LossSpec.weighted_binary(1, 5),
            LossSpec.weighted_binary(5, 1),
            LossSpec.weighted_binary(1, 1),
            LossSpec.weighted_binary(0.3, 0.5),
        ]
        results = [expert_test(d, self.cfg(L=75, K=200, loss=lo, master_seed=777), L2) for lo in losses]
        assert len({r.tau for r in results}) == 1
        assert len({r.binary_swap_counts for r in results}) == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_costs_near_float_max_score_like_zero_one(self):
        # two such costs add to inf, so a pair with two mistakes of one kind
        # has a swap delta of inf - inf, though its swap changes nothing
        d = audit_like(400, 12)
        m = greedy_match(d, 150, L2)
        want = expert_test_with_matching(d, m, self.cfg(L=150, K=200, master_seed=777)).tau
        for loss in (LossSpec.weighted_binary(1e308, 1e308), LossSpec.weighted_binary(1e308, 1)):
            cfg = self.cfg(L=150, K=200, loss=loss, master_seed=777)
            # the oracle's sums overflow as they will; the engine's must not warn
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tau = expert_test_with_matching(d, m, cfg).tau
            assert tau == whole_mask_tau(d, m, cfg) == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("equal", [False, True], ids=["independent", "swaps-only"])
    def test_squared_errors_that_overflow_raise(self, equal):
        # independent: (y - y_hat)**2 overflows in the observed loss itself;
        # swaps-only: y_hat = y, so the observed loss is 0 and only the
        # swapped squared errors overflow
        rng = np.random.default_rng(0)
        y, y_hat = rng.normal(0.0, 1e160, (2, 200))
        d = Dataset(rng.random((200, 2)), y, y if equal else y_hat)
        cfg = self.cfg(L=50, K=100, loss=LossSpec.squared_error())
        with pytest.raises(LossOverflow, match="overflow float64"):
            expert_test(d, cfg, L2)
        assert issubclass(LossOverflow, ValueError)

    @pytest.mark.filterwarnings("error")
    def test_large_finite_squared_errors_give_a_finite_tau(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.random((200, 2)), *rng.normal(0.0, 1e150, (2, 200)))
        cfg = self.cfg(L=50, K=100, loss=LossSpec.squared_error())
        m = greedy_match(d, 50, L2)
        r = expert_test_with_matching(d, m, cfg)
        assert r.tau == whole_mask_tau(d, m, cfg) and 0.0 < r.tau < 1.0
        assert np.isfinite(r.observed_loss)

    def test_mean_tau_matches_analytic_value(self):
        for trial, (a, b) in enumerate([(3, 1), (0, 2), (4, 4)]):
            d = paired_binary_dataset(a, b, neutral=2)
            L = d.n // 2
            expected = exact_binary_p(a, b)
            taus = [
                expert_test(
                    d, self.cfg(L=L, K=40, master_seed=derive_seed(55, trial, s)), L2
                ).tau
                for s in range(300)
            ]
            taus = np.asarray(taus)
            se = taus.std(ddof=1) / np.sqrt(taus.size)
            assert abs(taus.mean() - expected) <= 3 * se + 1e-12, (a, b)
