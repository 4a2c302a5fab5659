import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from _oracles import (
    record_swap_streams,
    resample_once,
    stacked_swap_mask,
    tau_statistic,
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
    squared-loss deltas sum exactly in any order. On ``tenths`` the deltas
    often cancel in exact arithmetic, so the sign of a resample's float sum
    can depend on its summation order; ``decimals`` has one-decimal values
    like lab results.
    """
    return {
        "pairs": lambda: gen_expertise_pairs(ExpertiseConfig(n=n, delta=0.1, seed=seed)),
        "cube": lambda: gen_validity_cube(n, seed),
        "tenths": lambda: cube_with_outcomes(n, seed, [0.1, 0.2, 0.3]),
        "integers": lambda: cube_with_outcomes(n, seed, [0.0, 1.0, 2.0, 3.0, 7.0]),
        "decimals": lambda: cube_with_outcomes(n, seed, [4.7, 12.1, 13.5, 13.6, 0.9]),
        "audit": lambda: audit_like(n, seed),
    }[name]()


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


def swap_mask(seed, K, L):
    """Concatenate the engine's mask blocks, checking that each is full but the last."""
    blocks = list(engine._swap_mask_blocks(seed, K, L))
    assert [b.shape for b in blocks] == [(min(B, K - s), L) for s in range(0, K, B)]
    assert all(b.dtype == bool for b in blocks)
    return np.concatenate(blocks)


def no_draw(*args):
    raise AssertionError("swap streams drawn again")


# a numpy scalar in the seed-word hash would warn on overflow where arrays wrap
@pytest.mark.filterwarnings("error")
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
        mask = swap_mask(seed, K, L)
        assert np.array_equal(mask, stacked_swap_mask(seed, K, L))
        # a smaller L reads a prefix of every stream, here from the kept mask
        l = max(1, round(cut * L))
        assert np.array_equal(swap_mask(seed, K, l), stacked_swap_mask(seed, K, l))

    def test_too_many_resamples_rejected_before_allocating(self, monkeypatch):
        # swap stream k is keyed 2**32 + k, whose words are (k, 1) only for k < 2**32
        def fail(*args):
            raise AssertionError("seed words derived for an oversized K")

        monkeypatch.setattr(engine, "_swap_seed_words", fail)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="swap streams"):
                list(engine._swap_mask_blocks(5, 2**32, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_kept_mask_read_only_and_replaced(self, monkeypatch):
        monkeypatch.setattr(engine, "_kept_mask", None)
        swap_mask(11, B + 5, 20)
        kept = engine._kept_mask
        assert type(kept) is tuple and kept[:4] == (11, B + 5, 20, B + 5)
        ((rows, packed),) = kept[4]
        assert rows == B + 5
        assert packed.nbytes == -(-(B + 5) * 20 // 8)
        assert not packed.flags.writeable
        with pytest.raises(ValueError):
            packed[0] = 0
        # another (seed, K) replaces the kept mask; the masks stay right
        for seed, K in [(12, B + 5), (11, 3), (11, B + 5)]:
            assert np.array_equal(swap_mask(seed, K, 20), stacked_swap_mask(seed, K, 20))
            assert engine._kept_mask[:3] == (seed, K, 20)
        assert engine._kept_mask is not kept

    @pytest.mark.parametrize(
        "K, L",
        # the last K spans three packed groups, the last of them partial
        [(B - 1, 40), (B, 40), (B + 1, 40), (2 * B + 3, 40),
         (2 * engine._group_rows(300) + B + 1, 300)],
    )
    def test_smaller_L_reads_kept_mask(self, monkeypatch, K, L):
        # the unpacked prefix must be the streams' own first draws, group by
        # group, not just the columns the first draw handed out
        monkeypatch.setattr(engine, "_kept_mask", None)
        swap_mask(7, K, L)
        kept = engine._kept_mask
        monkeypatch.setattr(engine, "_swap_seed_words", no_draw)
        for l in (L, L - 1, 9, 1):
            assert np.array_equal(swap_mask(7, K, l), stacked_swap_mask(7, K, l))
        assert engine._kept_mask is kept

    def test_larger_L_or_other_stream_redraws(self, monkeypatch):
        monkeypatch.setattr(engine, "_kept_mask", None)
        # each call's (seed, K, L), then what is kept after it
        calls = [
            ((3, 70, 10), (3, 70, 10)),
            ((3, 70, 25), (3, 70, 25)),  # a larger L
            ((3, 70, 10), (3, 70, 25)),  # a hit keeps the larger draw
            ((4, 70, 10), (4, 70, 10)),  # another seed
            ((3, 70, 10), (3, 70, 10)),
            ((3, 71, 5), (3, 71, 5)),  # another K
            ((3, 70, 5), (3, 70, 5)),
        ]
        for (seed, K, L), kept in calls:
            assert np.array_equal(swap_mask(seed, K, L), stacked_swap_mask(seed, K, L))
            assert engine._kept_mask[:3] == kept

    def test_closed_draw_keeps_rows_it_yielded(self, monkeypatch):
        K = 2 * B + 3
        monkeypatch.setattr(engine, "_kept_mask", None)
        swap_mask(5, K, 20)
        kept = engine._kept_mask
        # closed after one block: that block's rows replace the kept mask
        blocks = engine._swap_mask_blocks(6, K, 30)
        next(blocks)
        assert engine._kept_mask is kept
        blocks.close()
        assert engine._kept_mask[:4] == (6, K, 30, B)
        assert np.array_equal(kept_rows(), stacked_swap_mask(6, B, 30))
        # a read that stops within the kept rows leaves them as they are
        kept = engine._kept_mask
        blocks = engine._swap_mask_blocks(6, K, 10)
        next(blocks)
        blocks.close()
        assert engine._kept_mask is kept
        # two draws interleaved block by block: each is kept when it ends
        a, b = engine._swap_mask_blocks(8, K, 20), engine._swap_mask_blocks(9, K, 20)
        got_a, got_b = [], []
        for block_a, block_b in zip(a, b):
            got_a.append(block_a)
            got_b.append(block_b)
            assert engine._kept_mask is kept
        assert engine._kept_mask[:4] == (8, K, 20, K)
        assert np.array_equal(np.concatenate(got_a), stacked_swap_mask(8, K, 20))
        assert next(b, None) is None and engine._kept_mask[:4] == (9, K, 20, K)
        assert np.array_equal(np.concatenate(got_b), stacked_swap_mask(9, K, 20))
        assert np.array_equal(kept_rows(), stacked_swap_mask(9, K, 20))
        assert np.array_equal(swap_mask(9, K, 7), stacked_swap_mask(9, K, 7))
        # two draws of one seed, interleaved and closed at different rows:
        # the one closed last is kept whole, a prefix of the same streams
        for n_a, n_b in [(1, 2), (2, 1), (3, 1)]:
            monkeypatch.setattr(engine, "_kept_mask", None)
            a, b = engine._swap_mask_blocks(10, K, 20), engine._swap_mask_blocks(10, K, 20)
            for i in range(max(n_a, n_b)):
                if i < n_a:
                    next(a)
                if i < n_b:
                    next(b)
            a.close()
            assert engine._kept_mask[:4] == (10, K, 20, min(K, n_a * B))
            b.close()
            assert engine._kept_mask[:4] == (10, K, 20, min(K, n_b * B))
            assert np.array_equal(kept_rows(), stacked_swap_mask(10, n_b * B, 20))

    @pytest.mark.parametrize(
        "K, L, stop",
        [(B + 1, 40, 1), (2 * B + 3, 40, 1), (2 * B + 3, 40, 2),
         (2 * engine._group_rows(300) + B + 1, 300, 3),
         (2 * engine._group_rows(300) + B + 1, 300, engine._group_rows(300) // B + 1)],
    )
    def test_read_after_stop_and_continuation_equal_streams(self, monkeypatch, K, L, stop):
        monkeypatch.setattr(engine, "_kept_mask", None)
        blocks = engine._swap_mask_blocks(4, K, L)
        for _ in range(stop):
            next(blocks)
        blocks.close()
        assert engine._kept_mask[:4] == (4, K, L, stop * B)
        built = record_swap_streams(monkeypatch)
        # the first call reads the kept rows and draws the rest at the kept L
        for l in (L - 1, L, 9, 1):
            assert np.array_equal(swap_mask(4, K, l), stacked_swap_mask(4, K, l))
        assert len(built) == K - stop * B
        assert engine._kept_mask[:4] == (4, K, L, K)
        assert np.array_equal(kept_rows(), stacked_swap_mask(4, K, L))


def kept_rows():
    """Every row of the kept mask, at the L it was drawn at."""
    _, _, L, rows, groups = engine._kept_mask
    assert sum(n for n, _ in groups) == rows
    return np.concatenate(
        [np.unpackbits(bits, count=n * L).view(bool).reshape(n, L) for n, bits in groups]
    )


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
        cfg = TestConfig(L=L, K=K, alpha=alpha, loss=loss, metric=L2, master_seed=seed)
        # the verdict draws, the full test reads what it kept and draws on
        engine._kept_mask = None
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
            engine._kept_mask = None
            assert expert_test_with_matching(d, m, at_tau, verdict_only=True) == replace(
                full, rejected=True
            )

    def test_stopped_test_draws_no_tie_coins(self, monkeypatch):
        def fail(seed):
            raise AssertionError("tie-break stream built for a stopped test")

        monkeypatch.setattr(engine, "tie_break_stream", fail)
        monkeypatch.setattr(engine, "_kept_mask", None)
        built = record_swap_streams(monkeypatch)
        d = gen_expertise_pairs(ExpertiseConfig(n=200, delta=0.0, seed=4))
        cfg = TestConfig(L=50, K=1000, alpha=0.05, loss=LossSpec.zero_one(), metric=L2, master_seed=9)
        r = expert_test_with_matching(d, greedy_match(d, 50, L2), cfg, verdict_only=True)
        assert (r.tau, r.effective_p, r.rejected) == (None, None, False)
        # stopped after whole blocks, whose rows are kept
        assert len(built) % B == 0 and len(built) < cfg.K
        assert engine._kept_mask[:4] == (9, cfg.K, 50, len(built))


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
        cfg = TestConfig(L=2, K=20, alpha=0.05, loss=LossSpec.squared_error(), metric=L2, master_seed=3)
        assert expert_test_with_matching(d, full.prefix(2), cfg).binary_swap_counts == SwapCounts(1, 1, 0)
        cfg = replace(cfg, L=3)
        assert expert_test_with_matching(d, full, cfg).binary_swap_counts is None


class TestTieCoins:
    def cfg(self, loss, seed):
        return TestConfig(L=40, K=300, alpha=0.05, loss=loss, metric=L2, master_seed=seed)

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
        loss, metric = LossSpec.zero_one(), L2
        with pytest.raises(ValueError):
            TestConfig(L=0, K=1, alpha=0.05, loss=loss, metric=metric, master_seed=0)
        with pytest.raises(ValueError):
            TestConfig(L=1, K=0, alpha=0.05, loss=loss, metric=metric, master_seed=0)
        with pytest.raises(ValueError):
            TestConfig(L=1, K=1, alpha=1.0, loss=loss, metric=metric, master_seed=0)


class TestExpertTest:
    def cfg(self, **kw):
        base = dict(L=10, K=50, alpha=0.05, loss=LossSpec.zero_one(), metric=L2, master_seed=7)
        base.update(kw)
        return TestConfig(**base)

    def test_deterministic(self):
        d = gen_expertise_pairs(ExpertiseConfig(n=100, delta=0.2, seed=5))
        assert expert_test(d, self.cfg()) == expert_test(d, self.cfg())

    def test_tau_granularity_and_effective_p(self):
        d = gen_expertise_pairs(ExpertiseConfig(n=100, delta=0.2, seed=5))
        r = expert_test(d, self.cfg(K=37))
        assert r.tau * 37 == pytest.approx(round(r.tau * 37), abs=1e-9)
        assert 0 <= round(r.tau * 37) <= 37
        assert r.effective_p == r.tau + 1.0 / 38
        assert r.rejected == (r.tau <= 0.05)

    def test_perfect_expert_rejects(self):
        # delta = 1/2: observed loss is minimal and any executed swap on any
        # pair strictly increases it
        d = gen_expertise_pairs(ExpertiseConfig(n=200, delta=0.5, seed=3))
        r = expert_test(d, self.cfg(L=50, K=1000))
        assert r.tau <= 0.001
        assert r.rejected
        assert r.observed_loss == 0.0
        assert r.binary_swap_counts == SwapCounts(50, 0, 0)

    def test_propagates_too_many_pairs(self):
        d = gen_expertise_pairs(ExpertiseConfig(n=20, delta=0.1, seed=1))
        with pytest.raises(TooManyPairs):
            expert_test(d, self.cfg(L=11))

    def test_propagates_incompatible_loss(self):
        d = gen_validity_cube(40, 2)
        with pytest.raises(IncompatibleLoss):
            expert_test(d, self.cfg())

    def test_swap_counts_present_for_binary_data_any_loss(self):
        d = paired_binary_dataset(4, 2, 4)
        for loss in (LossSpec.zero_one(), LossSpec.squared_error(), LossSpec.weighted_binary(1, 5)):
            r = expert_test(d, self.cfg(loss=loss))
            assert r.binary_swap_counts == SwapCounts(4, 2, 4)

    def test_swap_counts_absent_for_continuous_data(self):
        d = gen_validity_cube(60, 4)
        r = expert_test(d, self.cfg(loss=LossSpec.squared_error()))
        assert r.binary_swap_counts is None
        assert r.mismatch_count == 10

    def test_matches_literal_composition(self):
        # the vectorized engine must be bit-identical to running
        # resample_once -> dataset_loss -> tau_statistic by hand
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
            m = greedy_match(data, cfg.L, cfg.metric)
            observed = dataset_loss(data, loss)
            resampled = [
                dataset_loss(resample_once(data, m, swap_stream(cfg.master_seed, k)), loss)
                for k in range(cfg.K)
            ]
            literal = tau_statistic(observed, resampled, tie_break_stream(cfg.master_seed))
            assert expert_test(data, cfg).tau == literal, loss.describe()

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
        ],
    )
    def test_blocks_match_whole_mask(self, data, loss, K):
        # comparing block by block must count exactly what one comparison of
        # the whole stacked mask counts, on the matrix product that integer
        # deltas take and on the elementwise sums of the others
        n, L = (4000, 1000) if data == "audit" else (120, 40)
        d = named_dataset(data, n, 12)
        m = greedy_match(d, L, L2)
        for seed in (0, 2**64 - 1, 8128):
            cfg = self.cfg(L=L, K=K, loss=loss, master_seed=seed)
            r = expert_test_with_matching(d, m, cfg)
            tau = whole_mask_tau(d, m, cfg)
            assert (r.tau, r.effective_p) == (tau, tau + 1.0 / (K + 1))
            counts = classify_swaps(d, m) if data in ("pairs", "audit") else None
            assert r.binary_swap_counts == counts

    @pytest.mark.parametrize(
        "data, exact",
        [("audit", True), ("integers", True), ("decimals", False), ("tenths", False), ("cube", False)],
    )
    def test_matrix_product_only_for_exact_sums(self, data, exact):
        d = named_dataset(data, 200, 3)
        delta = engine._swap_deltas(d, greedy_match(d, 50, L2), LossSpec.squared_error())
        assert engine._sums_exact(delta) is exact

    def test_sums_exact_needs_integers_below_2_53(self):
        assert engine._sums_exact(np.array([-1, 0, 1] * 10, dtype=np.int64))
        assert engine._sums_exact(np.array([2.0**52, -(2.0**51), 1.0]))
        assert not engine._sums_exact(np.array([2.0**52, 2.0**52]))
        assert not engine._sums_exact(np.array([1.0, 0.5]))
        assert not engine._sums_exact(np.array([1.0, np.inf]))
        assert not engine._sums_exact(np.array([1.0, np.nan]))

    @pytest.mark.parametrize(
        "data, loss",
        [("audit", LossSpec.zero_one()), ("cube", LossSpec.squared_error())],
        ids=["zero-one", "squared"],
    )
    def test_working_memory_bounded_by_blocks(self, data, loss):
        # a whole K x L float mask * delta would take 160 MB here
        d = named_dataset(data, 4000, 3)
        cfg = self.cfg(L=2000, K=10_000, loss=loss)
        m = greedy_match(d, cfg.L, cfg.metric)
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
        with pytest.raises(ValueError):
            expert_test_with_matching(d, m, self.cfg(L=6))

    def test_prefix_of_larger_matching_is_bit_identical(self):
        # resample streams draw one uniform per pair in order, so a smaller L
        # consumes a prefix of each stream and sweeping L over one matching
        # reproduces standalone runs exactly
        d = gen_validity_cube(120, 31)
        full = greedy_match(d, 40, L2)
        for L in (5, 17, 40):
            cfg = self.cfg(L=L, K=29, loss=LossSpec.squared_error(), master_seed=61)
            assert expert_test_with_matching(d, full.prefix(L), cfg) == expert_test(d, cfg)

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
        results = [expert_test(d, self.cfg(L=75, K=200, loss=lo, master_seed=777)) for lo in losses]
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
            expert_test(d, cfg)
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
                    d, self.cfg(L=L, K=40, master_seed=derive_seed(55, trial, s))
                ).tau
                for s in range(300)
            ]
            taus = np.asarray(taus)
            se = taus.std(ddof=1) / np.sqrt(taus.size)
            assert abs(taus.mean() - expected) <= 3 * se + 1e-12, (a, b)
