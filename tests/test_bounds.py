import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from experttest.bounds import (
    DensityEvaluationFailure,
    KnownDensity,
    Smoothness,
    adjusted_threshold,
    epsilon_star,
    tv_coin_bound,
    type1_bound,
    validity_bound,
)
from experttest.core import Dataset, DistanceMetric
from experttest.matching import Matching, greedy_match
from experttest.synthgen import run_type1_curve

L2 = DistanceMetric.euclidean()


def matched_points(xs, L=None):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    n = len(xs)
    d = Dataset(xs, np.zeros(n), np.zeros(n))
    return d, greedy_match(d, L or n // 2, L2)


class TestEpsilonStar:
    def test_exact_pairs_give_zero(self):
        d, m = matched_points([1.0, 1.0, 4.0, 4.0])
        assert epsilon_star(d, m, Smoothness(10.0)) == 0.0

    def test_smoothness_constant_validated(self):
        _, pair = matched_points([0.0, 0.5], L=1)
        for c in (np.nan, -1.0):
            with pytest.raises(ValueError, match="smoothness constant"):
                Smoothness(c)
            with pytest.raises(ValueError, match="smoothness constant"):
                adjusted_threshold(0.05, c, pair, L=1, K=99)
        # an infinite constant admits every odds ratio: the trivial deviation
        # 1/2, except on identical pairs
        d, m = matched_points([0.0, 0.5], L=1)
        assert epsilon_star(d, m, Smoothness(np.inf)) == 0.5
        d, m = matched_points([1.0, 1.0, 4.0, 4.0])
        assert epsilon_star(d, m, Smoothness(np.inf)) == 0.0

    def test_huge_finite_constant_gives_trivial_bound(self):
        # (1 + C * t)**2 overflows float64 here: the bound is C = inf's, not an error
        d, m = matched_points([0.0, 0.5], L=1)
        for c in (1e155, 1e200, sys.float_info.max):
            assert epsilon_star(d, m, Smoothness(c)) == 0.5
        assert adjusted_threshold(0.05, 1e200, Matching([(0, 1)], [1.0]), 1, 99) == 0.0

    def test_smoothness_single_pair(self):
        # odds ratio interval endpoint r = (1 + 1 * 0.1)^2 = 1.21
        d, m = matched_points([0.0, 0.1], L=1)
        eps = epsilon_star(d, m, Smoothness(1.0))
        assert eps == pytest.approx(0.0475113122171945701, abs=1e-15)
        # the mirrored endpoint 1/r gives the same deviation
        r = 1.21
        assert abs(1 / (1 + r) - 0.5) == pytest.approx(abs(1 / (1 + 1 / r) - 0.5))

    def test_known_density_constant_in_x_gives_zero(self):
        rng = np.random.default_rng(0)
        x = rng.random((10, 2))
        d = Dataset(x, np.zeros(10), rng.random(10))
        m = greedy_match(d, 5, L2)
        src = KnownDensity(lambda _x, y_hat: float(np.exp(-y_hat * y_hat)))
        assert epsilon_star(d, m, src) == 0.0

    def test_known_density_hand_computed_pair(self):
        d = Dataset([[0.0], [1.0]], [0.0, 0.0], [0.2, 0.9])
        m = greedy_match(d, 1, L2)

        def gaussian(x, y_hat):
            return float(np.exp(-0.5 * (y_hat - x[0]) ** 2))

        r = (gaussian(np.array([0.0]), 0.2) * gaussian(np.array([1.0]), 0.9)) / (
            gaussian(np.array([0.0]), 0.9) * gaussian(np.array([1.0]), 0.2)
        )
        expected = abs(1 / (1 + r) - 0.5)
        assert epsilon_star(d, m, KnownDensity(gaussian)) == pytest.approx(expected)

    def test_density_failures(self):
        d, m = matched_points([0.0, 0.5], L=1)
        with pytest.raises(DensityEvaluationFailure):
            epsilon_star(d, m, KnownDensity(lambda x, y: 0.0))
        with pytest.raises(DensityEvaluationFailure):
            epsilon_star(d, m, KnownDensity(lambda x, y: float("nan")))

        def boom(x, y):
            raise RuntimeError("no density here")

        with pytest.raises(DensityEvaluationFailure):
            epsilon_star(d, m, KnownDensity(boom))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_distance_and_constant(self, seed):
        rng = np.random.default_rng(seed)
        t1, t2 = sorted(rng.random(2) * 3)
        c1, c2 = sorted(rng.random(2) * 5)
        m1 = Matching([(0, 1)], [t1])
        m2 = Matching([(0, 1)], [t2])
        d = Dataset([[0.0], [1.0]], [0, 0], [0, 0])
        assert epsilon_star(d, m1, Smoothness(c2)) <= epsilon_star(d, m2, Smoothness(c2))
        assert epsilon_star(d, m2, Smoothness(c1)) <= epsilon_star(d, m2, Smoothness(c2))


# high-precision references for the bound arithmetic
BOUND_CASES = [
    # (alpha, eps, L, K, theorem1, union, adjusted)
    (0.05, 0.0, 1, 1000, 0.050999000999000999, 0.050999000999000999, 0.049000999000999001),
    (0.05, 0.01, 10, 1000, 0.146616925990196509, 0.150999000999000999, 0.0),
    (0.05, 0.01, 1, 999, 0.061, 0.061, 0.039),
    (0.01, 0.002, 25, 499, 0.0608181992888868538, 0.062, 0.0),
    (0.10, 0.05, 5, 99, 0.3362190625, 0.36, 0.0),
    (0.05, 0.5, 1, 1, 1.0, 1.0, 0.0),
    (0.20, 0.001, 100, 200, 0.300182977264400411, 0.304975124378109453, 0.0998170227355995893),
    (0.05, 0.0475113, 5, 999, 0.26703051206832441, 0.2885565, 0.0),
    (0.30, 0.25, 3, 19, 0.928125, 1.0, 0.0),
    (0.05, 0.1, 50, 50, 1.0, 1.0, 0.0),
]


class TestType1Bound:
    def test_zero_eps_collapses_both(self):
        theorem1, union = type1_bound(0.05, 0.0, 7, 1000)
        assert theorem1 == union == pytest.approx(0.05 + 1 / 1001, abs=1e-15)

    def test_worked_example(self):
        theorem1, union = type1_bound(0.05, 0.01, 10, 10**12)
        assert theorem1 == pytest.approx(0.14561792499119551, abs=1e-9)
        assert union == pytest.approx(0.15, abs=1e-9)
        assert union >= theorem1

    def test_clipping(self):
        theorem1, union = type1_bound(0.05, 0.5, 1, 1)
        assert theorem1 <= 1.0 and union <= 1.0

    @pytest.mark.parametrize("alpha,eps,L,K,theorem1,union,adjusted", BOUND_CASES)
    def test_frozen_values(self, alpha, eps, L, K, theorem1, union, adjusted):
        got_t, got_u = type1_bound(alpha, eps, L, K)
        assert abs(got_t - theorem1) <= 1e-12
        assert abs(got_u - union) <= 1e-12

    @given(
        st.floats(0.001, 0.999),
        st.floats(0.0, 0.5),
        st.integers(1, 200),
        st.integers(1, 10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_union_dominates_theorem1(self, alpha, eps, L, K):
        theorem1, union = type1_bound(alpha, eps, L, K)
        assert union >= theorem1 - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            type1_bound(0.0, 0.1, 1, 1)
        with pytest.raises(ValueError):
            type1_bound(0.05, 0.6, 1, 1)


# high-precision references: threshold correction from (alpha, C, max pair
# distance, L, K)
ADJUSTED_CASES = [
    (0.05, 1.0, 0.0, 2, 999, 0.049),
    (0.05, 1.0, 0.1, 5, 999, 0.0),
    (0.05, 0.0, 0.7, 3, 99, 0.04),
    (0.20, 0.5, 0.01, 3, 199, 0.187537390627037886),
    (0.10, 2.0, 0.005, 10, 499, 0.0493491180492573628),
    (0.30, 0.25, 0.02, 50, 999, 0.181635260195533295),
    (0.05, 3.0, 0.001, 20, 9999, 0.0203674123180019983),
    (0.15, 1.5, 0.04, 8, 299, 0.0),
    (0.05, 1.0, 0.3, 1, 19, 0.0),
    (0.25, 0.1, 0.25, 12, 1999, 0.111028293756444959),
]


def single_pair_matching(dist):
    return Matching([(0, 1)], [dist])


class TestAdjustedThreshold:
    def test_exact_pairs(self):
        d, m = matched_points([1.0, 1.0, 2.0, 2.0])
        got = adjusted_threshold(0.05, 3.0, m, L=2, K=999)
        assert got == pytest.approx(0.049, abs=1e-15)

    def test_mismatched_pairs_clip_to_zero(self):
        d, m = matched_points([0.0, 0.1], L=1)
        assert adjusted_threshold(0.05, 1.0, m, L=5, K=999) == 0.0

    def test_zero_constant_degenerates(self):
        d, m = matched_points([0.0, 0.7], L=1)
        got = adjusted_threshold(0.05, 0.0, m, L=3, K=99)
        assert got == pytest.approx(0.05 - 1 / 100, abs=1e-15)

    @pytest.mark.parametrize("alpha,C,dist,L,K,expected", ADJUSTED_CASES)
    def test_frozen_values(self, alpha, C, dist, L, K, expected):
        got = adjusted_threshold(alpha, C, single_pair_matching(dist), L, K)
        assert abs(got - expected) <= 1e-12

    def test_agrees_with_validity_bundle(self):
        rng = np.random.default_rng(9)
        x = rng.random((20, 2))
        d = Dataset(x, np.zeros(20), np.zeros(20))
        m = greedy_match(d, 10, L2)
        bundle = validity_bound(d, m, Smoothness(1.3), alpha=0.07, K=150)
        assert bundle.adjusted_threshold == adjusted_threshold(0.07, 1.3, m, len(m), 150)


class TestTvCoinBound:
    def test_no_deviation_no_distance(self):
        assert tv_coin_bound([0.0, 0.0, 0.0]) == 0.0
        assert tv_coin_bound([]) == 0.0

    def test_worked_example(self):
        assert tv_coin_bound([0.1, 0.05, 0.02]) == pytest.approx(1 - 0.9**3)

    def test_single_coin(self):
        assert tv_coin_bound([0.25]) == 0.25

    def test_range_validated(self):
        with pytest.raises(ValueError):
            tv_coin_bound([0.7])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_dominates_exact_tv(self, seed):
        # exhaustively evaluate both joint coin distributions and check the
        # exact total variation never exceeds the bound
        rng = np.random.default_rng(seed)
        L = int(rng.integers(1, 9))
        p = rng.random(L)
        q = np.clip(p + rng.uniform(-0.5, 0.5, L), 0.0, 1.0)
        gaps = np.abs(p - q)
        tv = 0.0
        for bits in itertools.product((0, 1), repeat=L):
            pp = np.prod([pi if b else 1 - pi for pi, b in zip(p, bits)])
            qq = np.prod([qi if b else 1 - qi for qi, b in zip(q, bits)])
            tv += abs(pp - qq)
        tv /= 2
        assert tv <= tv_coin_bound(gaps) + 1e-12


def test_type1_rate_improves_with_sample_size():
    # with L fixed, pairs tighten as n grows and the empirical type-I rate
    # at alpha = .05 should not increase across n = 250, 500, 1000
    rates = [
        run_type1_curve(n=n, L_values=[50], K=50, alpha=0.05, trials=100, master_seed=0)[0].rate
        for n in (250, 500, 1000)
    ]
    assert all(a >= b for a, b in zip(rates, rates[1:])), rates


class TestValidityBundle:
    def test_invariants(self):
        rng = np.random.default_rng(4)
        x = rng.random((30, 2))
        d = Dataset(x, np.zeros(30), np.zeros(30))
        m = greedy_match(d, 10, L2)
        bound = validity_bound(d, m, Smoothness(2.0), alpha=0.05, K=100)
        assert 0.0 <= bound.epsilon_star <= 0.5
        assert bound.union_bound >= bound.theorem1_bound
        assert bound.adjusted_threshold <= 0.05
