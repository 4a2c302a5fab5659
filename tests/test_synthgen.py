import numpy as np
import pytest
from scipy import stats

from experttest.core import DistanceMetric, LossSpec, dataset_loss, derive_seed
from experttest.engine import TestConfig, expert_test
from experttest.matching import TooManyPairs, greedy_match
from experttest.synthgen import (
    DegenerateRegression,
    ExpertiseConfig,
    ToyExampleConfig,
    gen_expertise_pairs,
    gen_toy,
    gen_validity_cube,
    linear_rescale,
    mse_comparison,
    run_power_curve,
    run_power_vs_L,
    run_toy_study,
    run_type1_curve,
)

L2 = DistanceMetric.euclidean()


class TestGenToy:
    def test_deterministic(self):
        cfg = ToyExampleConfig(n=500, seed=11)
        assert gen_toy(cfg) == gen_toy(cfg)

    def test_feature_dimension_follows_flag(self):
        assert gen_toy(ToyExampleConfig(n=50, seed=0)).d == 1
        assert gen_toy(ToyExampleConfig(n=50, seed=0, include_u_in_features=True)).d == 2

    def test_private_signal_shared_between_variants(self):
        plain = gen_toy(ToyExampleConfig(n=100, seed=3))
        with_u = gen_toy(ToyExampleConfig(n=100, seed=3, include_u_in_features=True))
        assert np.array_equal(plain.x[:, 0], with_u.x[:, 0])
        assert np.array_equal(plain.y, with_u.y)
        assert np.array_equal(plain.y_hat, with_u.y_hat)

    def test_zero_mean_components(self):
        n = 100_000
        ds = gen_toy(ToyExampleConfig(n=n, seed=21, include_u_in_features=True))
        x, u = ds.x[:, 0], ds.x[:, 1]
        assert abs(x.mean()) < 3 * (4 / np.sqrt(12)) / np.sqrt(n)
        assert abs(u.mean()) < 3 * (2 / np.sqrt(12)) / np.sqrt(n)
        # y - x - u and y_hat - sign(x) - sign(u) recover the noise terms
        e1 = ds.y - x - u
        e2 = ds.y_hat - np.sign(x) - np.sign(u)
        assert abs(e1.mean()) < 3 / np.sqrt(n)
        assert abs(e2.mean()) < 3 / np.sqrt(n)

    def test_marginals_pass_ks(self):
        ds = gen_toy(ToyExampleConfig(n=10_000, seed=5, include_u_in_features=True))
        assert stats.kstest(ds.x[:, 0], "uniform", args=(-2, 4)).pvalue > 0.01
        assert stats.kstest(ds.x[:, 1], "uniform", args=(-1, 2)).pvalue > 0.01


class TestGenExpertisePairs:
    def test_structure(self):
        ds = gen_expertise_pairs(ExpertiseConfig(n=12, delta=0.3, seed=0))
        assert ds.x[:, 0].tolist() == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
        assert ds.y.tolist() == [0, 1] * 6

    def test_perfect_expert(self):
        ds = gen_expertise_pairs(ExpertiseConfig(n=400, delta=0.5, seed=7))
        assert dataset_loss(ds, LossSpec.zero_one()) == 0.0

    def test_random_expert_half_loss(self):
        ds = gen_expertise_pairs(ExpertiseConfig(n=10_000, delta=0.0, seed=13))
        assert dataset_loss(ds, LossSpec.zero_one()) == pytest.approx(0.5, abs=0.03)

    def test_pairings_always_exact(self):
        for seed, delta in [(0, 0.0), (1, 0.2), (2, 0.45)]:
            ds = gen_expertise_pairs(ExpertiseConfig(n=80, delta=delta, seed=seed))
            m = greedy_match(ds, 40, L2)
            assert m.mismatch_count == 0

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            ExpertiseConfig(n=11, delta=0.1, seed=0)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            ExpertiseConfig(n=10, delta=0.6, seed=0)


class TestGenValidityCube:
    def test_deterministic(self):
        assert gen_validity_cube(100, 9) == gen_validity_cube(100, 9)

    def test_dimension_and_outcome_variance(self):
        ds = gen_validity_cube(100_000, 17)
        assert ds.d == 3
        # Var(y) = 3 * (100/12) + 1 = 26
        assert ds.y.var() == pytest.approx(26.0, rel=0.05)

    def test_predictions_share_signal(self):
        ds = gen_validity_cube(50_000, 2)
        s = ds.x.sum(axis=1)
        assert (ds.y - s).var() == pytest.approx(1.0, rel=0.1)
        assert (ds.y_hat - s).var() == pytest.approx(1.0, rel=0.1)


class TestLinearRescale:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        beta, c, mse = linear_rescale(y, y)
        assert (beta, c, mse) == pytest.approx((1.0, 0.0, 0.0))

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=200)
        beta, c, mse = linear_rescale(y, y / 100)
        assert beta == pytest.approx(100.0)
        assert mse == pytest.approx(0.0, abs=1e-20)

    def test_constant_predictions_rejected(self):
        with pytest.raises(DegenerateRegression):
            linear_rescale(np.array([1.0, 2.0, 3.0]), np.array([5.0, 5.0, 5.0]))


class TestMseComparison:
    # population values: algorithm 4/3, expert 8/3, rescaled 8/3 - (3/2)^2 / 3
    TARGETS = (4 / 3, 8 / 3, 8 / 3 - 2.25 / 3)

    def test_close_to_analytic_targets(self):
        res = mse_comparison(n=1000, trials=100, seed=1)
        for summary, target in zip((res.algorithm, res.human, res.rescaled), self.TARGETS):
            sd = summary.two_sd / 2
            assert abs(summary.mean - target) <= 3 * sd / np.sqrt(res.trials) + 1e-12

    def test_deterministic(self):
        assert mse_comparison(200, 10, 4) == mse_comparison(200, 10, 4)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mse_comparison(5, 10, 0)
        with pytest.raises(ValueError):
            mse_comparison(100, 1, 0)


class TestRunners:
    def test_toy_study_deterministic_and_plausible(self):
        a = run_toy_study(n=300, trials=20, L=30, K=50, alpha=0.05, include_u=False, master_seed=8)
        b = run_toy_study(n=300, trials=20, L=30, K=50, alpha=0.05, include_u=False, master_seed=8)
        assert a == b
        assert 0.0 <= a.rejection_rate <= 1.0
        assert a.trials == 20

    def test_power_curve_null_row_near_alpha(self):
        cells = run_power_curve(
            [400], [0.0], lambda n: n // 8, K=100, alpha=0.05, trials=200, master_seed=55
        )
        sd = np.sqrt(0.05 * 0.95 / 200)
        assert cells[0].rate <= 0.05 + 3 * sd

    def test_power_increases_with_delta(self):
        cells = run_power_curve(
            [300], [0.05, 0.45], lambda n: n // 8, K=100, alpha=0.05, trials=60, master_seed=3
        )
        assert cells[1].rate > cells[0].rate

    def test_power_vs_L_deterministic_and_shaped(self):
        sweep = run_power_vs_L(
            n=100, delta=0.3, L_values=[10, 25], K=50, alpha=0.05, trials=15, master_seed=2
        )
        again = run_power_vs_L(
            n=100, delta=0.3, L_values=[10, 25], K=50, alpha=0.05, trials=15, master_seed=2
        )
        assert sweep == again
        assert [c.L for c in sweep] == [10, 25]
        assert all(c.trials == 15 for c in sweep)

    def test_power_L_rule_validated(self):
        with pytest.raises(ValueError):
            run_power_curve([100], [0.1], lambda n: n, K=10, alpha=0.05, trials=2, master_seed=0)

    def test_type1_curve_shapes(self):
        cells = run_type1_curve(n=120, L_values=[10, 60], K=20, alpha=0.05, trials=10, master_seed=6)
        assert [c.L for c in cells] == [10, 60]
        assert all(0.0 <= c.rate <= 1.0 for c in cells)

    def test_type1_L_validated(self):
        with pytest.raises(ValueError):
            run_type1_curve(n=100, L_values=[60], K=10, alpha=0.05, trials=2, master_seed=0)


    def test_oversized_L_raises_too_many_pairs(self):
        with pytest.raises(TooManyPairs):
            run_toy_study(
                n=20, trials=2, L=11, K=10, alpha=0.05, include_u=False, master_seed=0
            )
        with pytest.raises(TooManyPairs):
            run_power_curve(
                [20], [0.1], lambda n: n // 2 + 1, K=10, alpha=0.05, trials=2, master_seed=0
            )
        with pytest.raises(TooManyPairs):
            run_power_vs_L(
                n=20, delta=0.1, L_values=[5, 11], K=10, alpha=0.05, trials=2, master_seed=0
            )
        with pytest.raises(TooManyPairs):
            run_type1_curve(n=20, L_values=[11], K=10, alpha=0.05, trials=2, master_seed=0)

    def test_power_curve_needs_a_grid(self):
        with pytest.raises(ValueError, match="n value"):
            run_power_curve([], [0.1], lambda n: 5, K=10, alpha=0.05, trials=2, master_seed=0)
        with pytest.raises(ValueError, match="delta value"):
            run_power_curve([20], [], lambda n: 5, K=10, alpha=0.05, trials=2, master_seed=0)

    def test_zero_trials_rejected(self):
        # a study without trials has no rejection rate
        with pytest.raises(ValueError, match="trial"):
            run_toy_study(n=20, trials=0, L=5, K=10, alpha=0.05, include_u=False, master_seed=0)
        with pytest.raises(ValueError, match="trial"):
            run_power_curve([20], [0.1], lambda n: 5, K=10, alpha=0.05, trials=0, master_seed=0)
        with pytest.raises(ValueError, match="trial"):
            run_power_vs_L(n=20, delta=0.1, L_values=[5], K=10, alpha=0.05, trials=0, master_seed=0)
        with pytest.raises(ValueError, match="trial"):
            run_type1_curve(n=20, L_values=[5], K=10, alpha=0.05, trials=0, master_seed=0)

class TestRunnerSeedLayout:
    """Every runner trial equals a standalone ``expert_test`` on its documented seed paths.

    Trial t of a runner in seed domain D (and grid cell (i, j) for the power
    grid) draws its data under ``derive_seed(seed, D, 0, [i, j,] t)`` and
    tests under ``derive_seed(seed, D, 1, [i, j,] t)``. Domains: toy 0, power
    grid 2, power vs L 3, type-I curve 4.
    """

    SEED = 17
    ALPHA = 0.3

    def literal(self, ds, L, loss, *path):
        cfg = TestConfig(
            L=L, K=30, alpha=self.ALPHA, loss=loss, metric=L2,
            master_seed=derive_seed(self.SEED, *path),
        )
        return expert_test(ds, cfg)

    def test_toy_study(self):
        for include_u in (False, True):
            res = run_toy_study(
                n=40, trials=5, L=8, K=30, alpha=self.ALPHA, include_u=include_u,
                master_seed=self.SEED,
            )
            expected = [
                self.literal(
                    gen_toy(ToyExampleConfig(
                        n=40, seed=derive_seed(self.SEED, 0, 0, t), include_u_in_features=include_u
                    )),
                    8, LossSpec.squared_error(), 0, 1, t,
                )
                for t in range(5)
            ]
            assert res.taus == tuple(r.tau for r in expected)
            assert res.rejections == sum(r.rejected for r in expected)

    def test_power_curve(self):
        cells = run_power_curve(
            [20, 40], [0.0, 0.4], lambda n: n // 4, K=30, alpha=self.ALPHA, trials=4,
            master_seed=self.SEED,
        )
        expected = []
        for i, n in enumerate([20, 40]):
            for j, delta in enumerate([0.0, 0.4]):
                rejected = [
                    self.literal(
                        gen_expertise_pairs(ExpertiseConfig(
                            n=n, delta=delta, seed=derive_seed(self.SEED, 2, 0, i, j, t)
                        )),
                        n // 4, LossSpec.zero_one(), 2, 1, i, j, t,
                    ).rejected
                    for t in range(4)
                ]
                expected.append((n, delta, n // 4, 4, sum(rejected)))
        assert [(c.n, c.delta, c.L, c.trials, c.rejections) for c in cells] == expected

    # each list is also run descending, unsorted and with a repeated L: the
    # cells follow the caller's order whatever order the L values are tested in
    def orders(self, L_values):
        a, b, c = L_values
        return [[a, b, c], [c, b, a], [b, c, a], [b, a, b, c]]

    def test_power_vs_L(self):
        for L_values in self.orders([4, 10, 20]):
            cells = run_power_vs_L(
                n=40, delta=0.15, L_values=L_values, K=30, alpha=self.ALPHA, trials=6,
                master_seed=self.SEED,
            )
            rejections = [0] * len(L_values)
            for t in range(6):
                ds = gen_expertise_pairs(
                    ExpertiseConfig(n=40, delta=0.15, seed=derive_seed(self.SEED, 3, 0, t))
                )
                for k, L in enumerate(L_values):
                    rejections[k] += self.literal(ds, L, LossSpec.zero_one(), 3, 1, t).rejected
            assert [(c.L, c.trials, c.rejections) for c in cells] == [
                (L, 6, r) for L, r in zip(L_values, rejections)
            ]

    def test_type1_curve(self):
        for L_values in self.orders([3, 10, 20]):
            cells = run_type1_curve(
                n=40, L_values=L_values, K=30, alpha=self.ALPHA, trials=6, master_seed=self.SEED
            )
            rejections = [0] * len(L_values)
            for t in range(6):
                ds = gen_validity_cube(40, derive_seed(self.SEED, 4, 0, t))
                for k, L in enumerate(L_values):
                    rejections[k] += self.literal(ds, L, LossSpec.squared_error(), 4, 1, t).rejected
            assert [(c.L, c.trials, c.rejections) for c in cells] == [
                (L, 6, r) for L, r in zip(L_values, rejections)
            ]
