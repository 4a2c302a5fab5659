import numpy as np
import pytest
from _oracles import pairwise_condensed
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from experttest.core import (
    Dataset,
    DistanceMetric,
    IncompatibleLoss,
    LossSpec,
    dataset_loss,
    derive_seed,
    stream,
)


def binary_dataset(y, y_hat):
    n = len(y)
    return Dataset(np.zeros((n, 1)), y, y_hat)


class TestDatasetLoss:
    def test_zero_one_perfect_predictions(self):
        d = binary_dataset([0, 1, 0, 1], [0, 1, 0, 1])
        assert dataset_loss(d, LossSpec.zero_one()) == 0.0

    def test_zero_one_counts_mismatches(self):
        d = binary_dataset([0, 1, 0, 1], [1, 0, 0, 1])
        assert dataset_loss(d, LossSpec.zero_one()) == 0.5

    def test_squared_error(self):
        d = Dataset([[0.0], [0.0]], [1.0, 3.0], [2.0, 3.0])
        assert dataset_loss(d, LossSpec.squared_error()) == 0.5

    def test_weighted_binary(self):
        # one false positive (record 0) and one false negative (record 1)
        d = binary_dataset([0, 1, 0, 1], [1, 0, 0, 1])
        loss = LossSpec.weighted_binary(fp_cost=2.0, fn_cost=3.0)
        assert dataset_loss(d, loss) == (2.0 + 3.0) / 4

    def test_binary_loss_rejects_continuous_values(self):
        d = Dataset([[0.0], [0.0]], [0.5, 1.0], [0.0, 1.0])
        with pytest.raises(IncompatibleLoss):
            dataset_loss(d, LossSpec.zero_one())
        with pytest.raises(IncompatibleLoss):
            dataset_loss(d, LossSpec.weighted_binary(1, 1))
        assert dataset_loss(d, LossSpec.squared_error()) == pytest.approx(0.125)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            LossSpec.weighted_binary(-1.0, 1.0)

    @pytest.mark.parametrize("cost", [np.nan, np.inf, -np.inf])
    def test_non_finite_costs_rejected(self, cost):
        # a NaN or infinite cost used to give a NaN or infinite observed loss
        with pytest.raises(ValueError, match="finite"):
            LossSpec.weighted_binary(cost, 1.0)
        with pytest.raises(ValueError, match="finite"):
            LossSpec.weighted_binary(1.0, cost)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        y = rng.normal(size=n)
        y_hat = rng.normal(size=n)
        yb = rng.integers(0, 2, n).astype(float)
        pb = rng.integers(0, 2, n).astype(float)
        x = rng.normal(size=(n, 2))
        perm = rng.permutation(n)
        for loss, (yy, pp) in [
            (LossSpec.squared_error(), (y, y_hat)),
            (LossSpec.zero_one(), (yb, pb)),
            (LossSpec.weighted_binary(0.3, 1.7), (yb, pb)),
        ]:
            a = dataset_loss(Dataset(x, yy, pp), loss)
            b = dataset_loss(Dataset(x[perm], yy[perm], pp[perm]), loss)
            assert a == b


class TestDataset:
    def test_rejects_missing_values(self):
        with pytest.raises(ValueError):
            Dataset([[0.0], [np.nan]], [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            Dataset([[0.0], [1.0]], [0.0, np.inf], [0.0, 1.0])

    def test_requires_two_records(self):
        with pytest.raises(ValueError):
            Dataset([[0.0]], [0.0], [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset([[0.0], [1.0]], [0.0, 1.0, 2.0], [0.0, 1.0])

    def test_one_dimensional_features_promoted(self):
        d = Dataset([0.0, 1.0, 2.0], [0, 0, 0], [0, 0, 0])
        assert d.d == 1 and d.n == 3

    def test_arrays_frozen(self):
        d = Dataset([[0.0], [1.0]], [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            d.y_hat[0] = 5.0

    def test_is_binary(self):
        assert binary_dataset([0, 1], [1, 0]).is_binary()
        assert not Dataset([[0.0], [0.0]], [0.0, 0.5], [0.0, 1.0]).is_binary()

    def test_binary_flags_equal_isin_rule(self):
        values = np.array([0.0, -0.0, 1.0, 0.5, 2.0, 1e308, -1.0, 1.0 + 2**-52])
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            # every other dataset draws from 0, -0 and 1 alone, so is binary throughout
            y, y_hat = values[rng.integers(0, 3 if seed % 2 else len(values), (2, n))]
            d = Dataset(np.zeros((n, 1)), y, y_hat)
            rule = np.isin(y, (0.0, 1.0)) & np.isin(y_hat, (0.0, 1.0))
            assert d.binary_records.tolist() == rule.tolist()
            assert d.is_binary() == bool(rule.all())
            assert not d.binary_records.flags.writeable


class TestDistanceMetric:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        a = rng.normal(size=d)
        b = rng.normal(size=d)
        w = rng.random(d)
        for metric in (DistanceMetric.euclidean(), DistanceMetric.weighted_euclidean(w)):
            assert metric.distance(a, a) == 0.0
            assert metric.distance(a, b) == metric.distance(b, a)
            assert metric.distance(a, b) >= 0.0

    def test_zero_weight_ablate_feature(self):
        metric = DistanceMetric.weighted_euclidean([1.0, 0.0])
        a = np.array([1.0, 100.0])
        b = np.array([4.0, -50.0])
        assert metric.distance(a, b) == pytest.approx(3.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            DistanceMetric.weighted_euclidean([1.0, -0.5])

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, weight):
        # a NaN weight used to yield NaN distances
        with pytest.raises(ValueError):
            DistanceMetric.weighted_euclidean([weight])

    def test_weight_dimension_checked(self):
        metric = DistanceMetric.weighted_euclidean([1.0, 1.0])
        with pytest.raises(ValueError):
            metric.distance(np.zeros(3), np.ones(3))

    def test_pairwise_matches_distance(self):
        # exact, also at d >= 8 where numpy's pairwise summation would differ
        rng = np.random.default_rng(3)
        for weights in ([0.5, 2.0, 1.0], [0.5, 2.0, 1.0, 0.0, 3.0, 1.5, 0.25, 1.0, 2.0, 0.75]):
            x = rng.normal(size=(6, len(weights)))
            metric = DistanceMetric.weighted_euclidean(weights)
            condensed = pairwise_condensed(metric, x)
            k = 0
            for i in range(6):
                for j in range(i + 1, 6):
                    assert condensed[k] == metric.distance(x[i], x[j])
                    k += 1

    @pytest.mark.parametrize("dim", [1, 8, 12, 32])
    def test_pairwise_equals_scipy_pdist(self, dim):
        x = np.random.default_rng(dim).normal(size=(120, dim))
        assert np.array_equal(pairwise_condensed(DistanceMetric.euclidean(), x), pdist(x))


class TestSeededRng:
    def test_equal_seed_equal_draws(self):
        a = stream(1234, 7).random(16)
        b = stream(1234, 7).random(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = stream(1234, 0).random(16)
        b = stream(1234, 1).random(16)
        assert not np.array_equal(a, b)

    def test_negative_master_seed_supported(self):
        a = stream(-9876, 0).random(4)
        b = stream(-9876, 0).random(4)
        assert np.array_equal(a, b)

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            stream(1, -1)

    def test_stream_paths_are_independent_coordinates(self):
        assert not np.array_equal(stream(5, 0).random(8), stream(5, 0, 0).random(8))

    def test_derive_seed_deterministic(self):
        assert derive_seed(99, 1, 2) == derive_seed(99, 1, 2)
        assert derive_seed(99, 1, 2) != derive_seed(99, 2, 1)
