import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from _oracles import pairwise_condensed
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

import experttest
from experttest import bounds, core, engine, matching, synthgen
from experttest.core import (
    Dataset,
    DistanceMetric,
    IncompatibleLoss,
    LossSpec,
    dataset_loss,
    derive_seed,
    stream,
)


# -0.0 is binary too, and equals 0.0
BINARY_VALUES = st.sampled_from([0.0, -0.0, 1.0])
COSTS = [0.0, 5e-324, 0.3, 1.0, 1e308]


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

    @pytest.mark.parametrize("variant, fp, fn", [("zero_one", 0.0, 0.0), ("squared_error", 2.0, 1.0)])
    def test_costs_belong_to_weighted_binary(self, variant, fp, fn):
        # zero-one and squared error would ignore their costs, so none but
        # (1, 1) is taken
        with pytest.raises(ValueError, match="weighted_binary"):
            LossSpec(variant, fp, fn)
        assert LossSpec(variant, 1.0, 1.0) == LossSpec(variant)

    @given(
        records=st.lists(st.tuples(BINARY_VALUES, BINARY_VALUES), min_size=2, max_size=80),
        fp=st.sampled_from(COSTS),
        fn=st.sampled_from(COSTS),
    )
    @settings(max_examples=200, deadline=None)
    def test_binary_losses_are_one_rule(self, records, fp, fn):
        # zero-one is weighted_binary(1, 1), bit for bit the mistake count
        # over n; a weighted loss is its exact mean rounded, save that a
        # cost of 0.3 is rounded in its product, the sum and the quotient
        d = binary_dataset(*zip(*records))
        n_fp = sum(y == 0 and y_hat == 1 for y, y_hat in records)
        n_fn = sum(y == 1 and y_hat == 0 for y, y_hat in records)
        # costs whose sum overflows must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zero_one = dataset_loss(d, LossSpec.zero_one())
            unit = dataset_loss(d, LossSpec.weighted_binary(1, 1))
            got = dataset_loss(d, LossSpec.weighted_binary(fp, fn))
        assert zero_one.hex() == unit.hex() == ((n_fp + n_fn) / d.n).hex()
        exact = (Fraction(fp) * n_fp + Fraction(fn) * n_fn) / d.n
        if got != float(exact):
            u = Fraction(1, 2**53)
            assert 0.3 in (fp, fn) and abs(Fraction(got) - exact) <= ((1 + u) ** 3 - 1) * exact

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
        with pytest.raises(AttributeError):
            d.y_hat = np.zeros(2)

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

    @pytest.mark.parametrize("weights", [(-1.0,), (math.inf,), ()], ids=["negative", "inf", "empty"])
    def test_weights_checked_whenever_given(self, weights):
        with pytest.raises(ValueError):
            DistanceMetric(weights=weights)

    def test_weights_alone_decide_the_metric(self):
        assert DistanceMetric.euclidean() == DistanceMetric()
        assert DistanceMetric.euclidean().describe() == "euclidean"
        assert DistanceMetric(weights=(4.0,)) == DistanceMetric.weighted_euclidean([4.0])
        assert DistanceMetric.weighted_euclidean([4, 0.5]).describe() == "weighted_euclidean(4,0.5)"

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


def test_package_exports_each_modules_public_names():
    modules = (core, matching, engine, bounds, synthgen)
    names = [name for module in modules for name in module.__all__]
    assert experttest.__all__ == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(experttest, name) is getattr(module, name), name
    star = {}
    exec("from experttest import *", star)
    del star["__builtins__"]
    assert star.keys() == set(names)
