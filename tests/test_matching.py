import os
import signal
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest
from _oracles import InstanceTooLarge, brute_force_optimal_matching, dense_greedy_match
from hypothesis import example, given, settings
from hypothesis import strategies as st

from experttest.core import Dataset, DistanceMetric, derive_seed
from experttest.matching import Matching, TooManyPairs, greedy_match, pair_distance_summary
from experttest.synthgen import ExpertiseConfig, gen_expertise_pairs, gen_validity_cube

L2 = DistanceMetric.euclidean()


def clustered(rng, n, dim):
    """Three quarters of the records in a tight N(0, 1e-3) cluster, the rest N(0, 1)."""
    x = rng.normal(0.0, 1.0, (n, dim))
    x[: 3 * n // 4] *= 1e-3
    return x


@contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` inside the block once it has run ``seconds`` of wall time.

    A matcher that stops making progress then fails its test instead of
    hanging the suite. Without ``signal.setitimer`` (Windows) there is no limit.
    """
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def points(xs):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    n = len(xs)
    return Dataset(xs, np.zeros(n), np.zeros(n))


class TestGreedyMatch:
    def test_line_example(self):
        # hand enumeration over the three disjoint 2-matchings of these points
        d = points([0.0, 0.1, 1.0, 1.05])
        m = greedy_match(d, 2, L2)
        assert m.pairs.tolist() == [[2, 3], [0, 1]]
        assert m.distances.tolist() == pytest.approx([0.05, 0.1])
        assert m.mismatch_count == 2

    def test_duplicate_points_match_at_zero(self):
        d = points([3.0, 3.0, 9.0])
        m = greedy_match(d, 1, L2)
        assert m.pairs.tolist() == [[0, 1]]
        assert m.distances.tolist() == [0.0]
        assert m.mismatch_count == 0

    def test_too_many_pairs(self):
        d = points([0.0, 1.0, 2.0])
        with pytest.raises(TooManyPairs):
            greedy_match(d, 2, L2)

    def test_l_must_be_positive(self):
        with pytest.raises(ValueError):
            greedy_match(points([0.0, 1.0]), 0, L2)

    def test_ties_broken_by_lexicographic_index(self):
        d = points([5.0, 5.0, 5.0, 5.0])
        m = greedy_match(d, 2, L2)
        assert m.pairs.tolist() == [[0, 1], [2, 3]]

    def test_odd_record_left_unmatched(self):
        d = points([0.0, 0.4, 10.0, 10.3, 99.0])
        m = greedy_match(d, 2, L2)
        assert 4 not in m.pairs

    def test_discretized_features_pair_exactly(self):
        # many duplicated rows in a small discrete feature space: a large
        # matching is still made entirely of identical pairs
        rng = np.random.default_rng(2024)
        x = rng.integers(0, 2, size=(2600, 9)).astype(float)
        d = Dataset(x, rng.integers(0, 2, 2600).astype(float), rng.integers(0, 2, 2600).astype(float))
        m = greedy_match(d, 1000, L2)
        assert m.mismatch_count == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_disjoint_and_monotone(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        dim = int(rng.integers(1, 4))
        d = points(rng.random((n, dim)))
        L = int(rng.integers(1, n // 2 + 1))
        m = greedy_match(d, L, L2)
        flat = m.pairs.ravel().tolist()
        assert len(flat) == len(set(flat)) == 2 * L
        assert all(a <= b for a, b in zip(m.distances, m.distances[1:]))
        assert m.mismatch_count == np.count_nonzero(m.distances)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_prefix_equals_smaller_run(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        d = points(rng.random((n, 2)))
        big = greedy_match(d, n // 2, L2)
        L = int(rng.integers(1, n // 2 + 1))
        assert big.prefix(L) == greedy_match(d, L, L2)

    def test_equal_rows_need_no_kd_tree_module(self):
        # every pair of the expertise world is an equal-row pair, so no KD
        # round runs and scipy.spatial (about 30 MB resident) stays unloaded
        code = (
            "import sys\n"
            "from experttest.core import DistanceMetric\n"
            "from experttest.matching import greedy_match\n"
            "from experttest.synthgen import ExpertiseConfig, gen_expertise_pairs, gen_validity_cube\n"
            "metric = DistanceMetric.euclidean()\n"
            "greedy_match(gen_expertise_pairs(ExpertiseConfig(600, 0.2, 0)), 300, metric)\n"
            "assert 'scipy.spatial' not in sys.modules, 'loaded without a KD round'\n"
            "greedy_match(gen_validity_cube(600, 0), 150, metric)\n"
            "assert 'scipy.spatial' in sys.modules, 'KD round ran without the tree module'\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_weight_dimension_checked(self):
        metric = DistanceMetric.weighted_euclidean([1.0, 2.0])
        with pytest.raises(ValueError):
            greedy_match(points(np.zeros((6, 3))), 2, metric)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("weight", [np.nan, np.inf, 1e300])
    def test_non_finite_scaled_features_rejected(self, weight):
        # NaN and infinite weights already fail in the metric's constructor
        d = points(np.full((100, 2), 1e200))
        with pytest.raises(ValueError):
            greedy_match(d, 10, DistanceMetric.weighted_euclidean([weight, 1.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [10, 100])
    def test_overflowing_feature_span_rejected(self, n):
        # finite features whose pair distances square past float64's range
        # fail up front at any n, without an overflow warning
        x = np.random.default_rng(n).random((n, 3)) * 1e200
        with pytest.raises(ValueError, match="span"):
            greedy_match(points(x), n // 2, L2)

    @pytest.mark.filterwarnings("error")
    def test_wide_finite_span_still_matches(self):
        d = points(np.random.default_rng(4).random((100, 3)) * 1e150)
        assert greedy_match(d, 50, L2) == dense_greedy_match(d, 50, L2)

    @given(
        kind=st.sampled_from(
            [
                "uniform",
                "one_decimal",
                "lattice",
                "pooled",
                "tiny",
                "triples",
                "tiny_triples",
                "expertise",
                "zero_weights",
                "clustered",
            ]
        ),
        n=st.integers(2, 300),
        dim=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        depth=st.floats(0.0, 1.0),
    )
    @example(kind="pooled", n=300, dim=8, seed=0, depth=1.0)
    @example(kind="lattice", n=299, dim=2, seed=1, depth=1.0)
    @example(kind="uniform", n=300, dim=12, seed=2, depth=1.0)
    @example(kind="tiny", n=300, dim=1, seed=3, depth=1.0)
    @example(kind="triples", n=300, dim=3, seed=4, depth=1.0)
    @example(kind="tiny_triples", n=300, dim=2, seed=3, depth=1.0)
    # small inputs: the KD rounds run down to the last free pair
    @example(kind="uniform", n=2, dim=3, seed=8, depth=1.0)
    @example(kind="lattice", n=3, dim=1, seed=9, depth=1.0)
    @example(kind="one_decimal", n=64, dim=2, seed=10, depth=1.0)
    @example(kind="clustered", n=65, dim=3, seed=11, depth=1.0)
    @example(kind="tiny_triples", n=40, dim=2, seed=12, depth=1.0)
    # large enough that two or more KD rounds run
    @example(kind="one_decimal", n=1500, dim=4, seed=5, depth=1.0)
    @example(kind="uniform", n=1500, dim=9, seed=6, depth=0.6)
    @example(kind="clustered", n=1501, dim=3, seed=7, depth=0.9)
    @settings(max_examples=150, deadline=None)
    def test_equals_dense_greedy(self, kind, n, dim, seed, depth):
        # the KD rounds must give exactly the dense matcher's pairs, order and
        # float distances, on inputs full of ties, duplicates and zero radii
        rng = np.random.default_rng(seed)
        metric = L2
        if kind == "uniform":
            x = rng.random((n, dim))
        elif kind == "one_decimal":
            x = np.round(rng.normal(size=(n, dim)), 1)
        elif kind == "lattice":
            x = rng.integers(0, 4, (n, dim)).astype(float)
        elif kind == "pooled":
            # few distinct rows: most records have duplicates, so the first
            # radius is 0 and the lexicographic tie-break decides most pairs
            pool = rng.random((max(1, n // 8), dim))
            x = pool[rng.integers(0, len(pool), n)]
        elif kind == "tiny":
            # distinct coordinates whose differences can square to 0: distance
            # 0 no longer means equal rows
            x = rng.integers(0, 3, (n, dim)) * rng.choice([1e-170, 1e-162, 1e-150])
        elif kind in ("triples", "tiny_triples"):
            # groups of three equal rows among distinct rows: two members of a
            # group pair at distance 0 and the third stays free, so a nearest-
            # neighbour distance of 0 queried before that pair was taken is
            # stale; at tiny scales the KD rounds, not the sort, take those pairs
            x = rng.random((n, dim))
            groups = rng.permutation(n)[: 3 * (n // 4)].reshape(-1, 3)
            x[groups[:, 1]] = x[groups[:, 2]] = x[groups[:, 0]]
            if kind == "tiny_triples":
                x *= rng.choice([1e-170, 1e-162, 1e-150])
        elif kind == "clustered":
            # the first rounds empty the cluster, and the radius that did so is
            # far below the distances between the outer records
            x = clustered(rng, n, dim)
        elif kind == "expertise":
            n += n % 2
            x = gen_expertise_pairs(ExpertiseConfig(n, 0.0, seed)).x
        else:
            # negative coordinates times a zero weight give -0.0, equal to 0.0
            x = rng.integers(-1, 2, (n, dim)).astype(float)
            weights = rng.choice([0.0, 0.5, 1.0, 2.0], dim)
            weights[rng.integers(dim)] = 0.0
            metric = DistanceMetric.weighted_euclidean(weights)
        L = max(1, int(depth * (n // 2)))
        d = points(x)
        # the tiny kinds run rounds at radius 0, where a matcher that stops
        # re-querying its bounds would loop forever
        with time_limit(10) if kind in ("tiny", "tiny_triples") else nullcontext():
            got = greedy_match(d, L, metric)
        want = dense_greedy_match(d, L, metric)
        assert np.array_equal(got.pairs, want.pairs)
        assert np.array_equal(got.distances, want.distances)

    def test_each_round_at_least_doubles_the_radius(self, monkeypatch):
        # a round that ends short of L took every free pair within its radius,
        # so a later round at or below that radius could take nothing
        import scipy.spatial

        radii = []

        class RecordingTree(scipy.spatial.cKDTree):
            def query_pairs(self, r, *args, **kwargs):
                radii.append(r)
                return super().query_pairs(r, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", RecordingTree)
        rng = np.random.default_rng(3)
        for d, L in [
            (gen_validity_cube(60, 0), 30),
            (gen_validity_cube(4000, 0), 1000),
            (points(clustered(rng, 4000, 3)), 2000),
            (points(rng.random((4000, 9))), 2000),
        ]:
            radii.clear()
            greedy_match(d, L, L2)
            assert len(radii) >= 2
            assert all(b >= 2 * a for a, b in zip(radii, radii[1:])), radii

    def test_clustered_input_memory_bounded(self):
        # a radius rule fitted to the cluster's scale pulls millions of
        # candidate pairs from among the outer records (about 900 MiB)
        x = clustered(np.random.default_rng(2), 4000, 3)
        tracemalloc.start()
        try:
            m = greedy_match(points(x), 2000, L2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(m) == 2000
        assert peak < 64 << 20


class TestBruteForceOracle:
    def test_line_example(self):
        assert brute_force_optimal_matching(points([0.0, 0.1, 1.0, 1.05]), 2, L2) == pytest.approx(0.1)

    def test_single_pair_is_min_distance(self):
        rng = np.random.default_rng(8)
        x = rng.random((7, 2))
        d = points(x)
        expected = min(
            L2.distance(x[i], x[j]) for i in range(7) for j in range(i + 1, 7)
        )
        assert brute_force_optimal_matching(d, 1, L2) == pytest.approx(expected)

    def test_instance_cap(self):
        d = points(np.arange(15.0))
        with pytest.raises(InstanceTooLarge):
            brute_force_optimal_matching(d, 2, L2)

    def test_greedy_bounded_by_double_size_optimum(self):
        rng = np.random.default_rng(11)
        d = points(rng.random((8, 2)))
        greedy = greedy_match(d, 2, L2)
        assert max(greedy.distances) <= brute_force_optimal_matching(d, 4, L2) + 1e-12


class TestMatchingType:
    def test_rejects_overlapping_pairs(self):
        with pytest.raises(ValueError):
            Matching([(0, 1), (1, 2)], [0.0, 0.0])

    def test_rejects_decreasing_distances(self):
        with pytest.raises(ValueError):
            Matching([(0, 1), (2, 3)], [1.0, 0.5])

    @pytest.mark.parametrize(
        "pairs, distances",
        [([(0, 1)], [0.1, 0.2]), ([(0, 1, 2)], [0.1]), ([(-1, 2)], [0.1]), ([(0, 1)], [np.nan])],
    )
    def test_rejects_malformed_arrays(self, pairs, distances):
        with pytest.raises(ValueError):
            Matching(pairs, distances)

    def test_arrays_read_only_and_prefix_is_slice(self):
        m = Matching([(4, 5), (0, 2)], [0.0, 0.5])
        assert not m.pairs.flags.writeable and not m.distances.flags.writeable
        assert m.prefix(1) == Matching([(4, 5)], [0.0])
        assert m.prefix(1) != m and m.mismatch_count == 1 and m.max_distance == 0.5

    def test_mismatch_count_checked(self):
        # the count is derived from the distances, so no inconsistent count
        # can be supplied alongside them
        with pytest.raises(TypeError):
            Matching([(0, 1)], [0.5], 0)
        m = Matching([(0, 1), (2, 3), (4, 5)], [0.0, 0.0, 0.5])
        assert m.mismatch_count == 1
        assert m.prefix(2).mismatch_count == 0

    def test_empty_matching_allowed(self):
        m = Matching([], [])
        assert len(m) == 0 and m.max_distance == 0.0


class TestTrustedPrefix:
    """A prefix of a checked matching is built from views, without checking again."""

    @pytest.fixture
    def m(self):
        return greedy_match(gen_validity_cube(60, 3), 20, L2)

    def test_views_share_memory_and_are_read_only(self, m):
        head = m.prefix(7)
        assert np.shares_memory(head.pairs, m.pairs)
        assert np.shares_memory(head.distances, m.distances)
        assert not head.pairs.flags.writeable and not head.distances.flags.writeable
        assert head == Matching(m.pairs[:7], m.distances[:7])

    def test_post_init_not_called(self, m, monkeypatch):
        calls = []
        check = Matching.__post_init__

        def counted(self):
            calls.append(len(self.distances))
            check(self)

        monkeypatch.setattr(Matching, "__post_init__", counted)
        head = m.prefix(12).prefix(5)
        assert calls == [] and len(head) == 5
        Matching(head.pairs, head.distances)
        assert calls == [5]

    def test_empty_prefix(self, m):
        head = m.prefix(0)
        assert head.pairs.shape == (0, 2) and head.distances.shape == (0,)
        assert head.mismatch_count == 0 and head.max_distance == 0.0
        assert head == Matching([], [])

    def test_whole_prefix_equals_matching(self, m):
        assert m.prefix(len(m)) == m

    @pytest.mark.parametrize("L", [-1, 21])
    def test_out_of_range_rejected(self, m, L):
        with pytest.raises(ValueError, match="out of range"):
            m.prefix(L)


class TestPairDistanceSummary:
    def test_all_duplicates(self):
        d = points([1.0, 1.0, 2.0, 2.0])
        s = pair_distance_summary(greedy_match(d, 2, L2))
        assert s.maximum == 0.0 and s.zero_count == 2

    def test_line_example(self):
        s = pair_distance_summary(greedy_match(points([0.0, 0.1, 1.0, 1.05]), 2, L2))
        assert s.minimum == pytest.approx(0.05)
        assert s.maximum == pytest.approx(0.1)
        assert s.count == 2 and s.zero_count == 0

    def test_continuous_features_all_mismatched(self):
        rng = np.random.default_rng(1)
        d = points(rng.random((40, 3)))
        m = greedy_match(d, 20, L2)
        s = pair_distance_summary(m)
        assert s.maximum > 0 and s.zero_count == 0
        assert m.mismatch_count == 20

    def test_empty_matching_rejected(self):
        with pytest.raises(ValueError):
            pair_distance_summary(Matching([], []))


def test_max_distance_shrinks_as_n_grows():
    # matching quality improves with density: the median (over seeds) of the
    # greedy max pair distance at L = n/8 should not increase as n doubles
    for dim in (1, 2):
        medians = []
        for n in (64, 128, 256, 512):
            worst = []
            for s in range(21):
                rng = np.random.default_rng(derive_seed(1000 + dim, n, s))
                d = points(rng.random((n, dim)))
                worst.append(max(greedy_match(d, n // 8, L2).distances))
            medians.append(float(np.median(worst)))
        assert all(a >= b for a, b in zip(medians, medians[1:])), (dim, medians)
