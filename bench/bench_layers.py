"""Micro-benchmarks of single layers, with pytest-benchmark.

Run from the root of a source checkout::

    python -m pytest bench/bench_layers.py

The file name does not match ``test_*.py``, so a plain ``pytest`` run of the
test suite does not collect it. The inputs mirror the workloads of
``perfbench/``: a 4000-row CSV of recorded binary decisions (two integer
features, two lab values to one decimal place, with duplicate records), the
validity cube at n = 500, and one test at a ``power`` shape (n = 600,
L = 75, K = 1000, zero-one loss), at a ``validity`` shape (n = 500,
L = 250, K = 200, squared loss) and at an ``audit`` shape (the 4000-row
decisions, L = 1000, K = 1000, zero-one loss). Every engine call takes a
new seed, as every test of the ``power`` workload does, so none reads the
mask the one before kept; the seed-word hash is also timed alone, at
K = 1000. The ``power`` runner only needs each test's verdict, so the
``power``-shaped test is also timed with ``verdict_only``, which stops
comparing once the test can no longer reject, on the null world
(delta = 0, where most tests stop early) and at delta = 0.2. Two sweeps test one seed at every L of a workload, largest
first, as the ``validity`` runner (n = 500, L = 250 down to 25, K = 200,
squared loss) and an ``audit`` report (L = 1000, 500, 250, 125, K = 1000,
zero-one loss) do: the first L draws the mask and the others read the kept
one. Each sweep takes a new seed.

Two parts of each test's preamble are timed alone: ``Matching.prefix``
(L = 125 of the 250 greedy pairs of the validity cube, and 75 of 75 at the
``power`` shape) and the swap classification as the engine runs it, which
classifies only when every matched record is binary (the validity cube at
L = 250, which is not binary, and the audit records at L = 1000, which are).

Three more matcher inputs are there to catch a radius rule that wins on
the audit features and loses elsewhere: the validity cube at n = 32 000
(L = n/4), a tight cluster of 3000 records with 1000 spread around it
(3-D, L = 2000), and the uniform 9-dimensional cube at n = 4000 (L = n/2),
where a radius grows the candidate count fastest.
"""

from itertools import count

import numpy as np
import pytest

from experttest import engine
from experttest.cli import ColumnSpec, load_csv, normalize_features, write_csv
from experttest.core import Dataset, DistanceMetric, LossSpec
from experttest.engine import TestConfig, expert_test_with_matching
from experttest.matching import greedy_match
from experttest.synthgen import ExpertiseConfig, gen_expertise_pairs, gen_validity_cube

AUDIT_N = 4000
SPEC = ColumnSpec(("age", "visits", "hgb", "creatinine"), "outcome", "decision")
L2 = DistanceMetric.euclidean()


def audit_like(seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    n = AUDIT_N
    age = rng.integers(18, 91, n).astype(np.float64)
    visits = rng.poisson(3.0, n).astype(np.float64)
    hgb = np.round(rng.normal(13.5, 1.6, n), 1)
    creatinine = np.round(rng.lognormal(0.0, 0.25, n), 1)
    x = np.column_stack([age, visits, hgb, creatinine])
    risk = 0.04 * (age - 55) + 0.3 * (visits - 3) - 0.4 * (hgb - 13.5) + 1.5 * (creatinine - 1)
    private = rng.normal(0.0, 1.0, n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(risk + private)))).astype(np.float64)
    y_hat = (risk + private + rng.normal(0.0, 1.0, n) > 0).astype(np.float64)
    return Dataset(x, y, y_hat)


@pytest.fixture(scope="module")
def audit_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "audit.csv"
    write_csv(audit_like(), str(path), SPEC)
    return str(path)


def test_load_csv_audit(benchmark, audit_csv):
    d = benchmark(load_csv, audit_csv, SPEC)
    assert d == audit_like()


def test_greedy_match_audit_normalized(benchmark):
    d = normalize_features(audit_like())
    m = benchmark(greedy_match, d, 1000, L2)
    assert len(m) == 1000


def test_greedy_match_validity_cube(benchmark):
    d = gen_validity_cube(500, 0)
    m = benchmark(greedy_match, d, 250, L2)
    assert len(m) == 250


def clustered_3d() -> Dataset:
    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal(0.0, 1e-3, (3000, 3)), rng.normal(0.0, 1.0, (1000, 3))])
    return Dataset(x, np.zeros(len(x)), np.zeros(len(x)))


def uniform_9d() -> Dataset:
    x = np.random.default_rng(0).random((4000, 9))
    return Dataset(x, np.zeros(len(x)), np.zeros(len(x)))


@pytest.mark.parametrize(
    "make, L",
    [(lambda: gen_validity_cube(32_000, 0), 8000), (clustered_3d, 2000), (uniform_9d, 2000)],
    ids=["cube-32000", "clustered-3d", "uniform-9d"],
)
def test_greedy_match_counter_inputs(benchmark, make, L):
    d = make()
    m = benchmark(greedy_match, d, L, L2)
    assert len(m) == L


@pytest.mark.parametrize(
    "make, n_pairs, L",
    [
        (lambda: gen_validity_cube(500, 0), 250, 125),
        (lambda: gen_expertise_pairs(ExpertiseConfig(n=600, delta=0.2, seed=0)), 75, 75),
    ],
    ids=["validity", "power"],
)
def test_prefix(benchmark, make, n_pairs, L):
    full = greedy_match(make(), n_pairs, L2)
    assert len(benchmark(full.prefix, L)) == L


def swap_counts(d, m):
    """The engine's swap classification: counts when every matched record is binary, else None."""
    return engine.classify_swaps(d, m) if engine._matched_binary(d, m) else None


@pytest.mark.parametrize(
    "make, L, binary",
    [
        (lambda: gen_validity_cube(500, 0), 250, False),
        (lambda: normalize_features(audit_like()), 1000, True),
    ],
    ids=["validity", "audit"],
)
def test_classify_swaps(benchmark, make, L, binary):
    d = make()
    m = greedy_match(d, L, L2)
    counts = benchmark(swap_counts, d, m)
    assert (counts is not None) == binary


@pytest.mark.parametrize("K, L", [(1000, 75), (200, 250)])
def test_swap_mask_blocks(benchmark, K, L):
    seeds = count()

    def draw():
        return sum(block.shape[0] for block in engine._swap_mask_blocks(next(seeds), K, L))

    assert benchmark(draw) == K


def test_swap_seed_words_uncached(benchmark):
    seeds = count()
    words = benchmark(lambda: engine._swap_seed_words(next(seeds), 1000))
    assert words.shape == (1000, 4)


@pytest.mark.parametrize(
    "make, L, K, loss",
    [
        (lambda: gen_expertise_pairs(ExpertiseConfig(n=600, delta=0.2, seed=0)), 75, 1000, LossSpec.zero_one()),
        (lambda: gen_validity_cube(500, 0), 250, 200, LossSpec.squared_error()),
        (lambda: normalize_features(audit_like()), 1000, 1000, LossSpec.zero_one()),
    ],
    ids=["power", "validity", "audit"],
)
def test_expert_test_with_matching(benchmark, make, L, K, loss):
    d = make()
    m = greedy_match(d, L, L2)
    seeds = count()

    def run():
        cfg = TestConfig(L=L, K=K, alpha=0.05, loss=loss, metric=L2, master_seed=next(seeds))
        return expert_test_with_matching(d, m, cfg)

    assert benchmark(run).K == K


@pytest.mark.parametrize("delta", [0.0, 0.2], ids=["delta0", "delta02"])
def test_expert_test_verdict(benchmark, delta):
    d = gen_expertise_pairs(ExpertiseConfig(n=600, delta=delta, seed=0))
    m = greedy_match(d, 75, L2)
    seeds = count()

    def run():
        cfg = TestConfig(L=75, K=1000, alpha=0.05, loss=LossSpec.zero_one(), metric=L2,
                         master_seed=next(seeds))
        return expert_test_with_matching(d, m, cfg, verdict_only=True)

    assert benchmark(run).K == 1000


@pytest.mark.parametrize(
    "make, L_values, K, loss",
    [
        (lambda: gen_validity_cube(500, 0), range(250, 0, -25), 200, LossSpec.squared_error()),
        (lambda: normalize_features(audit_like()), (1000, 500, 250, 125), 1000, LossSpec.zero_one()),
    ],
    ids=["validity", "audit"],
)
def test_expert_test_sweep(benchmark, make, L_values, K, loss):
    d = make()
    full = greedy_match(d, max(L_values), L2)
    seeds = count()

    def sweep():
        seed = next(seeds)
        return [
            expert_test_with_matching(
                d, full.prefix(L),
                TestConfig(L=L, K=K, alpha=0.05, loss=loss, metric=L2, master_seed=seed),
            )
            for L in L_values
        ]

    assert [r.L for r in benchmark(sweep)] == list(L_values)
