"""Micro-benchmarks of single layers, with pytest-benchmark.

Run from the root of a source checkout::

    python -m pytest bench/bench_layers.py

The file name does not match ``test_*.py``, so a plain ``pytest`` run of the
test suite does not collect it. The inputs mirror the workloads of
``perfbench/``: a 4000-row CSV of recorded binary decisions (two integer
features, two lab values to one decimal place, with duplicate records),
read three times: as written and with every cell quoted, both of which
numpy's reader takes, and with ``7_4``-style ages, which Python's ``float``
reads and numpy's does not, so the file goes to the cell-by-cell reader;
each bench asserts which reader takes its file. Then the
validity cube at n = 500, and one test at a ``power`` shape (n = 600,
L = 75, K = 1000, zero-one loss), at a ``validity`` shape (n = 500,
L = 250, K = 200, squared loss) and at an ``audit`` shape (the 4000-row
decisions, L = 1000, K = 1000, zero-one loss). Every engine call takes a
new seed, as every test of the ``power`` workload does, so none reads the
mask the one before kept. The swap-mask draw is also timed alone, at the
``power`` shapes (K = 1000 and L = 25, 75 and 150, the L of its three n),
the ``validity`` shape (K = 200, L = 250) and the ``audit`` shape
(K = 1000, L = 1000, whose read's 64 x 1001 float array is the largest):
each call reads every block of a new ``_SwapMask``, so it draws them all,
each block's states copied into the thread's 64 generators at once and
each row filled, into that one array the read owns, by one call of
numpy's uniform fill on its own generator, and packs them (each row into
whole bytes, as the mask stores it), and none is kept.
So is each test's mask set-up, ``_SwapMask(seed, K, L)``, which hashes
the K seed words and writes their pre-states in the thread layout, at
K = 1000 and 10 000. The ``power`` runner only needs
each test's verdict, so the ``power``-shaped test is also timed with
``verdict_only``, which stops comparing once the test can no longer
reject, on the null world (delta = 0, where most tests stop early) and at
delta = 0.2. Two sweeps
test one seed at every L of a workload on one greedy matching at the
largest L, as the ``validity`` runner (n = 500, L = 25 to 250, K = 200,
squared loss) and an ``audit`` report (L = 125 to 1000, K = 1000, zero-one
loss) do, each with its L values largest first and ascending: every test
reads the mask drawn at the matching's length, so whichever test comes
first draws it and the others read the kept one. Each sweep takes a new
seed. A third sweep runs the ``validity`` one on integer outcomes and
predictions in 1-5, like Likert scores, with squared loss: its records are
not binary, so it takes the float compare, which no workload of
``perfbench/`` runs on integer data; integer deltas sum exactly, so no row
needs the rounding margin. The squared-loss compare is also
timed alone, at the ``validity`` shape (n = 500, K = 200, L = 25, 100 and
250 of a matching at 250): one test whose mask hands it the same blocks at
every call, as drawn bools and as kept packed rows, so only the test's
preamble and its compare run. Its worst case scales the cube's outcomes
and predictions by 1e-170: every product of differences underflows, so
every row lies within the rounding margin and is summed exactly. The
binary compare is timed the same way at the ``power`` shape (n = 600,
L = 75, K = 1000), under zero-one loss and ``weighted_binary(0.3, 0.5)``:
drawn blocks by matrix product, kept ones by popcount. Two more
time the ``audit`` workload's own pattern, which repeats one report at one seed: a sweep runs
once untimed, and every timed run at that seed reads the mask it kept,
building none. At the ``audit`` shape (L ascending) its binary tests count
the kept rows as packed bits; at the ``validity`` shape (L descending) its
float tests unpack each kept row.

Two parts of each test's preamble are timed alone: ``Matching.prefix``
(L = 125 of the 250 greedy pairs of the validity cube, and 75 of 75 at the
``power`` shape) and ``classify_swaps``, which counts the signs of the
per-pair deltas as the engine does, where the engine counts them: only
when every matched record is binary (the validity cube at L = 250, which
is not binary, and the audit records at L = 1000, which are).

One ``report`` runs end to end through ``cli.main``, with the ``audit``
workload's argv on the audit CSV (L = 125 to 1000, K = 1000, zero-one
loss, ``--normalize``, ``--smoothness-C 2.0``, ``--json``): parsing, CSV
load, normalizing, matching, the tests, bounds and output. It repeats the
call at one seed, as the ``audit`` workload does, so every call after the
first builds no parser and reads the kept mask, and each call must write
the same JSON.

Five more matcher inputs are there to catch a radius rule that wins on
the audit features and loses elsewhere: the validity cube at n = 32 000
(L = n/4), a tight cluster of 3000 records with 1000 spread around it
(3-D, L = 2000), the uniform 9-dimensional cube at n = 4000 (L = n/2),
standard normal features in 30 dimensions at n = 2000 (L = n/2), where a
growing radius multiplies the candidate count fastest, and the validity
cube at n = 4000 and L = 200, a shallow matching whose pair queries run
over a small share of the free records.
"""

import csv
from itertools import count
from unittest import mock

import numpy as np
import pytest

from experttest import cli, engine
from experttest.cli import ColumnSpec, load_csv, normalize_features, write_csv
from experttest.core import Dataset, DistanceMetric, LossSpec
from experttest.engine import TestConfig, expert_test_with_matching
from experttest.matching import greedy_match
from experttest.synthgen import ExpertiseConfig, gen_expertise_pairs, gen_validity_cube

AUDIT_N = 4000
SPEC = ColumnSpec(("age", "visits", "hgb", "creatinine"), "outcome", "decision")
NAMES = (*SPEC.feature_columns, SPEC.outcome_column, SPEC.prediction_column)
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


def write_audit_rows(path, rows, **fmt) -> str:
    """Write the audit header and ``rows`` with ``csv.writer(**fmt)``; return the path."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, **fmt)
        writer.writerow(NAMES)
        writer.writerows(rows)
    return str(path)


@pytest.fixture(scope="module")
def audit_csv_quoted(tmp_path_factory):
    d = audit_like()
    return write_audit_rows(tmp_path_factory.mktemp("bench") / "audit_quoted.csv",
                            np.column_stack([d.x, d.y, d.y_hat]).tolist(), quoting=csv.QUOTE_ALL)


@pytest.fixture(scope="module")
def audit_csv_underscored(tmp_path_factory):
    d = audit_like()
    rows = [[f"{int(age) // 10}_{int(age) % 10}", *rest]
            for age, *rest in np.column_stack([d.x, d.y, d.y_hat]).tolist()]
    return write_audit_rows(tmp_path_factory.mktemp("bench") / "audit_underscored.csv", rows)


def time_load_csv(benchmark, path, numpy_reads):
    # which reader takes the file is asserted, so a rule that sends the plain or
    # quoted file cell by cell fails here instead of slowing the audit workload
    with mock.patch.object(cli, "_checked_cells", side_effect=AssertionError("read cell by cell")):
        try:
            load_csv(path, SPEC)
        except AssertionError:
            assert not numpy_reads
        else:
            assert numpy_reads
    assert benchmark(load_csv, path, SPEC) == audit_like()


def test_load_csv_audit(benchmark, audit_csv):
    time_load_csv(benchmark, audit_csv, numpy_reads=True)


def test_load_csv_audit_quoted(benchmark, audit_csv_quoted):
    time_load_csv(benchmark, audit_csv_quoted, numpy_reads=True)


def test_load_csv_audit_cell_by_cell(benchmark, audit_csv_underscored):
    time_load_csv(benchmark, audit_csv_underscored, numpy_reads=False)


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


def normal_30d() -> Dataset:
    x = np.random.default_rng(0).standard_normal((2000, 30))
    return Dataset(x, np.zeros(len(x)), np.zeros(len(x)))


@pytest.mark.parametrize(
    "make, L",
    [
        (lambda: gen_validity_cube(32_000, 0), 8000),
        (clustered_3d, 2000),
        (uniform_9d, 2000),
        (normal_30d, 1000),
        (lambda: gen_validity_cube(4000, 0), 200),
    ],
    ids=["cube-32000", "clustered-3d", "uniform-9d", "normal-30d", "cube-4000-shallow"],
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
    """``classify_swaps`` where the engine counts swaps: when every matched record is binary, else None."""
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


@pytest.mark.parametrize("K, L", [(1000, 25), (1000, 75), (1000, 150), (200, 250), (1000, 1000)])
def test_swap_mask_blocks(benchmark, K, L):
    seeds = count()

    def draw():
        mask = engine._SwapMask(next(seeds), K, L)
        assert sum(block.shape[0] for block in mask.blocks(L)) == K
        return mask

    # every block is drawn, and kept as its rows packed to whole bytes
    kept = benchmark(draw).bits
    rows = engine._BLOCK_ROWS
    assert [bits.shape for bits in kept.values()] == [(min(rows, K - s), -(-L // 8)) for s in range(0, K, rows)]


@pytest.mark.parametrize("K", [1000, 10_000])
def test_swap_seed_words_uncached(benchmark, K):
    seeds = count()
    mask = benchmark(lambda: engine._SwapMask(next(seeds), K, 75))
    assert mask._pre.shape == (K, 4) and not mask.bits


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
        cfg = TestConfig(L=L, K=K, alpha=0.05, loss=loss, master_seed=next(seeds))
        return expert_test_with_matching(d, m, cfg)

    assert benchmark(run).K == K


@pytest.mark.parametrize("delta", [0.0, 0.2], ids=["delta0", "delta02"])
def test_expert_test_verdict(benchmark, delta):
    d = gen_expertise_pairs(ExpertiseConfig(n=600, delta=delta, seed=0))
    m = greedy_match(d, 75, L2)
    seeds = count()

    def run():
        cfg = TestConfig(L=75, K=1000, alpha=0.05, loss=LossSpec.zero_one(), master_seed=next(seeds))
        return expert_test_with_matching(d, m, cfg, verdict_only=True)

    assert benchmark(run).K == 1000


class GivenBlocks:
    """A swap mask that yields the given 64-row blocks at every read, as drawn (bools) or as kept (packed rows)."""

    def __init__(self, blocks):
        self.given = blocks

    def blocks(self, L):
        width = -(-L // 8)
        for block in self.given:
            yield block[:, : 8 * width] if block.dtype == bool else block[:, :width]


def underflow_cube() -> Dataset:
    """The validity cube at n = 500 with outcomes and predictions scaled by 1e-170.

    Every pair's product of differences underflows to zero, so every float
    delta is 0 while the exact ones are not: every row of every block lies
    within the rounding margin and is summed exactly.
    """
    d = gen_validity_cube(500, 0)
    return Dataset(d.x, d.y * 1e-170, d.y_hat * 1e-170)


def given_blocks(K: int, L: int, blocks: str) -> GivenBlocks:
    """The blocks of the mask at seed 0, as drawn bools (``fresh``) or as packed kept rows (``kept``)."""
    mask = engine._SwapMask(0, K, L)
    for _ in mask.blocks(L):  # draws and packs every block
        pass
    packed = list(mask.bits.values())
    return GivenBlocks(packed if blocks == "kept" else [np.unpackbits(b, axis=1).view(bool) for b in packed])


def time_given_blocks(benchmark, d, matching, cfg, given):
    # the test reads the given blocks, so only its preamble and compare run
    with mock.patch.object(engine, "_swap_mask", lambda seed, K, n: given):
        return benchmark(expert_test_with_matching, d, matching, cfg)


@pytest.mark.parametrize("L", [25, 100, 250])
@pytest.mark.parametrize("blocks", ["fresh", "kept"])
@pytest.mark.parametrize(
    "make", [lambda: gen_validity_cube(500, 0), underflow_cube], ids=["validity", "all-in-margin"]
)
def test_float_compare(benchmark, make, blocks, L):
    # one squared-loss test at a validity shape (n = 500, K = 200, the
    # matching at L = 250)
    d = make()
    full = greedy_match(d, 250, L2)
    cfg = TestConfig(L=L, K=200, alpha=0.05, loss=LossSpec.squared_error(), master_seed=0)
    assert time_given_blocks(benchmark, d, full, cfg, given_blocks(200, 250, blocks)).K == 200


@pytest.mark.parametrize("blocks", ["fresh", "kept"])
@pytest.mark.parametrize(
    "loss", [LossSpec.zero_one(), LossSpec.weighted_binary(0.3, 0.5)], ids=["zero-one", "weighted"]
)
def test_binary_compare(benchmark, loss, blocks):
    # one binary test at the power shape (n = 600, L = 75, K = 1000), on
    # drawn bools by matrix product or on packed kept rows by popcount
    d = gen_expertise_pairs(ExpertiseConfig(n=600, delta=0.2, seed=0))
    m = greedy_match(d, 75, L2)
    cfg = TestConfig(L=75, K=1000, alpha=0.05, loss=loss, master_seed=0)
    assert time_given_blocks(benchmark, d, m, cfg, given_blocks(1000, 75, blocks)).binary_swap_counts is not None


def likert_cube() -> Dataset:
    """The validity cube at n = 500 with integer outcomes and predictions in 1-5, like Likert scores."""
    d = gen_validity_cube(500, 0)
    rng = np.random.default_rng(0)
    return Dataset(d.x, rng.integers(1, 6, d.n).astype(np.float64), rng.integers(1, 6, d.n).astype(np.float64))


@pytest.mark.parametrize(
    "make, L_values, K, loss",
    [
        (lambda: gen_validity_cube(500, 0), range(250, 0, -25), 200, LossSpec.squared_error()),
        (lambda: gen_validity_cube(500, 0), range(25, 251, 25), 200, LossSpec.squared_error()),
        (lambda: normalize_features(audit_like()), (1000, 500, 250, 125), 1000, LossSpec.zero_one()),
        (lambda: normalize_features(audit_like()), (125, 250, 500, 1000), 1000, LossSpec.zero_one()),
        (likert_cube, range(250, 0, -25), 200, LossSpec.squared_error()),
    ],
    ids=["validity", "validity-ascending", "audit", "audit-ascending", "likert"],
)
def test_expert_test_sweep(benchmark, make, L_values, K, loss):
    d = make()
    full = greedy_match(d, max(L_values), L2)
    seeds = count()

    def sweep():
        seed = next(seeds)
        return [
            expert_test_with_matching(
                d, full,
                TestConfig(L=L, K=K, alpha=0.05, loss=loss, master_seed=seed),
            )
            for L in L_values
        ]

    assert [r.L for r in benchmark(sweep)] == list(L_values)


@pytest.mark.parametrize(
    "make, L_values, K, loss",
    [
        (lambda: normalize_features(audit_like()), (125, 250, 500, 1000), 1000, LossSpec.zero_one()),
        (lambda: gen_validity_cube(500, 0), range(250, 0, -25), 200, LossSpec.squared_error()),
    ],
    ids=["audit", "validity"],
)
def test_expert_test_sweep_same_seed(benchmark, make, L_values, K, loss):
    # perfbench's audit ops run one report at one seed, so each op after the
    # first reads the mask the first one kept: the binary tests count its
    # packed rows, and the float tests of the validity shape unpack them
    d = make()
    full = greedy_match(d, max(L_values), L2)
    cfgs = [TestConfig(L=L, K=K, alpha=0.05, loss=loss, master_seed=0) for L in L_values]

    def sweep():
        return [expert_test_with_matching(d, full, cfg) for cfg in cfgs]

    first = sweep()
    misses = engine._swap_mask.cache_info().misses
    assert benchmark(sweep) == first
    assert engine._swap_mask.cache_info().misses == misses


def test_cli_report_audit(benchmark, audit_csv, tmp_path):
    out = tmp_path / "report.json"
    argv = ["report", audit_csv, "--features", ",".join(SPEC.feature_columns),
            "--outcome", SPEC.outcome_column, "--prediction", SPEC.prediction_column,
            "--normalize", "--pairs", "125,250,500,1000", "--resamples", "1000",
            "--loss", "zero-one", "--smoothness-C", "2.0", "--json", str(out)]
    docs = []

    def report():
        assert cli.main(argv) == 0
        docs.append(out.read_bytes())

    report()  # a warm-up op, as the audit workload runs before it times
    benchmark(report)
    assert len(docs) >= 2 and len(set(docs)) == 1
