"""The scripts in ``bench/`` and perfbench's tracer still import and run against ``src/``.

The layer micro-benchmarks reach into private engine names, so a rename
there would otherwise go unnoticed until someone runs them. The output
comparison runs five of its commands on this tree against itself. The
tracer wraps module attributes by name, and a traced benchmark run fails
when one is gone or no longer reached; here one small op per workload
shape checks that without a benchmark run.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_layers_runs():
    pytest.importorskip("pytest_benchmark")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "bench" / "bench_layers.py"), "--benchmark-disable"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself():
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  ROOT / "bench" / "compare_outputs.py")
    compare_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_outputs)
    # one command that succeeds and one that fails, so both exit paths are
    # compared, a report whose costs add to inf, which must not warn, one
    # whose costs are zero-one's and a power grid at the benchmark's K
    names = ["mse", "power-bad-delta", "report-weighted-huge", "report-weighted-unit", "power-grid-full"]
    assert compare_outputs.compare(str(ROOT), str(ROOT), names, [0]) == []


def test_perfbench_tracer_reaches_every_span(tmp_path, capsys):
    # the tracer wraps fixed module attributes and names the spans each
    # workload must reach; one small op per workload shape checks both
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from experttest import cli

    rng = np.random.default_rng(4)
    x = rng.integers(0, 4, size=(200, 3)).astype(float)
    y, y_hat = rng.integers(0, 2, (2, 200)).astype(float)
    csv_path = tmp_path / "audit.csv"
    np.savetxt(csv_path, np.column_stack([x, y, y_hat]), delimiter=",", comments="",
               header="a,b,c,outcome,decision")
    argvs = {
        "audit": ["report", str(csv_path), "--features", "a,b,c", "--outcome", "outcome",
                  "--prediction", "decision", "--normalize", "--pairs", "10,40",
                  "--resamples", "50", "--smoothness-C", "2.0", "--json", str(tmp_path / "report.json")],
        "power": ["power", "--n-values", "40,80", "--deltas", "0.0,0.2", "--resamples", "50",
                  "--trials", "2"],
        "validity": ["validity", "--n", "60", "--l-values", "5,15,30", "--resamples", "50",
                     "--trials", "2"],
    }
    assert set(argvs) == set(tracing.EXPECTED_SPANS)
    for name, argv in argvs.items():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert tracer.run_op(cli.main, argv) == 0
        finally:
            tracer.uninstall()
        tracer.check_reached(name)
    capsys.readouterr()
