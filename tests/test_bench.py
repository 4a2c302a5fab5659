"""The scripts in ``bench/`` still import and run against ``src/``.

The layer micro-benchmarks reach into private engine names, so a rename
there would otherwise go unnoticed until someone runs them. The output
comparison runs two of its commands on this tree against itself.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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
    # one command that succeeds and one that fails, so both exit paths are compared
    assert compare_outputs.compare(str(ROOT), str(ROOT), ["mse", "power-bad-delta"], [0]) == []
