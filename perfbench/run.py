"""Benchmark of the ``experttest`` CLI: three workloads, end-to-end and per-layer.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload audit --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

``--trace 0`` measures the end-to-end metrics with nothing installed in the
program; ``--trace 1`` is the separate traced run that attributes each op's
time and memory to the package's layers. ``--workload all`` runs every
workload in turn and prints one table.

Each run sets up several fresh processes (``setup_s``), computes the expected
outputs with the reference in ``reference.py``, then measures in one more
fresh process (``run_s``, ``peak_rss_mb``) and checks every op's output.
Children run one thread each: BLAS and OpenMP pools are pinned to 1. Times
are wall clock; ``run_s`` and ``setup_s`` are then scaled by the speed probe
in ``probe.py``. The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in _PINNED:
    os.environ[_name] = "1"

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402 -- after the thread pinning, which numpy reads on import

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

SETUP_PROCESSES = 4  # plus the measuring process: setup_s is a median of 5
TIME_LIMIT_S = 170.0

E2E_UNITS = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# written to the result line; the rest of tracing.FIGURES is printed only
PER_LAYER = (
    "cli.self_s", "cli.output_s", "cli.load_csv_frac", "cli.normalize_frac",
    "matching.greedy_match_s", "matching.calls", "matching.prefix_frac",
    "matching.mismatch_frac", "matching.peak_mb",
    "engine.test_s", "engine.tests", "engine.swap_draws", "engine.swap_draws_per_s",
    "engine.peak_mb",
    "bounds.validity_bound_frac", "bounds.calls",
    "synthgen.gen_frac", "synthgen.datasets", "synthgen.runner_self_frac",
    "share.cli", "share.matching", "share.engine", "share.bounds", "share.synthgen",
    "trace.uncovered_frac", "trace.overhead_frac",
)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to an op failing)."""


def _child(mode: str, args, workdir: str, deadline: float, trace_file=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--root", ROOT, "--workdir", workdir]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchmarkError(f"{mode} process exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _normalized(walls: list[float], probes: list[float]) -> list[float]:
    return [w * probe.NOMINAL_S / p for w, p in zip(walls, probes)]


def _percentile_note(walls: list[float]) -> str:
    # a high percentile is reported only once at least ten samples lie beyond it
    for p in (99, 95, 90):
        if len(walls) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(walls, n=100)[p - 1]
            return f"p{p} {q:.4f} s"
    return "no high percentile: fewer than 10 ops would lie beyond p90"


def run_one(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "experttest", "__init__.py")):
        raise BenchmarkError(f"no experttest source tree under {ROOT}/src")
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = [_child("setup", args, workdir, deadline) for _ in range(SETUP_PROCESSES)]
        want = workloads.expected(args.workload, args.seed, workdir)
        trace_file = os.path.join(WORK, f"trace-{args.workload}.json") if args.trace else None
        res = _child("trace" if args.trace else "measure", args, workdir, deadline, trace_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res)

    ops = [res["warmup"], *res["ops"]] + ([res["memory_op"]] if args.trace else [])
    failures = []
    for i, op in enumerate(ops):
        if op["error"] or op["rc"] != 0:
            problems = [op["error"] or f"exit code {op['rc']}"]
        else:
            problems = workloads.check(args.workload, op["output"], want)
        if problems:
            failures.append(f"op {i}: " + "; ".join(problems)[:2000])

    timed = [op["wall_s"] for op in res["ops"] if not op.get("traced")]
    if args.trace:
        layers = res["layers"]
        units = dict(tracing.FIGURES)
        # the table has every figure; the result line has PER_LAYER
        table = [(name, layers[name], unit) for name, unit in tracing.FIGURES]
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in PER_LAYER}
        traced = len(res["ops"]) - len(timed)
        notes = [f"medians over {traced} traced ops; {len(timed)} untraced ops for the overhead; "
                 f"spans in {os.path.relpath(trace_file, ROOT)}"]
    else:
        # op k ran between probes k and k + 1; op 0 is the warm-up
        p = res["probes_s"]
        speeds = [(a + b) / 2 for a, b in zip(p[1:], p[2:])]
        values = {
            "run_s": statistics.median(_normalized(timed, speeds)),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(_normalized(
                [s["setup_s"] for s in setups], [s["probe_s"] for s in setups])),
        }
        table = [(k, v, E2E_UNITS[k]) for k, v in values.items()]
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        table += [
            ("run_wall_s", statistics.median(timed), "s"),
            ("setup_wall_s", statistics.median(s["setup_s"] for s in setups), "s"),
            ("probe_s", statistics.median(p), "s"),
        ]
        notes = [f"run_s: median of {len(timed)} ops after 1 warm-up; {_percentile_note(timed)}",
                 f"setup_s: median of {len(setups)} fresh processes",
                 f"run_s and setup_s are wall seconds scaled to a probe time of "
                 f"{probe.NOMINAL_S} s (see probe.py); *_wall_s are unscaled"]
    table.append(("failed_frac", len(failures) / len(ops), "frac"))
    return {
        "table": table,
        "notes": notes,
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": len(ops),
            "failed": len(failures),
            "metrics": metrics,
        },
    }


def _print_run(name: str, args, run: dict) -> None:
    cpus = len(os.sched_getaffinity(0))
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"(nproc {cpus}, 1 thread per process, wall clock)")
    for metric, value, unit in run["table"]:
        print(f"  {metric:<28} {value:>14.6g} {unit}")
    for note in run["notes"]:
        print(f"  {note}")
    for failure in run["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            run = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
            _print_run(name, args, run)
            results[name] = run["result"]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
