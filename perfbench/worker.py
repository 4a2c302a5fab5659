"""One benchmark process: set up a workload, then (unless ``setup``) run its ops.

Modes:

* ``setup``: import ``experttest`` and write the workload's inputs; report
  the seconds taken, and the speed probe timed right after. The parent runs
  several of these for ``setup_s``.
* ``measure``: set up, one warm-up op, then ops back to back (a closed loop
  with one client) until ``--seconds`` have passed, with the speed probe
  timed before the first op and after each op. Reports each op's wall time
  and output, the probes, and the process's peak resident memory.
* ``trace``: set up, one warm-up op, then alternate untraced and traced ops
  until ``--seconds`` have passed, then one op under tracemalloc for the
  per-layer memory peaks. Writes the spans to ``--trace-file``.

The result is one JSON object on the last line of stdout. The parent checks
the outputs; nothing here compares them.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    """This process's peak resident memory.

    ``VmHWM`` covers this program image only. ``ru_maxrss`` from
    ``getrusage`` also counts the parent's pages this process carried between
    fork and exec, so a large parent would hide a small workload's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:  # not Linux
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure", "trace"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-file", default=None)
    args = p.parse_args()

    src = os.path.join(args.root, "src")
    start = time.perf_counter()
    sys.path.insert(0, src)
    import experttest.cli
    import workloads

    argv = workloads.prepare(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - start
    if not os.path.abspath(experttest.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported experttest from {experttest.__file__}, not from {src}")

    result = {"setup_s": setup_s, "argv": argv}
    if args.mode == "setup":
        import probe

        result["probe_s"] = probe.Probe()()
        print(json.dumps(result))
        return 0

    cli_main = experttest.cli.main
    out_path = os.path.join(args.workdir, "report.json")

    def op(call=cli_main) -> dict:
        if os.path.exists(out_path):
            os.remove(out_path)
        buf = io.StringIO()
        error = None
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = call(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code
        except Exception:  # a failing op is counted as failed, and the loop goes on
            rc, error = None, traceback.format_exc()
        wall = time.perf_counter() - begin
        output = None
        if error is None and rc == 0:
            try:
                output = workloads.output_of(args.workload, args.workdir, buf.getvalue())
            except OSError as exc:
                error = f"no output: {exc}"
        return {"wall_s": wall, "rc": rc, "error": error, "output": output}

    ops = result["ops"] = []
    if args.mode == "measure":
        import probe

        speed = probe.Probe()
        probes = result["probes_s"] = [speed()]
        result["probe_s"] = probes[0]  # the probe right after set-up, as in ``setup``
        result["warmup"] = op()
        probes.append(speed())
        begin = time.perf_counter()
        while not ops or time.perf_counter() - begin < args.seconds:
            ops.append(op())
            probes.append(speed())
        result["peak_rss_mb"] = _peak_rss_mb()
        print(json.dumps(result))
        return 0

    import tracemalloc

    import tracing

    result["warmup"] = op()
    timing = tracing.Tracer()
    begin = time.perf_counter()
    while len(ops) < 4 or time.perf_counter() - begin < args.seconds:
        ops.append(dict(op(), traced=False))
        timing.install()
        try:
            ops.append(dict(op(lambda a: timing.run_op(cli_main, a)), traced=True))
        finally:
            timing.uninstall()
    timing.check_reached(args.workload)

    memory = tracing.Tracer(memory=True)
    memory.install()
    tracemalloc.start()
    try:
        result["memory_op"] = op(lambda a: memory.run_op(cli_main, a))
    finally:
        tracemalloc.stop()
        memory.uninstall()

    untraced = [o["wall_s"] for o in ops if not o["traced"]]
    result["layers"] = tracing.summarize(timing, memory, untraced)
    with open(args.trace_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": timing.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
