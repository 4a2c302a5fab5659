"""Per-layer spans for the traced run, recorded from outside the package.

Thin wrappers are installed on the entry points as each caller imports them
(``experttest.cli`` and ``experttest.synthgen`` module attributes, plus
``Matching.prefix``) and removed after each traced op. Nothing under ``src/``
changes. A missing entry point, or one a workload no longer reaches, fails
the run, so a refactor cannot silently drop a span.

A span's self time is its duration minus its direct children's durations;
the root span is the op (one ``experttest.cli.main`` call). Spans are kept in
memory and written out when the run ends.
"""

import functools
import importlib
import statistics
import time
import tracemalloc

# (module, attribute, span); ``_COMMANDS`` is the CLI's dispatch table, whose
# entries are the subcommand bodies
ENTRY_POINTS = (
    ("experttest.cli", "build_parser", "cli.parser"),
    ("experttest.cli", "_COMMANDS", "cli.command"),
    ("experttest.cli", "load_csv", "cli.load_csv"),
    ("experttest.cli", "normalize_features", "cli.normalize"),
    ("experttest.cli", "render_report_table", "cli.output"),
    ("experttest.cli", "report_to_json", "cli.output"),
    ("experttest.cli", "_write_json", "cli.output"),
    ("experttest.cli", "_emit_csv", "cli.output"),
    ("experttest.cli", "greedy_match", "matching.greedy_match"),
    ("experttest.cli", "expert_test_with_matching", "engine.test"),
    ("experttest.cli", "validity_bound", "bounds.validity_bound"),
    ("experttest.cli", "run_power_curve", "synthgen.runner"),
    ("experttest.cli", "run_type1_curve", "synthgen.runner"),
    ("experttest.synthgen", "gen_expertise_pairs", "synthgen.gen"),
    ("experttest.synthgen", "gen_validity_cube", "synthgen.gen"),
    ("experttest.synthgen", "greedy_match", "matching.greedy_match"),
    ("experttest.synthgen", "expert_test_with_matching", "engine.test"),
    ("experttest.matching", "Matching.prefix", "matching.prefix"),
)

_COMMON = {"cli.parser", "cli.command", "cli.output", "matching.greedy_match", "engine.test"}
EXPECTED_SPANS = {
    "audit": _COMMON | {"cli.load_csv", "cli.normalize", "matching.prefix", "bounds.validity_bound"},
    "power": _COMMON | {"synthgen.runner", "synthgen.gen"},
    "validity": _COMMON | {"synthgen.runner", "synthgen.gen", "matching.prefix"},
}

# tracemalloc peaks are taken around these spans only
_PEAK_SPANS = ("matching.greedy_match", "engine.test")

# (name, unit) of every per-layer figure, in print order
FIGURES = (
    ("cli.self_s", "s"),
    ("cli.output_s", "s"),
    ("cli.load_csv_s", "s"),
    ("cli.load_csv_rows_per_s", "1/s"),
    ("cli.normalize_s", "s"),
    ("matching.greedy_match_s", "s"),
    ("matching.calls", "count"),
    ("matching.prefix_s", "s"),
    ("matching.mismatch_frac", "frac"),
    ("matching.peak_mb", "MB"),
    ("engine.test_s", "s"),
    ("engine.tests", "count"),
    ("engine.swap_draws", "count"),
    ("engine.swap_draws_per_s", "1/s"),
    ("engine.peak_mb", "MB"),
    ("bounds.validity_bound_s", "s"),
    ("bounds.calls", "count"),
    ("synthgen.gen_s", "s"),
    ("synthgen.datasets", "count"),
    ("synthgen.runner_self_s", "s"),
    ("trace.uncovered_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    # each layer's self time as a share of op wall time
    ("share.cli", "frac"),
    ("share.matching", "frac"),
    ("share.engine", "frac"),
    ("share.bounds", "frac"),
    ("share.synthgen", "frac"),
    # the layer-specific times above, as shares of op wall time: these exist
    # on every workload without being a constant zero time where the layer
    # does not run
    ("cli.load_csv_frac", "frac"),
    ("cli.normalize_frac", "frac"),
    ("matching.prefix_frac", "frac"),
    ("bounds.validity_bound_frac", "frac"),
    ("synthgen.gen_frac", "frac"),
    ("synthgen.runner_self_frac", "frac"),
)


class MissingEntryPoint(RuntimeError):
    """An entry point the tracer wraps no longer exists, or a workload stopped reaching it."""


class Tracer:
    """Collects spans and per-op counts; with ``memory`` set, tracemalloc peaks instead."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.peak_mb = {name: 0.0 for name in _PEAK_SPANS}
        self._stack: list[int] = []
        self._op = -1
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _count(self, key: str, value: float) -> None:
        per_op = self.counts.setdefault(self._op, {})
        per_op[key] = per_op.get(key, 0) + value

    def _call(self, name: str, fn, args, kwargs):
        span = {"op": self._op, "id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        peak = self.memory and name in _PEAK_SPANS
        if peak:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if peak:
                used = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peak_mb[name] = max(self.peak_mb[name], used)

    def run_op(self, fn, *args):
        """Call ``fn`` as the root span of a new op."""
        self._op += 1
        return self._call("op", fn, args, {})

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if name == "matching.greedy_match":
                self._count("matching.calls", 1)
                self._count("matching.selected", len(result))
                self._count("matching.mismatched", result.mismatch_count)
            elif name == "engine.test":
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                self._count("engine.tests", 1)
                self._count("engine.swap_draws", cfg.K * cfg.L)
            elif name == "bounds.validity_bound":
                self._count("bounds.calls", 1)
            elif name == "synthgen.gen":
                self._count("synthgen.datasets", 1)
            elif name == "cli.load_csv":
                self._count("cli.load_csv_rows", result.n)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; raise :class:`MissingEntryPoint` if one is gone."""
        for module_name, attr, span in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.uninstall()
                raise MissingEntryPoint(f"{module_name}.{attr} no longer exists") from None
            if isinstance(original, dict):
                wrapped = {key: self._wrap(fn, span) for key, fn in original.items()}
            elif callable(original):
                wrapped = self._wrap(original, span)
            else:
                self.uninstall()
                raise MissingEntryPoint(f"{module_name}.{attr} is not callable")
            setattr(owner, leaf, wrapped)
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    # -- reading -----------------------------------------------------------

    def check_reached(self, workload: str) -> None:
        seen = {span["name"] for span in self.spans}
        missing = sorted(EXPECTED_SPANS[workload] - seen)
        if missing:
            raise MissingEntryPoint(f"{workload} no longer reaches {', '.join(missing)}")

    def op_figures(self) -> list[dict]:
        """Per-layer figures of each recorded op."""
        self_s: dict[int, dict[str, float]] = {}
        wall: dict[int, float] = {}
        for span in self.spans:
            duration = span["end"] - span["start"]
            per_op = self_s.setdefault(span["op"], {})
            per_op[span["name"]] = per_op.get(span["name"], 0.0) + duration
            if span["parent"] is None:
                wall[span["op"]] = duration
            else:
                parent = self.spans[span["parent"]]["name"]
                per_op[parent] = per_op.get(parent, 0.0) - duration
        return [_figures(self_s[op], self.counts.get(op, {}), wall[op]) for op in sorted(wall)]


def _figures(self_s: dict, counts: dict, wall: float) -> dict:
    def t(name: str) -> float:
        return self_s.get(name, 0.0)

    def c(name: str) -> float:
        return counts.get(name, 0)

    def layer(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    engine_s = t("engine.test")
    rows = c("cli.load_csv_rows")
    selected = c("matching.selected")
    return {
        "wall_s": wall,
        "cli.self_s": t("cli.parser") + t("cli.command"),
        "cli.output_s": t("cli.output"),
        "cli.load_csv_s": t("cli.load_csv"),
        "cli.load_csv_rows_per_s": rows / t("cli.load_csv") if rows else 0.0,
        "cli.normalize_s": t("cli.normalize"),
        "matching.greedy_match_s": t("matching.greedy_match"),
        "matching.calls": c("matching.calls"),
        "matching.prefix_s": t("matching.prefix"),
        "matching.mismatch_frac": c("matching.mismatched") / selected if selected else 0.0,
        "engine.test_s": engine_s,
        "engine.tests": c("engine.tests"),
        "engine.swap_draws": c("engine.swap_draws"),
        "engine.swap_draws_per_s": c("engine.swap_draws") / engine_s if engine_s else 0.0,
        "bounds.validity_bound_s": t("bounds.validity_bound"),
        "bounds.calls": c("bounds.calls"),
        "synthgen.gen_s": t("synthgen.gen"),
        "synthgen.datasets": c("synthgen.datasets"),
        "synthgen.runner_self_s": t("synthgen.runner"),
        "trace.uncovered_frac": t("op") / wall,
        "share.cli": layer("cli") / wall,
        "share.matching": layer("matching") / wall,
        "share.engine": layer("engine") / wall,
        "share.bounds": layer("bounds") / wall,
        "share.synthgen": layer("synthgen") / wall,
        "cli.load_csv_frac": t("cli.load_csv") / wall,
        "cli.normalize_frac": t("cli.normalize") / wall,
        "matching.prefix_frac": t("matching.prefix") / wall,
        "bounds.validity_bound_frac": t("bounds.validity_bound") / wall,
        "synthgen.gen_frac": t("synthgen.gen") / wall,
        "synthgen.runner_self_frac": t("synthgen.runner") / wall,
    }


def summarize(timing: Tracer, memory: Tracer, untraced_walls: list[float]) -> dict:
    """Median of each figure over the traced ops, plus peaks and tracing overhead."""
    per_op = timing.op_figures()
    out = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    out["matching.peak_mb"] = memory.peak_mb["matching.greedy_match"]
    out["engine.peak_mb"] = memory.peak_mb["engine.test"]
    out["trace.overhead_frac"] = out["wall_s"] / statistics.median(untraced_walls) - 1.0
    return out
