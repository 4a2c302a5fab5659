"""CSV ingestion, feature normalization, report generation, and the command line.

Subcommands: ``test`` (one run on a CSV), ``report`` (multi-L sweep),
``match-stats`` (pair-distance distribution), and the synthetic studies
``toy``, ``power``, ``validity``, ``mse``. Human-readable tables go to
stdout; ``--json`` writes one machine-readable document per run; experiment
runners emit CSV plot data. All randomness is controlled by ``--seed``.
"""

import argparse
import codecs
import csv
import errno
import functools
import io
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bounds import Smoothness, ValidityBound, validity_bound
from .core import (
    Dataset,
    DistanceMetric,
    ExpertTestError,
    LossSpec,
)
from .engine import TestConfig, expert_test_with_matching
from .matching import _sweep_L_values, greedy_match, pair_distance_summary
from .synthgen import (
    mse_comparison,
    run_power_curve,
    run_power_vs_L,
    run_toy_study,
    run_type1_curve,
)

__all__ = [
    "MissingColumn",
    "DuplicateColumn",
    "NonNumericCell",
    "EmptyFile",
    "MalformedCsv",
    "ColumnSpec",
    "ReportRow",
    "Report",
    "load_csv",
    "write_csv",
    "normalize_features",
    "run_report",
    "render_report_table",
    "report_to_json",
    "main",
]


class MissingColumn(ExpertTestError):
    """A requested column is absent from the CSV header."""


class DuplicateColumn(ExpertTestError):
    """A requested column name appears more than once in the CSV header."""

    def __init__(self, column: str) -> None:
        super().__init__(f"column {column!r} appears more than once in the header")
        self.column = column


class NonNumericCell(ExpertTestError):
    """A selected cell is blank, not a number, NaN or infinite (no imputation)."""

    def __init__(self, row: int, column: str) -> None:
        super().__init__(f"row {row}, column {column!r}: blank, non-numeric or non-finite cell")
        self.row = row
        self.column = column


class EmptyFile(ExpertTestError):
    """The CSV has no header row, or fewer than the two data rows a dataset needs."""


class MalformedCsv(ExpertTestError):
    """The file is not UTF-8, or the csv module cannot parse a row, e.g. a field longer
    than its size limit."""


@dataclass(frozen=True)
class ColumnSpec:
    """Which header columns play the feature / outcome / prediction roles."""

    feature_columns: tuple[str, ...]
    outcome_column: str
    prediction_column: str

    def __post_init__(self) -> None:
        if not self.feature_columns:
            raise ValueError("need at least one feature column")
        roles = [*self.feature_columns, self.outcome_column, self.prediction_column]
        if len(set(roles)) != len(roles):
            raise ValueError("feature, outcome and prediction columns must be disjoint")


def load_csv(path: str, spec: ColumnSpec) -> Dataset:
    """Read a UTF-8 CSV with header into a dataset, preserving row order.

    The file is read once as bytes, and its checks run in this order: the
    encoding, then the header, then the cells, then the row count. A file
    that is not UTF-8 raises :class:`MalformedCsv` naming the line, header
    included, that holds its first bad byte. A header that is missing, or
    lacks or repeats a selected column, raises :class:`EmptyFile`,
    :class:`MissingColumn` or :class:`DuplicateColumn`; the first bad cell
    raises :class:`NonNumericCell` and a row ``csv`` cannot parse raises
    :class:`MalformedCsv` (row numbers are 1-based data rows); fewer than two
    data rows raise :class:`EmptyFile`.

    A leading byte-order mark is dropped, and every selected cell is read as
    Python's ``float`` reads it. numpy's C reader parses the selected columns
    in one pass, quotes and ``\\r\\n``, ``\\r`` or ``\\n`` line ends as
    ``csv`` does, unless the file holds one of the ASCII separators ``\\x1c``
    to ``\\x1f`` or a line longer than ``csv.field_size_limit()``. Its result
    is kept when it takes every selected cell as a finite number and gives one
    row per line after the header. Every other file is read again, cell by
    cell, with ``csv`` and ``float``. Both readers give the same values bit
    for bit and raise the same errors.
    """
    names = (*spec.feature_columns, spec.outcome_column, spec.prediction_column)
    raw = Path(path).read_bytes()
    start = len(raw) if raw.isascii() else 0  # an ASCII file is UTF-8
    while start < len(raw):  # by chunks, so no wide str of the whole file is built
        try:
            start += codecs.utf_8_decode(raw[start : start + _CHUNK], None, start + _CHUNK >= len(raw))[1]
        except UnicodeDecodeError as exc:
            start += exc.start
            raise MalformedCsv(f"{path}: line {_line_ends(raw[:start]) + 1}: not valid UTF-8 "
                               f"(first bad byte at offset {start})") from None
    limit = csv.field_size_limit()
    for_numpy = not any(byte in raw for byte in _NOT_FOR_NUMPY) and (len(raw) <= limit or _longest_line(raw) <= limit)
    rows = _line_ends(raw) + (not raw.endswith((b"\n", b"\r"))) - 1  # the header is one line
    del raw  # so the bytes are freed before a reader parses the text
    values = _bulk_cells(path, names, rows) if for_numpy else None
    if values is None:
        values = _checked_cells(path, names)
    if len(values) < 2:
        raise EmptyFile(f"{path}: a dataset needs at least 2 data rows, and the file has {len(values)}")
    k = len(spec.feature_columns)
    return Dataset(values[:, :k], values[:, k], values[:, k + 1])


# the bytes decoded at a time to check that a file is UTF-8; a chunk's partial last
# character starts the next chunk, so it must hold at least 4 bytes, the longest character
_CHUNK = 1 << 20

# bytes that keep a file from numpy's reader: the four ASCII separators, which
# numpy's float parser strips around a number as spaces and Python's float does not
_NOT_FOR_NUMPY = b"\x1c\x1d\x1e\x1f"


def _line_ends(raw: bytes) -> int:
    """The line ends in ``raw``: csv and numpy alike end a line at ``\\r\\n``, ``\\r`` or ``\\n``."""
    return raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")


def _bulk_cells(path: str, names: tuple[str, ...], rows: int) -> np.ndarray | None:
    """The selected cells as an (n, len(names)) array by numpy's reader, or None when it fails,
    warns, reads a cell as not finite or gives other than ``rows`` rows: ``csv`` and
    ``float`` might read such a file otherwise."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        columns = _selected_columns(csv.reader(fh), path, names)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. "input contained no data"
                values = np.loadtxt(fh, dtype=np.float64, delimiter=",", usecols=columns,
                                    comments=None, quotechar='"', ndmin=2)
        except (ValueError, Warning):
            return None
    # loadtxt skips blank lines, bad rows to csv, and reads a quoted line end into its field
    if len(values) != rows or not np.isfinite(values).all():
        return None
    return values


def _longest_line(raw: bytes) -> int:
    """The length in bytes of the longest line; a line ends at each ``\\r`` and each ``\\n``."""
    a = np.frombuffer(raw, dtype=np.uint8)  # a view: no copy of the bytes
    ends = np.flatnonzero(a <= 13)  # \n is 10 and \r is 13; few other bytes lie at or below 13
    ends = ends[(a[ends] == 10) | (a[ends] == 13)]
    return int(np.diff(ends, prepend=-1, append=len(raw)).max()) - 1


def _selected_columns(reader, path: str, names: tuple[str, ...]) -> list[int]:
    """Read the header row and return the position of each name in it."""
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyFile(f"{path}: no header row") from None
    except csv.Error as exc:
        raise MalformedCsv(f"{path}: header: {exc}") from None
    for name in names:
        if name not in header:
            raise MissingColumn(f"column {name!r} not in header {header}")
        if header.count(name) > 1:
            raise DuplicateColumn(name)
    return [header.index(name) for name in names]


def _checked_cells(path: str, names: tuple[str, ...]) -> np.ndarray:
    """The selected cells as an (n, len(names)) array, read row by row.

    The first bad cell or unparsable row raises.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        columns = _selected_columns(reader, path, names)
        values = []
        row_no = 0  # the last row read; csv.Error comes from the one after it
        try:
            for row_no, row in enumerate(reader, start=1):
                for name, idx in zip(names, columns):
                    try:
                        value = float(row[idx])
                    except (ValueError, IndexError):
                        raise NonNumericCell(row_no, name) from None
                    if not math.isfinite(value):
                        raise NonNumericCell(row_no, name)
                    values.append(value)
        except csv.Error as exc:
            raise MalformedCsv(f"{path}: row {row_no + 1}: {exc}") from None
    return np.array(values).reshape(-1, len(names))


def write_csv(d: Dataset, path: str, spec: ColumnSpec) -> None:
    """Emit a dataset as CSV; :func:`load_csv` reproduces it exactly."""
    if len(spec.feature_columns) != d.d:
        raise ValueError("column spec does not match the feature dimension")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*spec.feature_columns, spec.outcome_column, spec.prediction_column])
        for i in range(d.n):
            writer.writerow(
                [repr(float(v)) for v in d.x[i]]
                + [repr(float(d.y[i])), repr(float(d.y_hat[i]))]
            )


def normalize_features(d: Dataset) -> Dataset:
    """Min-max scale each feature column to [0, 1]; constant columns map to 0.

    A column whose range overflows float64 (say, from -1e308 to 1e308) raises
    ``ValueError`` naming its 0-based position among the features.
    """
    lo = d.x.min(axis=0)
    hi = d.x.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    for j in np.flatnonzero(np.isinf(span)):
        raise ValueError(f"feature {j}: its range, {float(lo[j])!r} to {float(hi[j])!r}, "
                         "overflows float64, so it cannot be min-max scaled")
    safe = np.where(span > 0, span, 1.0)
    scaled = np.where(span > 0, (d.x - lo) / safe, 0.0)
    return Dataset(scaled, d.y, d.y_hat)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    """One line of the multi-L report table."""

    L: int
    mismatched_pairs: int
    swaps_increase: int | None
    swaps_decrease: int | None
    tau: float
    effective_p: float
    rejected: bool
    observed_loss: float
    epsilon_note: str
    validity: ValidityBound | None


@dataclass(frozen=True)
class Report:
    rows: tuple[ReportRow, ...]
    n: int
    d: int
    K: int
    alpha: float
    loss: LossSpec
    metric: DistanceMetric
    master_seed: int
    smoothness_C: float | None


def _epsilon_note(mismatched: int, bound: ValidityBound | None) -> str:
    if mismatched == 0:
        return "epsilon* = 0 (exact pairs)"
    if bound is not None:
        return f"epsilon* <= {bound.epsilon_star:.4g}"
    return "epsilon* unknown (supply --smoothness-C)"


def run_report(
    d: Dataset,
    L_values,
    K: int,
    alpha: float,
    loss: LossSpec,
    metric: DistanceMetric,
    master_seed: int,
    smoothness_C: float | None = None,
) -> Report:
    """Run the test at each L, in the order given, on one greedy matching at the largest L.

    Each test reads the first L pairs of that matching and draws the swap
    mask at its length, so every L reads the one kept mask, and each row is
    bit-identical to a standalone run at that L. When a smoothness constant
    is supplied, every row also carries its validity bounds. The configs,
    C and the loss's fit to ``d`` are checked before the matching runs.
    """
    L_values = _sweep_L_values(L_values)
    cfgs = [TestConfig(L=L, K=K, alpha=alpha, loss=loss, master_seed=master_seed) for L in L_values]
    src = None if smoothness_C is None else Smoothness(smoothness_C)
    loss.check_compatible(d)
    full = greedy_match(d, max(L_values), metric)
    rows = []
    for cfg in cfgs:
        res = expert_test_with_matching(d, full, cfg)
        bound = None if src is None else validity_bound(d, full.prefix(cfg.L), src, alpha, K)
        counts = res.binary_swap_counts
        rows.append(ReportRow(
            L=cfg.L,
            mismatched_pairs=res.mismatch_count,
            swaps_increase=None if counts is None else counts.increase,
            swaps_decrease=None if counts is None else counts.decrease,
            tau=res.tau,
            effective_p=res.effective_p,
            rejected=res.rejected,
            observed_loss=res.observed_loss,
            epsilon_note=_epsilon_note(res.mismatch_count, bound),
            validity=bound,
        ))
    return Report(
        rows=tuple(rows),
        n=d.n,
        d=d.d,
        K=K,
        alpha=alpha,
        loss=loss,
        metric=metric,
        master_seed=master_seed,
        smoothness_C=smoothness_C,
    )


def tau_display(tau: float, K: int) -> str:
    """Presentation rule: exact zeros print as the smallest resolvable level."""
    if tau == 0.0:
        return f"<{1.0 / (K + 1):.3g}"
    return f"{tau:.3g}"


def render_report_table(report: Report) -> str:
    headers = ["L", "mismatched pairs", "swaps increase", "swaps decrease", "tau", "note"]
    body = [
        [
            str(r.L),
            str(r.mismatched_pairs),
            "-" if r.swaps_increase is None else str(r.swaps_increase),
            "-" if r.swaps_decrease is None else str(r.swaps_decrease),
            tau_display(r.tau, report.K),
            r.epsilon_note,
        ]
        for r in report.rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(headers)]
    out = io.StringIO()
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    for row in body:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
    return out.getvalue()


def report_to_json(report: Report) -> dict:
    """JSON document of a report; each row's keys are its :class:`ReportRow` fields."""
    return {
        "config": {
            "n": report.n,
            "d": report.d,
            "K": report.K,
            "alpha": report.alpha,
            "loss": report.loss.describe(),
            "metric": report.metric.describe(),
            "seed": report.master_seed,
            # Smoothness allows C = inf, which strict JSON cannot hold as a number
            "smoothness_C": "inf" if report.smoothness_C == math.inf else report.smoothness_C,
        },
        "rows": [asdict(r) for r in report.rows],
    }


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def parse_loss(text: str) -> LossSpec:
    if text == "zero-one":
        return LossSpec.zero_one()
    if text == "squared":
        return LossSpec.squared_error()
    if text.startswith("weighted:"):
        parts = {}
        for item in text[len("weighted:"):].split(","):
            key, _, value = item.partition("=")
            if key in parts or key not in ("fp", "fn"):
                problem = "repeated" if key in parts else "unknown"
                raise argparse.ArgumentTypeError(f"weighted loss takes fp=<r>,fn=<r> once each: {problem} key {key!r}")
            parts[key] = value
        try:
            return LossSpec.weighted_binary(float(parts["fp"]), float(parts["fn"]))
        except KeyError as exc:
            raise argparse.ArgumentTypeError(f"weighted loss needs fp=<r>,fn=<r>: missing {exc}")
    raise argparse.ArgumentTypeError(
        f"unknown loss {text!r}; expected zero-one | squared | weighted:fp=<r>,fn=<r>"
    )


def parse_metric(text: str) -> DistanceMetric:
    if text == "l2":
        return DistanceMetric.euclidean()
    if text.startswith("weighted:"):
        weights = [float(w) for w in text[len("weighted:"):].split(",")]
        return DistanceMetric.weighted_euclidean(weights)
    raise argparse.ArgumentTypeError(
        f"unknown metric {text!r}; expected l2 | weighted:<w1,...,wd>"
    )


def _smoothness_constant(text: str) -> float:
    """A finite, nonnegative float: the CLI takes only a finite C, while a library
    caller may pass ``Smoothness(math.inf)``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="input CSV file (UTF-8, header row required)")
    p.add_argument("--features", required=True, type=lambda s: s.split(","),
                   help="comma-separated feature column names")
    p.add_argument("--outcome", required=True, help="outcome column name")
    p.add_argument("--prediction", required=True, help="expert prediction column name")
    p.add_argument("--normalize", action="store_true",
                   help="min-max scale each feature to [0,1] before testing")


def _add_run_args(p: argparse.ArgumentParser, K: int) -> None:
    p.add_argument("--resamples", type=int, default=K, help="number of resamples K")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="write machine-readable JSON here")


def _add_test_args(p: argparse.ArgumentParser) -> None:
    _add_data_args(p)
    _add_run_args(p, 1000)
    p.add_argument("--loss", type=parse_loss, default="zero-one",
                   help="zero-one | squared | weighted:fp=<r>,fn=<r>")
    p.add_argument("--metric", type=parse_metric, default="l2",
                   help="l2 | weighted:<w1,...,wd>")
    p.add_argument("--smoothness-C", type=_smoothness_constant, default=None,
                   help="smoothness constant for validity bounds")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call; every later call returns it,
    so neither it nor the list defaults it puts in each namespace may be changed."""
    parser = argparse.ArgumentParser(
        prog="experttest",
        description="Test whether expert predictions carry information beyond recorded features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="run the test once on a CSV file")
    _add_test_args(p)
    p.add_argument("--pairs", required=True, type=int, help="number of pairs L")

    p = sub.add_parser("report", help="multi-L report table on a CSV file")
    _add_test_args(p)
    p.add_argument("--pairs", required=True, type=_int_list,
                   help="comma-separated list of L values")

    p = sub.add_parser("match-stats", help="pair-distance distribution of the greedy matching")
    _add_data_args(p)
    p.add_argument("--pairs", required=True, type=_int_list,
                   help="comma-separated list of L values")
    p.add_argument("--metric", type=parse_metric, default="l2")
    p.add_argument("--json", default=None)

    p = sub.add_parser("toy", help="toy-expert study: rejection rate over repeated draws")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--include-u", action="store_true",
                   help="expose the private signal to the matching (null holds)")
    _add_run_args(p, 100)

    p = sub.add_parser("power", help="power grid over (n, delta), or over L at fixed n/delta")
    p.add_argument("--n-values", type=_int_list, default=[200, 600, 1200])
    p.add_argument("--deltas", type=_float_list,
                   default=[0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5])
    p.add_argument("--pairs-divisor", type=int, default=8, help="use L = n // divisor")
    p.add_argument("--l-values", type=_int_list, default=None,
                   help="sweep L at fixed --n and --delta instead of the (n, delta) grid")
    p.add_argument("--n", type=int, default=600, help="sample size for the L sweep")
    p.add_argument("--delta", type=float, default=0.2, help="expertise for the L sweep")
    p.add_argument("--trials", type=int, default=100)
    _add_run_args(p, 100)

    p = sub.add_parser("validity", help="false-rejection rate vs L on null data")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--l-values", type=_int_list, default=[25, 50, 75, 100, 125, 150, 175, 200, 225, 250])
    p.add_argument("--trials", type=int, default=50)
    _add_run_args(p, 50)

    p = sub.add_parser("mse", help="algorithm vs expert vs rescaled-expert accuracy")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None)

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _load_dataset(args) -> Dataset:
    spec = ColumnSpec(tuple(args.features), args.outcome, args.prediction)
    d = load_csv(args.path, spec)
    if args.normalize:
        d = normalize_features(d)
    return d


def _check_json_path(path: str | None) -> None:
    """Raise what opening ``path`` to write would raise when it is empty, a directory,
    in a missing directory or ends in a slash, so such a run fails before any work;
    no file is created."""
    if path is None:
        return
    if not path:  # os.path.dirname("") is "", so the check below would pass
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    name = path.rstrip(os.sep)
    try:
        os.stat(os.path.join(os.path.dirname(name), "."))  # "." fails unless a directory
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    # creating "name/" in a directory that exists fails whatever name is
    if name != path:
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _write_json(path: str | None, doc: dict) -> None:
    if path is None:
        return
    # encoded before the file opens, so a NaN or inf raises without leaving a partial file
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _emit_csv(records: list[dict]) -> None:
    """Write ``records`` to stdout as CSV, one column per key of the first record, in its order."""
    writer = csv.DictWriter(sys.stdout, records[0].keys(), lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)


def _cmd_test(args) -> int:
    d = _load_dataset(args)
    report = run_report(
        d, [args.pairs], K=args.resamples, alpha=args.alpha, loss=args.loss,
        metric=args.metric, master_seed=args.seed, smoothness_C=args.smoothness_C,
    )
    row = report.rows[0]
    verdict = "REJECT H0 (expert adds information)" if row.rejected else "fail to reject H0"
    print(f"n={d.n} d={d.d} L={row.L} K={report.K} alpha={report.alpha}")
    print(f"observed loss = {row.observed_loss:.6g}")
    print(f"mismatched pairs = {row.mismatched_pairs} ({row.epsilon_note})")
    if row.swaps_increase is not None:
        print(f"swaps that increase loss = {row.swaps_increase}, decrease = {row.swaps_decrease}")
    print(f"tau = {tau_display(row.tau, report.K)}  effective p-value = {row.effective_p:.6g}")
    if row.validity is not None:
        v = row.validity
        # a zero level is not a verdict, so the line says which rule the verdict uses
        note = (" (Theorem 1 leaves no level at this L; the verdict below is tau <= alpha)"
                if v.adjusted_threshold == 0 else "")
        print(
            f"type-I bounds: theorem {v.theorem1_bound:.4g}, union {v.union_bound:.4g}; "
            f"adjusted threshold = {v.adjusted_threshold:.4g}{note}"
        )
    print(verdict)
    _write_json(args.json, report_to_json(report))
    return 0


def _cmd_report(args) -> int:
    d = _load_dataset(args)
    report = run_report(
        d, args.pairs, K=args.resamples, alpha=args.alpha, loss=args.loss,
        metric=args.metric, master_seed=args.seed, smoothness_C=args.smoothness_C,
    )
    sys.stdout.write(render_report_table(report))
    _write_json(args.json, report_to_json(report))
    return 0


def _cmd_match_stats(args) -> int:
    d = _load_dataset(args)
    L_values = _sweep_L_values(args.pairs)
    full = greedy_match(d, max(L_values), args.metric)
    records = []
    for L in L_values:
        s = pair_distance_summary(full.prefix(L))
        records.append({"L": L, "count": s.count, "zero_count": s.zero_count,
                        "min": s.minimum, "q1": s.q1, "median": s.median,
                        "q3": s.q3, "max": s.maximum})
    _emit_csv(records)
    _write_json(args.json, {"match_stats": records})
    return 0


def _cmd_toy(args) -> int:
    res = run_toy_study(
        n=args.n, trials=args.trials, L=args.pairs, K=args.resamples,
        alpha=args.alpha, include_u=args.include_u, master_seed=args.seed,
    )
    _emit_csv([{"trial": t, "tau": tau, "rejected": int(rejected)}
               for t, (tau, rejected) in enumerate(zip(res.taus, res.rejected))])
    print(f"# rejection rate = {res.rejection_rate:.4g} over {res.trials} trials", file=sys.stderr)
    _write_json(args.json, {
        "n": args.n, "L": args.pairs, "K": args.resamples, "alpha": args.alpha,
        "include_u": args.include_u, "seed": args.seed,
        "taus": list(res.taus), "rejection_rate": res.rejection_rate,
    })
    return 0


def _cmd_power(args) -> int:
    if args.l_values is not None:
        cells = run_power_vs_L(
            n=args.n, delta=args.delta, L_values=args.l_values, K=args.resamples,
            alpha=args.alpha, trials=args.trials, master_seed=args.seed,
        )
    else:
        if args.pairs_divisor < 1:
            raise ValueError(f"--pairs-divisor must be at least 1, got {args.pairs_divisor}")
        cells = run_power_curve(
            args.n_values, args.deltas, lambda n: n // args.pairs_divisor,
            K=args.resamples, alpha=args.alpha, trials=args.trials, master_seed=args.seed,
        )
    records = [dict(asdict(c), rate=c.rate) for c in cells]
    _emit_csv(records)
    _write_json(args.json, {"cells": records})
    return 0


def _cmd_validity(args) -> int:
    cells = run_type1_curve(
        n=args.n, L_values=args.l_values, K=args.resamples,
        alpha=args.alpha, trials=args.trials, master_seed=args.seed,
    )
    records = [dict(asdict(c), rate=c.rate) for c in cells]
    _emit_csv(records)
    _write_json(args.json, {"n": args.n, "cells": records})
    return 0


def _cmd_mse(args) -> int:
    res = mse_comparison(n=args.n, trials=args.trials, seed=args.seed)
    summaries = {"algorithm_mse": res.algorithm, "human_mse": res.human,
                 "rescaled_human_mse": res.rescaled}
    _emit_csv([{"column": name, **asdict(s)} for name, s in summaries.items()])
    _write_json(args.json, {"n": res.n, "trials": res.trials,
                            **{name: asdict(s) for name, s in summaries.items()}})
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "report": _cmd_report,
    "match-stats": _cmd_match_stats,
    "toy": _cmd_toy,
    "power": _cmd_power,
    "validity": _cmd_validity,
    "mse": _cmd_mse,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_json_path(args.json)
        return _COMMANDS[args.command](args)
    except (ExpertTestError, ValueError, OSError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
