"""The three benchmark workloads: seeded inputs, CLI argv, expected outputs and checks.

Each workload is one ``experttest`` CLI invocation (an *op*). Its inputs are
generated from the benchmark seed alone, and the program sees only the files
written here and the argv built here.

* ``audit``: ``report`` on a 4000-row CSV of recorded binary decisions. Dense
  greedy matching is about 95% of the op and its O(n^2) arrays set peak
  memory; integer-valued features and lab values at reporting precision give
  many exact distance ties, so the lexicographic tie-break is exercised.
* ``power``: ``power`` grid on the paired-expertise world. Matching runs once
  per n; the engine (K RNG streams per test, exact-integer binary compare)
  is about 97% of the op (measured; about 85% was expected).
* ``validity``: ``validity`` curve on the cube with squared loss. Matching
  runs every trial at L = n/2, so the greedy scan goes deep; the engine takes
  the float compare path for 10 L values. About half matching, half engine.
"""

import csv
import json
import math
import os

import numpy as np

import reference as ref

NAMES = ("audit", "power", "validity")

AUDIT_N = 4000
AUDIT_COLUMNS = ("age", "visits", "hgb", "creatinine")
AUDIT_L = (125, 250, 500, 1000)
AUDIT_K = 1000
AUDIT_C = 2.0
ALPHA = 0.05  # the CLI default, used by every workload

POWER_N = (200, 600, 1200)
POWER_DELTAS = (0.0, 0.1, 0.2)
POWER_DIVISOR = 8  # the CLI default: L = n // 8
POWER_K = 1000
POWER_TRIALS = 20

VALIDITY_N = 500
VALIDITY_L = (25, 50, 75, 100, 125, 150, 175, 200, 225, 250)  # the CLI default
VALIDITY_K = 200
VALIDITY_TRIALS = 20

_AUDIT_STREAM = 0xA0D1


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def audit_records(seed: int):
    """A clinic's recorded decisions: features, outcome, and the clinician's call.

    Age and visit count are integers; haemoglobin and creatinine are lab
    values reported to one decimal place. The clinician also sees a private
    signal that drives the outcome, so the test has something to find.
    """
    rng = np.random.default_rng([seed & ref.U64, _AUDIT_STREAM])
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
    return x, y, y_hat


def write_audit_csv(path: str, x, y, y_hat) -> None:
    """``repr`` floats, so ``float(cell)`` reads every value back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*AUDIT_COLUMNS, "outcome", "decision"])
        for row, yi, pi in zip(x.tolist(), y.tolist(), y_hat.tolist()):
            writer.writerow([repr(v) for v in row] + [repr(yi), repr(pi)])


def read_audit_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    values = np.array([[float(c) for c in row] for row in rows])
    return values[:, :4], values[:, 4], values[:, 5]


def prepare(name: str, seed: int, workdir: str) -> list[str]:
    """Write the workload's input files under ``workdir`` and return its argv."""
    if name == "audit":
        csv_path = os.path.join(workdir, "audit.csv")
        write_audit_csv(csv_path, *audit_records(seed))
        return [
            "report", csv_path,
            "--features", ",".join(AUDIT_COLUMNS), "--outcome", "outcome",
            "--prediction", "decision", "--normalize",
            "--pairs", _ints(AUDIT_L), "--resamples", str(AUDIT_K),
            "--loss", "zero-one", "--smoothness-C", repr(AUDIT_C),
            "--seed", str(seed), "--json", os.path.join(workdir, "report.json"),
        ]
    if name == "power":
        return [
            "power", "--n-values", _ints(POWER_N), "--deltas", ",".join(map(repr, POWER_DELTAS)),
            "--resamples", str(POWER_K), "--trials", str(POWER_TRIALS), "--seed", str(seed),
        ]
    if name == "validity":
        return [
            "validity", "--n", str(VALIDITY_N), "--resamples", str(VALIDITY_K),
            "--trials", str(VALIDITY_TRIALS), "--seed", str(seed),
        ]
    raise ValueError(f"unknown workload {name!r}")


def output_of(name: str, workdir: str, stdout: str) -> str:
    """The op's checked output: the report JSON for ``audit``, stdout CSV otherwise."""
    if name == "audit":
        with open(os.path.join(workdir, "report.json"), encoding="utf-8") as fh:
            return fh.read()
    return stdout


def expected(name: str, seed: int, workdir: str):
    """Reference output, from the literal procedure on the same seeded inputs.

    For ``audit`` the CSV the program reads is also checked to round-trip
    exactly to the generated values.
    """
    if name == "audit":
        x, y, y_hat = audit_records(seed)
        back = read_audit_csv(os.path.join(workdir, "audit.csv"))
        for want, got in zip((x, y, y_hat), back):
            if not np.array_equal(want, got):
                raise AssertionError("audit CSV does not read back to the generated values")
        return ref.audit_report(x, y, y_hat, AUDIT_L, AUDIT_K, ALPHA, AUDIT_C, seed)
    if name == "power":
        return ref.power_cells(POWER_N, POWER_DELTAS, POWER_DIVISOR, POWER_K, ALPHA, POWER_TRIALS, seed)
    return ref.validity_cells(VALIDITY_N, VALIDITY_L, VALIDITY_K, ALPHA, VALIDITY_TRIALS, seed)


# ---------------------------------------------------------------------------
# Checks: an op's output against the reference, plus invariants
# ---------------------------------------------------------------------------


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def _check_audit(text: str, want: dict) -> list[str]:
    doc = json.loads(text)
    errors = []
    config = doc["config"]
    for key in ("n", "d", "K", "seed"):
        if config[key] != want[key]:
            errors.append(f"config.{key}: {config[key]!r} != {want[key]!r}")
    if len(doc["rows"]) != len(want["rows"]):
        return errors + [f"{len(doc['rows'])} rows, expected {len(want['rows'])}"]
    K = want["K"]
    for got, exp in zip(doc["rows"], want["rows"]):
        tag = f"L={exp['L']}"
        for key in ("L", "mismatched_pairs", "swaps_increase", "swaps_decrease",
                    "tau", "effective_p", "rejected", "observed_loss"):
            if got[key] != exp[key]:
                errors.append(f"{tag} {key}: {got[key]!r} != {exp[key]!r}")
        for key, value in exp["validity"].items():
            if not _close((got["validity"] or {}).get(key), value):
                errors.append(f"{tag} validity.{key}: {got['validity']!r} vs {value!r}")
        tau = got["tau"]
        if round(tau * K) / K != tau:
            errors.append(f"{tag} tau*K = {tau * K!r} is not an integer")
        if got["effective_p"] != tau + 1.0 / (K + 1):
            errors.append(f"{tag} effective_p != tau + 1/(K+1)")
        if got["rejected"] != (tau <= ALPHA):
            errors.append(f"{tag} rejected != (tau <= alpha)")
    return errors


def _check_cells(text: str, want: list[dict]) -> list[str]:
    rows = list(csv.DictReader(text.splitlines()))
    if len(rows) != len(want):
        return [f"{len(rows)} cells, expected {len(want)}"]
    errors = []
    for got, exp in zip(rows, want):
        tag = ",".join(f"{k}={v}" for k, v in exp.items() if k in ("n", "delta", "L"))
        for key, value in exp.items():
            if type(value)(got[key]) != value:
                errors.append(f"{tag} {key}: {got[key]!r} != {value!r}")
        rejections, trials = int(got["rejections"]), int(got["trials"])
        if not 0 <= rejections <= trials:
            errors.append(f"{tag} rejections {rejections} outside [0, {trials}]")
        if float(got["rate"]) != rejections / trials:
            errors.append(f"{tag} rate != rejections / trials")
    return errors


def check(name: str, text: str, want) -> list[str]:
    """Every way ``text`` differs from the reference; empty when the op is correct."""
    try:
        if name == "audit":
            return _check_audit(text, want)
        return _check_cells(text, want)
    except (KeyError, TypeError, ValueError) as exc:  # malformed output
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
