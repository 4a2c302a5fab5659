"""Compare the command-line outputs of two source trees, command by command.

Run from anywhere::

    python bench/compare_outputs.py <tree-a> <tree-b>

Each tree is a source checkout holding ``src/experttest``. Every command in
``COMMANDS`` runs once per seed (once in all, if it takes no seed) as
``python -m experttest.cli`` in a fresh process with ``PYTHONPATH`` set to
the tree's ``src``. Both trees read the same inputs, which this script
writes to a temporary directory: an audit-like CSV of recorded binary
decisions (two integer features, two lab values to one decimal place,
duplicate records), a validity cube rounded to one decimal place, and eight
unusual CSVs of the first audit rows, each read by ``test``: CRLF line ends
after a byte-order mark; quoted, padded and ``7_4``-style cells; R's
``write.csv`` layout (a quoted header and quoted row names in an unnamed
first column); bare-CR line ends; a blank line; a short row; a ``nan`` cell;
and a 200 000-character field in an unselected column. The last four exit 1, so a change to the CSV reader is
compared on its error messages too. So do three ``report`` runs whose test
parameters are bad: ``--resamples 0``, ``--resamples 4294967296`` (more
than the swap streams a seed provides) and the default zero-one loss on
the cube, whose outcomes are not binary; a change to where parameters are
checked is compared on its errors. A run differs when its exit code,
stdout, stderr or ``--json`` file differs between the trees. Each differing
run is listed, with both sides' stderr when that is what differs, and the
exit code is 1 if any run differs. A change that keeps every output lists
none.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

AUDIT = ["{audit}", "--features", "age,visits,hgb,creatinine", "--outcome", "outcome",
         "--prediction", "decision", "--normalize"]
REPORT = ["report", *AUDIT, "--pairs", "500,60,250", "--resamples", "300", "--smoothness-C", "2.0",
          "--seed", "{seed}"]
CUBE = ["report", "{cube}", "--features", "x1,x2,x3", "--outcome", "y", "--prediction", "y_hat",
        "--pairs", "150,40", "--resamples", "200"]
SAMPLED = ["--resamples", "200", "--trials", "5", "--seed", "{seed}"]

COMMANDS = {
    "report-zero-one": [*REPORT, "--loss", "zero-one"],
    "report-squared": [*REPORT, "--loss", "squared"],
    "report-weighted": [*REPORT, "--loss", "weighted:fp=0.3,fn=0.5"],
    "report-weighted-free": [*REPORT, "--loss", "weighted:fp=0,fn=0"],
    "report-weighted-metric": [*REPORT, "--metric", "weighted:1,0.5,2,0"],
    "report-bad-L": ["report", *AUDIT, "--pairs", "500,0", "--resamples", "300"],
    "report-K-zero": ["report", *AUDIT, "--pairs", "500,60", "--resamples", "0"],
    "report-K-too-many": ["report", *AUDIT, "--pairs", "500,60", "--resamples", "4294967296"],
    "report-cube-squared": [*CUBE, "--loss", "squared", "--seed", "{seed}"],
    "report-cube-zero-one": CUBE,
    "test": ["test", *AUDIT, "--pairs", "400", "--resamples", "300", "--smoothness-C", "1.0",
             "--seed", "{seed}"],
    "match-stats": ["match-stats", *AUDIT, "--pairs", "50,400,200"],
    **{f"test-{name}": ["test", "{%s}" % name, *AUDIT[1:], "--pairs", "100", "--resamples", "200",
                        "--seed", "{seed}"]
       for name in ("crlf_bom", "quoted", "r_export", "mac_cr", "blank_line", "short_row",
                    "nan_cell", "long_field")},
    "power-grid": ["power", "--n-values", "200,600", "--deltas", "0,0.1,0.3", *SAMPLED],
    "power-sweep": ["power", "--l-values", "20,80,40", "--n", "400", "--delta", "0.2", *SAMPLED],
    "power-bad-delta": ["power", "--n-values", "200,600", "--deltas", "0.1,0.7", *SAMPLED],
    "validity": ["validity", "--n", "200", "--l-values", "10,100,50", *SAMPLED],
    "toy": ["toy", "--n", "300", "--pairs", "50", *SAMPLED],
    "mse": ["mse", "--n", "200", "--trials", "10", "--seed", "{seed}"],
}
SEEDS = [0, 7, 42]


def write_inputs(folder: Path) -> dict:
    """Write the two input CSVs and return their paths by placeholder name."""
    rng = np.random.default_rng(20)
    n = 2000
    age = rng.integers(18, 90, n)
    visits = rng.integers(0, 12, n)
    hgb = np.round(rng.uniform(8.0, 17.0, n), 1)
    creatinine = np.round(rng.uniform(0.5, 3.0, n), 1)
    signal = rng.standard_normal(n)  # seen by the decision, not recorded as a feature
    outcome = (signal + 0.02 * (age - 50) + rng.standard_normal(n) > 0).astype(int)
    decision = (signal + 0.5 * rng.standard_normal(n) > 0).astype(int)
    rows = np.column_stack([age, visits, hgb, creatinine, outcome, decision])
    rows[n // 2:n // 2 + 200] = rows[:200]  # duplicate records pair at distance 0
    header = ["age", "visits", "hgb", "creatinine", "outcome", "decision"]
    audit = folder / "audit.csv"
    _write_csv(audit, header, rows)
    paths = {"audit": str(audit)}
    for name, text in _unusual_csvs(header, rows[:400]).items():
        path = folder / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        paths[name] = str(path)

    x = np.round(rng.uniform(0.0, 10.0, (400, 3)), 1)
    s = x.sum(axis=1)
    y = np.round(s + rng.standard_normal(400), 1)
    y_hat = np.round(s + rng.standard_normal(400), 1)
    cube = folder / "cube.csv"
    _write_csv(cube, ["x1", "x2", "x3", "y", "y_hat"], np.column_stack([x, y, y_hat]))
    return {**paths, "cube": str(cube)}


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    path.write_text("\n".join(_lines(header, rows)) + "\n", encoding="utf-8")


def _lines(header: list[str], rows: np.ndarray) -> list[str]:
    return [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]


def _unusual_csvs(header: list[str], rows: np.ndarray) -> dict:
    """CSV texts of the same records that a reader may take otherwise than a plain file."""
    lines = _lines(header, rows)
    # the age as "7_4", the visit count quoted, the lab values padded
    odd = [",".join(header)] + [
        f'{int(a) // 10}_{int(a) % 10},"{v!r}", {h!r}\t,\u3000{c!r},{o!r},{d!r}'
        for a, v, h, c, o, d in rows.tolist()
    ]
    # R's write.csv quotes the header and the row names, in a first column named ""
    r_export = ['"",' + ",".join(f'"{name}"' for name in header)] + [
        f'"{i}",{line}' for i, line in enumerate(lines[1:], start=1)
    ]
    nan_cell = lines.copy()
    nan_cell[90] = ",".join(nan_cell[90].split(",")[:3] + ["nan"] + nan_cell[90].split(",")[4:])
    long_field = [lines[0] + ",note"] + [line + ",ok" for line in lines[1:]]
    long_field[120] = long_field[120][:-2] + "x" * 200_000
    return {
        "crlf_bom": "\ufeff" + "\r\n".join(lines) + "\r\n",
        "quoted": "\n".join(odd) + "\n",
        "r_export": "\n".join(r_export) + "\n",
        "mac_cr": "\r".join(lines) + "\r",
        "blank_line": "\n".join(lines[:200] + [""] + lines[200:]) + "\n",
        "short_row": "\n".join(lines[:150] + [lines[150].rsplit(",", 2)[0]] + lines[151:]) + "\n",
        "nan_cell": "\n".join(nan_cell) + "\n",
        "long_field": "\n".join(long_field) + "\n",
    }


def run(tree: str, argv: list[str], json_path: Path) -> tuple:
    """Exit code, stdout, stderr and ``--json`` file bytes (None if not written) of one run."""
    json_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "experttest.cli", *argv, "--json", str(json_path)],
        env={**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")},
        capture_output=True, text=True, timeout=600,
    )
    written = json_path.read_bytes() if json_path.exists() else None
    return proc.returncode, proc.stdout, proc.stderr, written


def compare(tree_a: str, tree_b: str, names: list[str], seeds: list[int]) -> list[tuple]:
    """Every differing run as ``(name, seed, parts, stderr_a, stderr_b)``; prints one line per run."""
    differing = []
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        inputs = write_inputs(folder)
        for name in names:
            template = COMMANDS[name]
            for seed in seeds if "{seed}" in template else seeds[:1]:
                argv = [a.format(seed=seed, **inputs) for a in template]
                a = run(tree_a, argv, folder / "a.json")
                b = run(tree_b, argv, folder / "b.json")
                parts = [part for part, x, y in zip(("exit", "stdout", "stderr", "json"), a, b)
                         if x != y]
                print(f"{name} seed={seed}: exit {a[0]}, " + (f"differs in {', '.join(parts)}"
                                                              if parts else "same"))
                if parts:
                    differing.append((name, seed, parts, a[2], b[2]))
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    args = parser.parse_args(argv)
    differing = compare(args.tree_a, args.tree_b, list(COMMANDS), SEEDS)
    for name, seed, parts, err_a, err_b in differing:
        if "stderr" in parts:
            print(f"{name} seed={seed} stderr:\n  a: {err_a.strip()}\n  b: {err_b.strip()}")
    commands = sorted({name for name, *_ in differing})
    print(f"{len(differing)} differing runs; {len(commands)} of {len(COMMANDS)} commands differ"
          + (f": {', '.join(commands)}" if commands else ""))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
