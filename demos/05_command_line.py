"""The same audit driven through the command line.

Writes a synthetic CSV in the shape of a triage audit (binary decisions and
outcomes, features normalized to [0, 1]) and runs the `experttest` CLI on it.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from experttest import ExpertiseConfig, gen_expertise_pairs
from experttest.cli import ColumnSpec, write_csv


def run(args):
    print("$", " ".join(args))
    proc = subprocess.run(args, capture_output=True, text=True)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        print(proc.stderr, end="", file=sys.stderr)
    print()
    return proc


with tempfile.TemporaryDirectory(prefix="experttest-demo-") as workdir:
    csv_path = Path(workdir) / "audit.csv"
    json_path = Path(workdir) / "report.json"

    write_csv(
        gen_expertise_pairs(ExpertiseConfig(n=800, delta=0.25, seed=3)),
        str(csv_path),
        ColumnSpec(("score",), "outcome", "decision"),
    )

    base = [sys.executable, "-m", "experttest.cli"]
    data_args = [
        str(csv_path), "--features", "score", "--outcome", "outcome",
        "--prediction", "decision", "--normalize",
    ]

    run(base + ["test", *data_args, "--pairs", "200", "--resamples", "1000", "--seed", "5"])
    run(base + ["report", *data_args, "--pairs", "50,100,200,400",
                "--resamples", "1000", "--seed", "5", "--json", str(json_path)])
    run(base + ["match-stats", *data_args, "--pairs", "100,400"])

    doc = json.loads(json_path.read_text())

print("machine-readable taus from the JSON document:")
for row in doc["rows"]:
    print(f"  L={row['L']:<4} tau={row['tau']:.6f} rejected={row['rejected']}")
