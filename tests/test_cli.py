import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from experttest import cli
from experttest.cli import (
    ColumnSpec,
    DuplicateColumn,
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    load_csv,
    main,
    normalize_features,
    parse_loss,
    parse_metric,
    render_report_table,
    report_to_json,
    run_report,
    tau_display,
    write_csv,
)
from experttest.core import Dataset, DistanceMetric, LossSpec
from experttest.engine import TestConfig, expert_test
from experttest.synthgen import (
    ExpertiseConfig,
    gen_expertise_pairs,
    gen_validity_cube,
    mse_comparison,
)

SPEC = ColumnSpec(("f1", "f2"), "y", "yhat")
ROOT = Path(__file__).resolve().parents[1]


def write_rows(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")


class TestLoadCsv:
    def test_basic_shape(self, tmp_path):
        p = tmp_path / "d.csv"
        write_rows(p, ["f1", "f2", "y", "yhat"], [[0, 1, 0, 0], [1, 0, 1, 1], [2, 2, 0, 1]])
        d = load_csv(str(p), SPEC)
        assert d.n == 3 and d.d == 2
        assert d.x[2].tolist() == [2.0, 2.0]

    def test_extra_columns_ignored_and_order_preserved(self, tmp_path):
        p = tmp_path / "d.csv"
        write_rows(p, ["id", "y", "f1", "f2", "yhat"], [[9, 1, 5, 6, 0], [8, 0, 7, 8, 1]])
        d = load_csv(str(p), SPEC)
        assert d.x.tolist() == [[5.0, 6.0], [7.0, 8.0]]
        assert d.y.tolist() == [1.0, 0.0]

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        write_rows(p, ["f1", "y", "yhat"], [[0, 0, 0]])
        with pytest.raises(MissingColumn):
            load_csv(str(p), SPEC)

    def test_byte_order_mark_dropped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes("f1,f2,y,yhat\n0,1,0,0\n1,0,1,1\n".encode("utf-8-sig"))
        d = load_csv(str(p), SPEC)
        assert d.x.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_duplicate_selected_column_named(self, tmp_path):
        p = tmp_path / "d.csv"
        write_rows(p, ["f1", "f2", "y", "f2", "yhat"], [[0, 1, 0, 5, 0], [1, 0, 1, 6, 1]])
        with pytest.raises(DuplicateColumn) as err:
            load_csv(str(p), SPEC)
        assert err.value.column == "f2"
        # a repeated column the spec does not select is harmless
        write_rows(p, ["id", "f1", "id", "f2", "y", "yhat"], [[7, 0, 7, 1, 0, 0], [8, 2, 8, 3, 1, 1]])
        assert load_csv(str(p), SPEC).x.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_blank_cell_is_an_error_not_imputed(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,y,yhat\n0,1,0,0\n1,,1,1\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(str(p), SPEC)
        assert err.value.row == 2
        assert err.value.column == "f2"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        # in the first, a middle and the last data row
        for row in (1, 2, 3):
            rows = [["0", "1", "0", "0"], ["1", "2", "1", "1"], ["2", "3", "1", "0"]]
            rows[row - 1][2] = cell
            write_rows(p, ["f1", "f2", "y", "yhat"], rows)
            with pytest.raises(NonNumericCell) as err:
                load_csv(str(p), SPEC)
            assert (err.value.row, err.value.column) == (row, "y")

    @pytest.mark.parametrize(
        "line, column",
        [("", "f1"), ("7,8", "y"), ("7,8,1,abc", "yhat"), ("7,1e,1,0", "f2")],
        ids=["blank_line", "short_row", "non_numeric", "bad_exponent"],
    )
    def test_bad_row_names_row_and_column(self, tmp_path, line, column):
        p = tmp_path / "d.csv"
        rows = ["0,1,0,0", "1,2,1,1", "2,3,1,0"]
        for row in (1, 2, 3):
            p.write_text("\n".join(["f1,f2,y,yhat", *rows[: row - 1], line, *rows[row:]]) + "\n")
            with pytest.raises(NonNumericCell) as err:
                load_csv(str(p), SPEC)
            assert (err.value.row, err.value.column) == (row, column)

    def test_first_bad_cell_is_named(self, tmp_path):
        # the bulk pass stops at the non-numeric cell in row 3; the rescan
        # still names the non-finite cell before it
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,y,yhat\n0,1,0,0\n1,inf,1,1\n2,3,x,0\n")
        with pytest.raises(NonNumericCell) as err:
            load_csv(str(p), SPEC)
        assert (err.value.row, err.value.column) == (2, "f2")

    def test_cells_read_as_python_float(self, tmp_path):
        cells = [" 1.5", "1_000", "+1e-3", "1E5", "-0", '"2.5"', "7", "-3.25"]
        p = tmp_path / "d.csv"
        lines = [",".join(cells[i : i + 4]) for i in range(0, len(cells), 4)]
        p.write_text("\n".join(["f1,f2,y,yhat", *lines]) + "\n")
        d = load_csv(str(p), SPEC)
        got = np.column_stack([d.x, d.y, d.y_hat]).ravel()
        want = np.array([float(c.strip('"')) for c in cells])
        assert got.tobytes() == want.tobytes()  # bit for bit, so -0 keeps its sign

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(str(p), SPEC)

    def test_round_trip_exact(self, tmp_path):
        d = gen_validity_cube(40, 3)
        spec = ColumnSpec(("a", "b", "c"), "y", "yhat")
        p = tmp_path / "out.csv"
        write_csv(d, str(p), spec)
        assert load_csv(str(p), spec) == d

    def test_column_roles_disjoint(self):
        with pytest.raises(ValueError):
            ColumnSpec(("y",), "y", "yhat")


class TestNormalizeFeatures:
    def test_min_max_example(self):
        d = Dataset([[2.0], [4.0], [6.0]], [0, 0, 0], [0, 0, 0])
        out = normalize_features(d)
        assert out.x[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        d = Dataset([[5.0], [5.0], [5.0]], [0, 0, 0], [0, 0, 0])
        assert normalize_features(d).x[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_idempotent_on_spanning_columns(self):
        rng = np.random.default_rng(0)
        x = rng.random((20, 3))
        x[0] = 0.0
        x[1] = 1.0
        d = Dataset(x, np.zeros(20), np.zeros(20))
        once = normalize_features(d)
        assert normalize_features(once) == once

    def test_outcomes_untouched(self):
        d = Dataset([[2.0], [6.0]], [3.0, 4.0], [5.0, 6.0])
        out = normalize_features(d)
        assert out.y.tolist() == [3.0, 4.0]
        assert out.y_hat.tolist() == [5.0, 6.0]


class TestRunReport:
    def test_rows_match_standalone_tests(self):
        # rows come out in the caller's order, whatever order the L values
        # are tested in, and a repeated L gives the same row twice
        d = gen_expertise_pairs(ExpertiseConfig(n=400, delta=0.3, seed=4))
        loss, metric = LossSpec.zero_one(), DistanceMetric.euclidean()
        for L_values in ([25, 100, 200], [200, 100, 25], [100, 25, 200], [100, 25, 100, 200]):
            report = run_report(d, L_values, K=300, alpha=0.05, loss=loss,
                                metric=metric, master_seed=12)
            assert [row.L for row in report.rows] == L_values
            for row in report.rows:
                cfg = TestConfig(L=row.L, K=300, alpha=0.05, loss=loss, metric=metric, master_seed=12)
                res = expert_test(d, cfg)
                assert (row.tau, row.effective_p, row.observed_loss) == (
                    res.tau, res.effective_p, res.observed_loss
                )
                assert row.mismatched_pairs == res.mismatch_count
                assert row.swaps_increase == res.binary_swap_counts.increase

    def test_tau_shrinks_with_more_pairs_and_sentinel_appears(self):
        # stronger evidence accumulates with L; at K=1000 the L=500 row
        # reaches an exact zero and prints the sentinel
        d = gen_expertise_pairs(ExpertiseConfig(n=2000, delta=0.4, seed=10))
        report = run_report(
            d, [100, 500], K=1000, alpha=0.05,
            loss=LossSpec.zero_one(), metric=DistanceMetric.euclidean(), master_seed=0,
        )
        taus = [row.tau for row in report.rows]
        assert taus[1] <= taus[0]
        assert taus[1] == 0.0
        table = render_report_table(report)
        assert "<" in table.splitlines()[2]

    def test_json_is_deterministic_and_numeric(self):
        d = gen_validity_cube(120, 8)
        kw = dict(K=40, alpha=0.05, loss=LossSpec.squared_error(),
                  metric=DistanceMetric.euclidean(), master_seed=5, smoothness_C=1.0)
        a = json.dumps(report_to_json(run_report(d, [10, 30], **kw)), sort_keys=True)
        b = json.dumps(report_to_json(run_report(d, [10, 30], **kw)), sort_keys=True)
        assert a == b
        doc = json.loads(a)
        row = doc["rows"][1]
        assert isinstance(row["tau"], float)
        assert row["validity"] is not None
        assert row["validity"]["union_bound"] >= row["validity"]["theorem1_bound"] - 1e-12

    def test_infinite_smoothness_written_as_strict_json(self, tmp_path):
        # Smoothness(inf) is allowed in the library; its JSON must still parse
        # under a strict reader that has no Infinity literal
        d = gen_validity_cube(60, 2)
        report = run_report(d, [5, 20], K=20, alpha=0.05, loss=LossSpec.squared_error(),
                            metric=DistanceMetric.euclidean(), master_seed=0,
                            smoothness_C=math.inf)
        doc = report_to_json(report)
        assert doc["config"]["smoothness_C"] == "inf"
        path = tmp_path / "report.json"
        cli._write_json(str(path), doc)

        def refuse(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        assert json.loads(path.read_text(), parse_constant=refuse) == doc

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_json_refuses_non_finite_numbers(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._write_json(str(path), {"cells": [{"rate": value}]})
        assert not path.exists()

    def test_epsilon_annotations(self):
        exact = gen_expertise_pairs(ExpertiseConfig(n=100, delta=0.1, seed=1))
        rep = run_report(exact, [20], K=20, alpha=0.05, loss=LossSpec.zero_one(),
                         metric=DistanceMetric.euclidean(), master_seed=1)
        assert "epsilon* = 0" in rep.rows[0].epsilon_note

        fuzzy = gen_validity_cube(100, 1)
        rep = run_report(fuzzy, [20], K=20, alpha=0.05, loss=LossSpec.squared_error(),
                         metric=DistanceMetric.euclidean(), master_seed=1)
        assert "supply --smoothness-C" in rep.rows[0].epsilon_note

        rep = run_report(fuzzy, [20], K=20, alpha=0.05, loss=LossSpec.squared_error(),
                         metric=DistanceMetric.euclidean(), master_seed=1, smoothness_C=2.0)
        assert "epsilon* <=" in rep.rows[0].epsilon_note

    def test_sentinel_formatting(self):
        assert tau_display(0.0, 1000).startswith("<")
        assert tau_display(0.061, 1000) == "0.061"


def clinical_format_fixture(tmp_path):
    # nine discretized features with binary outcome and prediction, the data
    # shape of a hospital triage audit
    rng = np.random.default_rng(99)
    n = 400
    x = rng.integers(0, 3, size=(n, 9)).astype(float) / 2.0
    y = rng.integers(0, 2, n).astype(float)
    yhat = rng.integers(0, 2, n).astype(float)
    names = [f"c{i}" for i in range(9)]
    p = tmp_path / "clinical.csv"
    rows = [list(x[i]) + [y[i], yhat[i]] for i in range(n)]
    write_rows(p, names + ["outcome", "admitted"], rows)
    return p, names


class TestCliMain:
    def test_report_table_has_expected_columns(self, tmp_path, capsys):
        p, names = clinical_format_fixture(tmp_path)
        code = main([
            "report", str(p), "--features", ",".join(names),
            "--outcome", "outcome", "--prediction", "admitted",
            "--pairs", "50,100", "--resamples", "100", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        for col in ("L", "mismatched pairs", "swaps increase", "swaps decrease", "tau"):
            assert col in header
        assert len(out.splitlines()) == 3

    def test_test_subcommand_json(self, tmp_path, capsys):
        p, names = clinical_format_fixture(tmp_path)
        out_json = tmp_path / "run.json"
        code = main([
            "test", str(p), "--features", ",".join(names),
            "--outcome", "outcome", "--prediction", "admitted",
            "--pairs", "60", "--resamples", "50", "--seed", "3",
            "--normalize", "--smoothness-C", "2.0", "--json", str(out_json),
        ])
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["config"]["K"] == 50
        assert doc["rows"][0]["L"] == 60
        assert doc["rows"][0]["validity"] is not None

    def test_huge_finite_smoothness_constant_reports_trivial_bound(self, tmp_path):
        p, names = clinical_format_fixture(tmp_path)
        out_json = tmp_path / "run.json"
        code = main([
            "report", str(p), "--features", ",".join(names),
            "--outcome", "outcome", "--prediction", "admitted",
            "--pairs", "60", "--resamples", "50", "--seed", "3",
            "--normalize", "--smoothness-C", "1e200", "--json", str(out_json),
        ])
        assert code == 0
        row = json.loads(out_json.read_text())["rows"][0]
        assert row["mismatched_pairs"] > 0
        assert row["validity"]["epsilon_star"] == 0.5

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_costs_whose_sum_overflows_report_a_finite_loss(self, tmp_path):
        # each cost is finite but fp_cost * n_fp + fn_cost * n_fn is not; the
        # mean is at most the larger cost, so the JSON must hold it
        rng = np.random.default_rng(7)
        x = rng.integers(0, 4, (200, 2)).astype(float)
        y, y_hat = rng.integers(0, 2, (2, 200)).astype(float)
        p = tmp_path / "binary.csv"
        write_rows(p, ["f1", "f2", "y", "yhat"], np.column_stack([x, y, y_hat]).tolist())
        args = ["report", str(p), "--features", "f1,f2", "--outcome", "y", "--prediction", "yhat",
                "--pairs", "50", "--resamples", "100", "--seed", "3"]
        out_json, zero_one_json = tmp_path / "run.json", tmp_path / "zero_one.json"
        assert main(args + ["--loss", "weighted:fp=1e308,fn=1e308", "--json", str(out_json)]) == 0
        assert main(args + ["--json", str(zero_one_json)]) == 0
        row = json.loads(out_json.read_text())["rows"][0]
        n_fp, n_fn = int(((y == 0) & (y_hat == 1)).sum()), int(((y == 1) & (y_hat == 0)).sum())
        assert row["observed_loss"] == float(Fraction(1e308) * (n_fp + n_fn) / 200)
        assert row["tau"] == json.loads(zero_one_json.read_text())["rows"][0]["tau"]

    def test_costs_whose_sum_overflows_leave_stderr_empty(self, tmp_path):
        # run as a process, so that a numpy RuntimeWarning would show on stderr
        rng = np.random.default_rng(7)
        x = rng.integers(0, 4, (200, 2)).astype(float)
        y, y_hat = rng.integers(0, 2, (2, 200)).astype(float)
        p = tmp_path / "binary.csv"
        write_rows(p, ["f1", "f2", "y", "yhat"], np.column_stack([x, y, y_hat]).tolist())
        proc = subprocess.run(
            [sys.executable, "-m", "experttest.cli", "report", str(p), "--features", "f1,f2",
             "--outcome", "y", "--prediction", "yhat", "--pairs", "50", "--resamples", "100",
             "--seed", "3", "--loss", "weighted:fp=1e308,fn=1e308"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["report", "test"])
    def test_squared_errors_that_overflow_fail_with_json_error(self, tmp_path, capsys, command):
        # tau used to read 0.0, a rejection, with only a RuntimeWarning to show
        rng = np.random.default_rng(7)
        y, y_hat = rng.normal(0.0, 1e160, (2, 200))
        p = tmp_path / "huge.csv"
        write_rows(p, ["f1", "f2", "y", "yhat"],
                   np.column_stack([rng.random((200, 2)), y, y_hat]).tolist())
        out_json = tmp_path / "run.json"
        code = main([command, str(p), "--features", "f1,f2", "--outcome", "y",
                     "--prediction", "yhat", "--pairs", "50", "--resamples", "100",
                     "--loss", "squared", "--seed", "3", "--json", str(out_json)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "LossOverflow" and "overflow float64" in err["message"]
        assert not out_json.exists()

    def test_json_report_byte_identical_across_runs(self, tmp_path):
        p, names = clinical_format_fixture(tmp_path)
        args = [
            "report", str(p), "--features", ",".join(names),
            "--outcome", "outcome", "--prediction", "admitted",
            "--pairs", "20,40", "--resamples", "30", "--seed", "8",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--json", str(a)]) == 0
        assert main(args + ["--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oversized_L_fails_before_running(self, tmp_path, capsys):
        p, names = clinical_format_fixture(tmp_path)
        code = main([
            "test", str(p), "--features", ",".join(names),
            "--outcome", "outcome", "--prediction", "admitted",
            "--pairs", "9999",
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TooManyPairs"

    def test_synthetic_oversized_L_names_too_many_pairs(self, capsys):
        code = main(["validity", "--l-values", "60", "--n", "100"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TooManyPairs"

    def test_missing_column_error_payload(self, tmp_path, capsys):
        p, _ = clinical_format_fixture(tmp_path)
        code = main([
            "test", str(p), "--features", "nope",
            "--outcome", "outcome", "--prediction", "admitted", "--pairs", "5",
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingColumn"

    def test_non_finite_metric_weight_exits_nonzero(self, tmp_path, capsys):
        p, names = clinical_format_fixture(tmp_path)
        for option, value in [
            ("--metric", "weighted:nan,1"),
            ("--loss", "weighted:fp=nan,fn=1"),
            ("--loss", "weighted:fp=1,fn=inf"),
            ("--loss", "weighted:fp=-inf,fn=1"),
            # an infinite constant would be written to JSON as the non-standard Infinity
            ("--smoothness-C", "inf"),
            ("--smoothness-C", "nan"),
            ("--smoothness-C", "-1"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main([
                    "report", str(p), "--features", ",".join(names[:2]),
                    "--outcome", "outcome", "--prediction", "admitted",
                    "--pairs", "10", option, value, "--json", str(tmp_path / "out.json"),
                ])
            assert exc.value.code == 2, value
            assert option in capsys.readouterr().err
            assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("where, lines", [
        ("row", ["f1,f2,y,yhat", "0,0,0,1", "1,1,0," + "1" * 200_001]),
        ("header", ["f1,f2,y,yhat," + "z" * 200_001, "0,0,0,1"]),
    ], ids=["row", "header"])
    def test_oversized_field_names_its_row(self, tmp_path, where, lines):
        # run as a process, so that an escaping csv.Error would show as a traceback
        p = tmp_path / "big.csv"
        p.write_text("\n".join(lines) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "experttest.cli", "report", str(p), "--features", "f1,f2",
             "--outcome", "y", "--prediction", "yhat", "--pairs", "1",
             "--json", str(tmp_path / "out.json")],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "MalformedCsv"
        assert ("row 2:" if where == "row" else "header:") in err["message"]
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv, records", [
        (["match-stats", "{csv}", "--features", "c0,c1,c2,c3,c4,c5,c6,c7,c8",
          "--outcome", "outcome", "--prediction", "admitted", "--pairs", "10,50,150"],
         lambda doc: doc["match_stats"]),
        (["power", "--n-values", "60,80", "--deltas", "0.0,0.4", "--trials", "3",
          "--resamples", "20", "--seed", "3"],
         lambda doc: doc["cells"]),
        (["power", "--l-values", "5,10", "--n", "60", "--delta", "0.3", "--trials", "3",
          "--resamples", "20", "--seed", "3"],
         lambda doc: doc["cells"]),
        (["validity", "--n", "80", "--l-values", "10,40", "--trials", "3", "--resamples", "20",
          "--seed", "3"],
         lambda doc: doc["cells"]),
        (["mse", "--n", "50", "--trials", "4", "--seed", "3"],
         lambda doc: [{"column": name, **doc[name]}
                      for name in ("algorithm_mse", "human_mse", "rescaled_human_mse")]),
    ], ids=["match-stats", "power-grid", "power-sweep", "validity", "mse"])
    def test_csv_rows_equal_json_records(self, tmp_path, capsys, argv, records):
        p, _ = clinical_format_fixture(tmp_path)
        out = tmp_path / "out.json"
        assert main([a.format(csv=p) for a in argv] + ["--json", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        want = records(json.loads(out.read_text()))
        # csv writes a float as its repr and json reads it back exactly
        assert rows == [{k: str(v) for k, v in r.items()} for r in want]
        assert len(rows) > 1

    def test_mse_subcommand(self, capsys):
        assert main(["mse", "--n", "200", "--trials", "10", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "column,mean,two_sd"
        res = mse_comparison(n=200, trials=10, seed=2)
        assert lines[1:] == [
            f"{name},{s.mean!r},{s.two_sd!r}" for name, s in
            [("algorithm_mse", res.algorithm), ("human_mse", res.human),
             ("rescaled_human_mse", res.rescaled)]
        ]

    def test_validity_subcommand(self, capsys):
        code = main([
            "validity", "--n", "80", "--l-values", "10,40",
            "--trials", "5", "--resamples", "20", "--seed", "1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "L,trials,rejections,rate"
        assert len(lines) == 3

    def test_power_subcommand_grid_and_sweep(self, capsys):
        assert main([
            "power", "--n-values", "80", "--deltas", "0.0,0.4",
            "--pairs-divisor", "8", "--trials", "5", "--resamples", "20", "--seed", "1",
        ]) == 0
        grid = capsys.readouterr().out.strip().splitlines()
        assert grid[0] == "n,delta,L,trials,rejections,rate"
        assert len(grid) == 3

        assert main([
            "power", "--l-values", "5,10", "--n", "60", "--delta", "0.3",
            "--trials", "5", "--resamples", "20", "--seed", "1",
        ]) == 0
        sweep = capsys.readouterr().out.strip().splitlines()
        assert len(sweep) == 3

    @pytest.mark.parametrize("divisor", ["0", "-2"])
    def test_power_pairs_divisor_below_one_rejected(self, divisor):
        # run as a process, so that an escaping exception would show as a traceback
        proc = subprocess.run(
            [sys.executable, "-m", "experttest.cli", "power", "--n-values", "80",
             "--deltas", "0.0", "--pairs-divisor", divisor, "--trials", "2"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "ValueError"
        assert "--pairs-divisor" in err["message"]

    def test_toy_subcommand(self, capsys):
        code = main([
            "toy", "--n", "120", "--trials", "4", "--pairs", "12",
            "--resamples", "20", "--seed", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "trial,tau,rejected"
        assert len(out) == 5

    def test_match_stats_needs_an_L_value(self, tmp_path, capsys):
        p, names = clinical_format_fixture(tmp_path)
        for command in ("report", "match-stats"):
            code = main([
                command, str(p), "--features", ",".join(names),
                "--outcome", "outcome", "--prediction", "admitted", "--pairs", ",",
            ])
            assert code == 1
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": "ValueError", "message": "need at least one L value"}

    @pytest.mark.parametrize("option, message", [
        ("--l-values", "need at least one L value"),
        ("--n-values", "need at least one n value"),
        ("--deltas", "need at least one delta value"),
    ], ids=["l-values", "n-values", "deltas"])
    def test_power_needs_a_value_in_each_list(self, option, message, capsys):
        # an empty --l-values must not fall back to the (n, delta) grid
        code = main(["power", option, ",", "--trials", "1", "--resamples", "5"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": message}

    def test_match_stats_subcommand(self, tmp_path, capsys):
        p, names = clinical_format_fixture(tmp_path)
        code = main([
            "match-stats", str(p), "--features", ",".join(names),
            "--outcome", "outcome", "--prediction", "admitted", "--pairs", "10,50",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "L,count,zero_count,min,q1,median,q3,max"
        assert len(out) == 3


class TestArgParsers:
    def test_parse_loss(self):
        assert parse_loss("zero-one") == LossSpec.zero_one()
        assert parse_loss("squared") == LossSpec.squared_error()
        assert parse_loss("weighted:fp=1,fn=5") == LossSpec.weighted_binary(1, 5)
        with pytest.raises(Exception):
            parse_loss("hinge")

    def test_parse_metric(self):
        assert parse_metric("l2") == DistanceMetric.euclidean()
        assert parse_metric("weighted:1,0.5") == DistanceMetric.weighted_euclidean([1, 0.5])
        with pytest.raises(Exception):
            parse_metric("cosine")
