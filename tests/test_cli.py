import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from _oracles import record_swap_streams

from experttest import cli, engine, synthgen
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


def read_outcome(path, spec=SPEC):
    """What ``load_csv`` gives: the values' shape and bytes, or the error's type and message."""
    try:
        d = load_csv(str(path), spec)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return d.x.shape, d.x.tobytes(), d.y.tobytes(), d.y_hat.tobytes()


def cell_by_cell_outcome(path, spec=SPEC):
    """``read_outcome`` with numpy's reader switched off, so every file goes cell by cell."""
    with mock.patch.object(cli, "_bulk_cells", lambda *args: None):
        return read_outcome(path, spec)


def numpy_outcome(path, spec=SPEC):
    """``read_outcome`` with the cell-by-cell reader switched off: numpy's reader or an error."""
    def no_second_read(*args):
        raise AssertionError("read cell by cell")

    with mock.patch.object(cli, "_checked_cells", no_second_read):
        return read_outcome(path, spec)


# cells that Python's float and numpy's reader might read differently
NUMBERS = st.sampled_from([
    "0", "7", "-2", "+15", "2.5", "-0.125", ".5", "3.", "1e5", "1E-3", "-2.5e+2", "007", "-0.0",
    "0.1", "1e-320", "123456789012345678901",
])
PADDING = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u00a0",
                          "\u3000", "\u2028"])
PLAIN_CELLS = st.one_of(NUMBERS, st.tuples(PADDING, NUMBERS, PADDING).map("".join))
ODD_CELLS = st.sampled_from([
    "1_000", "1__0", "_1", "nan", "-nan", "inf", "+Infinity", "1e400", "-1e-400", "1d3",
    "\u0661\u0662", "\u0664.5", "", "#", "#1", "1#", '"2.5"', '"1,5"', '""', "0x1p3",
    "1\x000", "\ufeff1", ".", "e5", "-", "1e", "1.2.3",
    'a"b', '"1"2', '"x"y', '"x\ny"', '"x\ry"', '"x\r\ny"', '" 1"', '"1""2"', '"', '"a,b',
])

# R's write.csv: a quoted header whose first, unnamed column holds quoted row names
R_EXPORT = '"","f1","f2","y","yhat"\n"1",1,2,3,4\n"2",5.5,-6,7,8e-3\n'


@st.composite
def csv_texts(draw):
    """A CSV text whose header holds SPEC's columns and maybe an ``id``, in any order.

    Half the files are plain: numbers, padded or not, in full or long rows
    with LF, CRLF or CR line ends. The others mix in odd cells (quoted ones
    too), ragged rows, mixed line ends and trailing blank lines. Half the
    headers quote every name.
    """
    header = draw(st.permutations(draw(st.sampled_from([["f1", "f2", "y", "yhat"],
                                                        ["f1", "f2", "y", "yhat", "id"]]))))
    width = len(header)
    if draw(st.booleans()):
        row = st.lists(PLAIN_CELLS, min_size=width, max_size=width + 1)
        eol, tails = st.sampled_from(["\n", "\r\n", "\r"]), [""]
    else:
        cells = st.one_of(PLAIN_CELLS, ODD_CELLS)
        row = st.one_of(st.lists(cells, min_size=width, max_size=width),
                        st.lists(cells, max_size=width + 1))  # ragged: short or long
        eol, tails = st.sampled_from(["\n", "\n", "\r\n", "\r"]), ["", "\n", "\n\n", "\r\n", "\r", " \n"]
    rows = draw(st.lists(row, max_size=5))
    if draw(st.booleans()):
        header = [f'"{name}"' for name in header]
    lines = [",".join(header), *map(",".join, rows)]
    text = "".join(line + draw(eol) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    text += draw(st.sampled_from(tails))  # trailing blank lines
    return draw(st.sampled_from(["", "\ufeff"])) + text


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

    # each catch that keeps a file from numpy's reader: it raises, or warns on a
    # header-only file, or gives fewer rows than lines (it skips a blank line and
    # reads a quoted line end into its field), or reads a non-finite value; csv
    # refuses a field over its size limit, and numpy strips \x1c to \x1f around
    # a number where Python's float does not. Quotes and CR line ends it reads as
    # csv does.
    @given(text=csv_texts())
    @example(text="f1,f2,y,yhat\n1,2,1_000,4\n5,6,7,8\n")
    @example(text="f1,f2,y,yhat\n1,2,x,4\n5,6,7,8\n")
    @example(text="f1,f2,y,yhat\n")
    @example(text="f1,f2,y,yhat")
    @example(text="f1,f2,y,yhat\n1,2,3,4\n\n5,6,7,8\n")
    @example(text="f1,f2,y,yhat\n1,2,3,4\n\n")
    @example(text="f1,f2,y,yhat\n1,2,nan,4\n5,6,7,8\n")
    @example(text="f1,f2,y,yhat\n1,2,3,1e400\n5,6,7,8\n")
    @example(text='id,note,f1,f2,y,yhat\n"a,b",1,2,3,4,5\n"c,d",6,7,8,9,10\n')
    @example(text='f1,f2,y,yhat,id\n1,2,3,4,"x\n5,6,7,8,"\n9,9,9,9,z\n')
    @example(text="f1,f2,y,yhat\r1,2,3,4\r5,6,7,8\r")
    @example(text="f1,f2,y,yhat\n1,2,3,4\r5,6,7,8\n\n")
    @example(text="f1,f2,y,yhat,id\n1,2,3,4," + "x" * 200_000 + "\n5,6,7,8,x\n")
    @example(text="f1,f2,y,yhat\n1,2,3,\x1c4\n5,6,7,8\n")
    @example(text=R_EXPORT)
    @example(text="f1,f2,y,yhat\n1,2,3,4\n\r5,6,7,8\n")
    @example(text="f1,f2,y,yhat\r" + "1,2,3,4\r" * 20_000)
    @settings(max_examples=150, deadline=None)
    def test_bulk_read_equals_cell_by_cell_read(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "differential.csv"
        p.write_bytes(text.encode("utf-8"))
        assert read_outcome(p) == cell_by_cell_outcome(p)

    @pytest.mark.parametrize("text", [
        "f1,f2,y,yhat\n1,2,1_000,4\n5,6,7,8\n",
        "f1,f2,y,yhat\n",
        "f1,f2,y,yhat\n1,2,3,4\n\n5,6,7,8\n",
        "f1,f2,y,yhat\n1,2,3,1e400\n5,6,7,8\n",
        'f1,f2,y,yhat,id\n1,2,3,4,"x\n5,6,7,8,"\n9,9,9,9,z\n',
        "f1,f2,y,yhat\n1,2,3,4\r5,6,7,8\n\n",
        "f1,f2,y,yhat,id\n1,2,3,4," + "x" * 200_000 + "\n5,6,7,8,x\n",
        "f1,f2,y,yhat\n1,2,3,\x1c4\n5,6,7,8\n",
    ], ids=["raises", "warns", "blank_line", "non_finite", "quoted_line_end", "bare_cr",
            "long_line", "separator"])
    def test_catches_leave_numpys_reader(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text, newline="")
        assert numpy_outcome(p) == ("AssertionError", "read cell by cell")

    @pytest.mark.parametrize("text", [
        "f1,f2,y,yhat\n1,2,3,4\n5,6,7,8",
        "\ufefff1,f2,y,yhat\r\n 1,2\t,\u30003,-0\r\n5,6,7,8\r\n",
        "f1,f2,y,yhat,id\n1,2,3,4\n5,6,7,8,x,y\n",
        'id,note,f1,f2,y,yhat\n"a,b",1,2,3,4,5\n"c,d",6,7,8,9,10\n',
        R_EXPORT,
        "f1,f2,y,yhat\r1,2,3,4\r5,6,7,8\r",
        "f1,f2,y,yhat\r" + "1,2,3,4\r" * 20_000,
    ], ids=["no_final_line_end", "bom_crlf_padded", "long_rows", "quoted_delimiter", "r_export",
            "cr_line_ends", "cr_line_ends_long"])
    def test_plain_files_take_numpys_reader(self, tmp_path, text):
        p = tmp_path / "d.csv"
        p.write_text(text, newline="")
        assert numpy_outcome(p) == cell_by_cell_outcome(p)

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8,
                           max_size=40).map(lambda v: v[: len(v) // 4 * 4]))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_of_repr_floats(self, tmp_path_factory, values):
        a = np.array(values).reshape(-1, 4)
        d = Dataset(a[:, :2], a[:, 2], a[:, 3])
        p = tmp_path_factory.getbasetemp() / "round_trip.csv"
        write_csv(d, str(p), SPEC)
        assert numpy_outcome(p) == (d.x.shape, d.x.tobytes(), d.y.tobytes(), d.y_hat.tobytes())

    def test_spec_order_differs_from_header_order(self, tmp_path):
        p = tmp_path / "d.csv"
        write_rows(p, ["yhat", "f2", "id", "y", "f1"], [[1, 2, 9, 0, 3.5], [0, 4, 8, 1, -1]])
        d = Dataset([[3.5, 2.0], [-1.0, 4.0]], [0.0, 1.0], [1.0, 0.0])
        assert numpy_outcome(p) == (d.x.shape, d.x.tobytes(), d.y.tobytes(), d.y_hat.tobytes())


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

    @pytest.mark.filterwarnings("error")
    def test_range_that_overflows_names_the_feature(self):
        # the scaled column used to hold NaN, which Dataset blamed on missing data
        d = Dataset([[0.0, 1e308], [1.0, -1e308], [2.0, 0.0]], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError, match=r"^feature 1: its range, -1e\+308 to 1e\+308, "
                                             r"overflows float64"):
            normalize_features(d)

    @pytest.mark.filterwarnings("error")
    def test_largest_finite_range_is_scaled(self):
        half = np.finfo(np.float64).max / 2
        d = Dataset([[-half, 3.0], [half, 1.0], [0.0, 2.0]], [0, 0, 0], [0, 0, 0])
        assert normalize_features(d).x.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]


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
                cfg = TestConfig(L=row.L, K=300, alpha=0.05, loss=loss, master_seed=12)
                res = expert_test(d, cfg, metric)
                assert (row.tau, row.effective_p, row.observed_loss) == (
                    res.tau, res.effective_p, res.observed_loss
                )
                assert row.mismatched_pairs == res.mismatch_count
                assert row.swaps_increase == res.binary_swap_counts.increase

    @pytest.mark.parametrize(
        "L_values", [[10, 25, 50], [50, 25, 10], [25, 10, 25, 50]],
        ids=["ascending", "descending", "repeated"],
    )
    def test_each_swap_row_built_at_most_once(self, monkeypatch, L_values):
        # K spans two full 64-row blocks and part of a third
        d = gen_expertise_pairs(ExpertiseConfig(n=120, delta=0.1, seed=6))
        kw = dict(K=130, alpha=0.05, loss=LossSpec.zero_one(), master_seed=19)
        engine._swap_mask.cache_clear()
        built = record_swap_streams(monkeypatch)
        report = run_report(d, L_values, metric=DistanceMetric.euclidean(), **kw)
        assert len(set(built)) == len(built) == kw["K"]
        for row in report.rows:
            # a standalone test draws its own mask, not the report's
            engine._swap_mask.cache_clear()
            res = expert_test(d, TestConfig(L=row.L, **kw), DistanceMetric.euclidean())
            counts = res.binary_swap_counts
            assert (row.tau, row.effective_p, row.rejected, row.observed_loss) == (
                res.tau, res.effective_p, res.rejected, res.observed_loss
            )
            assert (row.mismatched_pairs, row.swaps_increase, row.swaps_decrease) == (
                res.mismatch_count, counts.increase, counts.decrease
            )
        assert [row.L for row in report.rows] == L_values

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

    @pytest.mark.parametrize("C, line", [
        ("0", "type-I bounds: theorem 0.06961, union 0.06961; adjusted threshold = 0.03039"),
        ("1.0", "type-I bounds: theorem 1, union 1; adjusted threshold = 0 "
                "(Theorem 1 leaves no level at this L; the verdict below is tau <= alpha)"),
    ], ids=["nonzero", "zero"])
    def test_bound_line_says_when_theorem1_leaves_no_level(self, tmp_path, capsys, C, line):
        p, names = clinical_format_fixture(tmp_path)
        code = main([
            "test", str(p), "--features", ",".join(names),
            "--outcome", "outcome", "--prediction", "admitted",
            "--pairs", "60", "--resamples", "50", "--seed", "3",
            "--normalize", "--smoothness-C", C,
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == [line, "fail to reject H0"]

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

    @pytest.mark.filterwarnings("error")
    def test_feature_range_that_overflows_fails_with_json_error(self, tmp_path, capsys):
        p = tmp_path / "wide.csv"
        write_rows(p, ["f1", "f2", "y", "yhat"],
                   [[i % 3, (-1) ** i * 1e308, i % 2, i // 2 % 2] for i in range(20)])
        code = main(["report", str(p), "--features", "f1,f2", "--outcome", "y",
                     "--prediction", "yhat", "--normalize", "--pairs", "5", "--resamples", "50"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError",
            "message": "feature 1: its range, -1e+308 to 1e+308, overflows float64, "
                       "so it cannot be min-max scaled",
        }

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

    def test_repeated_report_reads_the_kept_mask(self, tmp_path, monkeypatch):
        # the same report run again in one process, as a benchmark's repeated
        # ops are, draws no swap row again; another seed draws its own
        p, names = clinical_format_fixture(tmp_path)
        K = 130  # two full 64-row blocks and part of a third
        args = [
            "report", str(p), "--features", ",".join(names),
            "--outcome", "outcome", "--prediction", "admitted", "--normalize",
            "--pairs", "25,50,100", "--resamples", str(K), "--loss", "zero-one",
            "--smoothness-C", "2.0", "--json", str(tmp_path / "run.json"),
        ]
        engine._swap_mask.cache_clear()
        built = record_swap_streams(monkeypatch)
        drawn, outputs = [], []
        for seed in (5, 5, 5, 6):
            before = len(built)
            assert main(args + ["--seed", str(seed)]) == 0
            drawn.append(len(built) - before)
            outputs.append((tmp_path / "run.json").read_bytes())
        assert drawn == [K, 0, 0, K]
        assert len(set(built)) == len(built)
        assert outputs[0] == outputs[1] == outputs[2] != outputs[3]

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

    @pytest.mark.parametrize("argv, header", [
        (["power", "--n-values", "40", "--deltas", "0.2", "--trials", "2", "--resamples", "10"],
         "n,delta,L,trials,rejections,rate"),
        (["power", "--l-values", "5,10", "--n", "40", "--trials", "2", "--resamples", "10"],
         "n,delta,L,trials,rejections,rate"),
        (["validity", "--n", "40", "--l-values", "10", "--trials", "2", "--resamples", "10"],
         "L,trials,rejections,rate"),
        (["toy", "--n", "40", "--trials", "2", "--pairs", "5", "--resamples", "10"],
         "trial,tau,rejected"),
        (["mse", "--n", "20", "--trials", "2"], "column,mean,two_sd"),
        (["match-stats", "{csv}", "--features", "c0,c1", "--outcome", "outcome",
          "--prediction", "admitted", "--pairs", "10"],
         "L,count,zero_count,min,q1,median,q3,max"),
    ], ids=["power-grid", "power-sweep", "validity", "toy", "mse", "match-stats"])
    def test_study_csv_header(self, tmp_path, capsys, argv, header):
        # the columns come from the records' keys, so pin them here
        p, _ = clinical_format_fixture(tmp_path)
        assert main([a.format(csv=p) for a in argv]) == 0
        assert capsys.readouterr().out.splitlines()[0] == header

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

    def test_power_names_the_grid_cell_without_pairs(self, capsys, monkeypatch):
        # checked before the first trial, not after every n = 200 trial has run
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(synthgen, "_trial_results", no_trials)
        code = main(["power", "--n-values", "200,2", "--deltas", "0.1"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "n=2 gives L=0 pairs; L must be at least 1"}

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--n-values", "600,201", "--deltas", "0.1,0.3", "--trials", "1000"],
             {"error": "ValueError", "message": "n=201: n must be even and at least 2"}),
            (["--n-values", "200,1"],
             {"error": "ValueError", "message": "n=1: n must be even and at least 2"}),
            (["--n-values", "200,600", "--pairs-divisor", "1"],
             {"error": "TooManyPairs", "message": "n=200 gives L=200 pairs; L must be at most floor(n/2)=100"}),
            (["--n-values", "200,600", "--deltas", "0.1,0.7"],
             {"error": "ValueError", "message": "delta=0.7: delta must lie in [0, 1/2]"}),
        ],
        ids=["odd", "below-2", "too-many-pairs", "bad-delta"],
    )
    def test_power_checks_every_n_before_the_first_trial(self, capsys, monkeypatch, argv, error):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(synthgen, "_trial_results", no_trials)
        assert main(["power", *argv]) == 1
        assert json.loads(capsys.readouterr().err) == error

    @pytest.mark.parametrize("module, argv, L", [
        (cli, ["report", "--pairs", "100,0"], 0),
        (cli, ["report", "--pairs", "5,-3,2"], -3),
        (cli, ["test", "--pairs", "0"], 0),
        (cli, ["match-stats", "--pairs", "10,0"], 0),
        (synthgen, ["power", "--l-values", "20,0", "--n", "200"], 0),
        (synthgen, ["validity", "--n", "200", "--l-values", "10,-1"], -1),
        (synthgen, ["toy", "--n", "100", "--pairs", "0"], 0),
    ], ids=["report", "report-negative", "test", "match-stats", "power-sweep", "validity", "toy"])
    def test_every_L_is_checked_before_any_matching(self, tmp_path, capsys, monkeypatch,
                                                    module, argv, L):
        def no_matching(*args, **kwargs):
            raise AssertionError("matching ran")

        monkeypatch.setattr(module, "greedy_match", no_matching)
        if module is cli:
            p, names = clinical_format_fixture(tmp_path)
            argv[1:1] = [str(p), "--features", ",".join(names), "--outcome", "outcome",
                         "--prediction", "admitted"]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": f"L={L}: L must be at least 1"}

    def test_toy_subcommand(self, capsys):
        code = main([
            "toy", "--n", "120", "--trials", "4", "--pairs", "12",
            "--resamples", "20", "--seed", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "trial,tau,rejected"
        assert len(out) == 5

    @pytest.mark.parametrize("command", ["report", "test"])
    @pytest.mark.parametrize("argv, error, message", [
        (["--resamples", "0"], "ValueError", "K must be at least 1"),
        (["--resamples", "4294967296"], "ValueError",
         "K=4294967296 exceeds the 4294967295 swap streams a seed provides"),
        (["--alpha", "1.5"], "ValueError", "alpha must lie strictly between 0 and 1"),
        # c0 holds 0, 0.5 and 1
        (["--prediction", "c0"], "IncompatibleLoss",
         "zero_one loss requires y and y_hat in {0, 1} for every record"),
        (["--prediction", "c0", "--loss", "weighted:fp=1,fn=2"], "IncompatibleLoss",
         "weighted_binary loss requires y and y_hat in {0, 1} for every record"),
    ], ids=["K-zero", "K-too-many-streams", "alpha", "zero-one-loss", "weighted-loss"])
    def test_bad_parameters_fail_before_any_matching(self, tmp_path, capsys, monkeypatch,
                                                     command, argv, error, message):
        def no_matching(*args, **kwargs):
            raise AssertionError("matching ran")

        monkeypatch.setattr(cli, "greedy_match", no_matching)
        p, names = clinical_format_fixture(tmp_path)
        code = main([
            command, str(p), "--features", ",".join(names[1:]),
            "--outcome", "outcome", "--prediction", "admitted", "--pairs", "50", *argv,
        ])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}

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

    @pytest.mark.parametrize(
        "text, key",
        [("weighted:fp=1,fn=2,xx=3", "'xx'"), ("weighted:fp=1,fn=2,fn=5", "repeated key 'fn'"),
         ("weighted:fp=1,fp=1,fn=2", "repeated key 'fp'"), ("weighted:fp=1,fn=2,", "unknown key ''")],
        ids=["unknown", "repeated-fn", "repeated-fp", "trailing-comma"],
    )
    def test_parse_loss_rejects_bad_weighted_keys(self, text, key):
        with pytest.raises(argparse.ArgumentTypeError, match=key):
            parse_loss(text)

    def test_parse_metric(self):
        assert parse_metric("l2") == DistanceMetric.euclidean()
        assert parse_metric("weighted:1,0.5") == DistanceMetric.weighted_euclidean([1, 0.5])
        with pytest.raises(Exception):
            parse_metric("cosine")
