"""Experiment harness: loading, the run matrix, aggregation, rendering."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypotree
from hypotree import (
    BoolAggregate,
    DataError,
    ExperimentSpec,
    ReportCell,
    aggregate_bool,
    expand_sources,
    load_source,
    load_table,
    render_bool_report,
    render_report,
    run_matrix,
    table_from_records,
    tic_tac_toe,
)

from conftest import T0_CSV


def cell(dataset, measure, tree_type, metric, value, **kw):
    kw.setdefault("nodes", 1)
    kw.setdefault("seconds", 0.0)
    return ReportCell(dataset, measure, tree_type, metric, value, **kw)


class TestTableFromRecords:
    def test_first_appearance_encoding(self):
        t = table_from_records(("a",), [("b",), ("a",), ("c",)], ["y", "x", "y"])
        assert [tuple(r) for r in t.values] == [(0,), (1,), (2,)]
        assert list(t.decisions) == [0, 1, 0]

    def test_duplicate_rows_merge_to_majority(self):
        t = table_from_records(
            ("a", "b"),
            [("0", "0"), ("1", "1"), ("0", "0"), ("0", "0")],
            ["x", "z", "x", "y"],
        )
        assert t.n_rows == 2
        assert tuple(t.values[0]) == (0, 0)
        assert int(t.decisions[0]) == 0  # "x" wins 2:1
        assert int(t.decisions[1]) == 1  # "z"

    def test_merge_tie_goes_to_first_appearing_decision(self):
        t = table_from_records(("a",), [("0",), ("0",)], ["y", "x"])
        assert t.n_rows == 1
        assert int(t.decisions[0]) == 0  # "y" was encoded first

    def test_merged_rows_keep_first_position(self):
        t = table_from_records(
            ("a",), [("p",), ("q",), ("p",)], ["1", "2", "1"]
        )
        assert [tuple(r) for r in t.values] == [(0,), (1,)]

    @pytest.mark.parametrize(
        "names,records,decisions",
        [
            (("a",), [("0",)], []),  # length mismatch
            (("a",), [], []),  # no rows
            ((), [()], ["x"]),  # no attributes
            (("a", "b"), [("0",)], ["x"]),  # ragged record
        ],
    )
    def test_errors(self, names, records, decisions):
        with pytest.raises(DataError):
            table_from_records(names, records, decisions)


class TestLoadTable:
    def test_loads_and_encodes(self, t0_csv, t0):
        t = load_table(t0_csv)
        assert t.attribute_names == ("f1", "f2", "f3")
        assert np.array_equal(t.values, t0.values)
        assert list(t.decisions) == [0, 0, 1, 1]  # "1"->0, "2"->1

    def test_decision_column_by_name(self, tmp_path):
        path = tmp_path / "mid.csv"
        path.write_text("a,label,b\n0,x,1\n1,y,0\n", encoding="utf-8")
        t = load_table(path, decision_column="label")
        assert t.attribute_names == ("a", "b")
        assert list(t.decisions) == [0, 1]

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("﻿a,label,b\n0,x,1\n1,y,0\n", encoding="utf-8")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        t = load_table(path, decision_column="label")
        assert t.attribute_names == ("a", "b")
        assert load_table(path, decision_column="a").attribute_names == ("label", "b")

    def test_decision_column_by_index(self, tmp_path):
        path = tmp_path / "first.csv"
        path.write_text("a,b,c\n0,x,1\n1,y,0\n", encoding="utf-8")
        first = load_table(path, decision_column=0)
        assert first.attribute_names == ("b", "c")
        last = load_table(path, decision_column=-1)
        assert last.attribute_names == ("a", "b")

    def test_cells_are_stripped(self, tmp_path):
        path = tmp_path / "ws.csv"
        path.write_text("a , b\n 0 , 1 \n1,0\n", encoding="utf-8")
        t = load_table(path)
        assert t.attribute_names == ("a",)
        assert t.n_rows == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("a,b\n\n0,1\n\n1,0\n", encoding="utf-8")
        assert load_table(path).n_rows == 2

    def test_error_messages(self, tmp_path, t0_csv):
        with pytest.raises(DataError, match="no such file"):
            load_table(tmp_path / "missing.csv")

        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            load_table(empty)

        one = tmp_path / "one.csv"
        one.write_text("a\n0\n", encoding="utf-8")
        with pytest.raises(DataError, match="at least two columns"):
            load_table(one)

        dup = tmp_path / "dup.csv"
        dup.write_text("a,a\n0,1\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate column"):
            load_table(dup)

        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n0,1\n0\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3"):
            load_table(ragged)

        binary = tmp_path / "bin.csv"
        binary.write_bytes(b"\xff\xfe\x00\x00")
        with pytest.raises(DataError, match="not UTF-8"):
            load_table(binary)

        with pytest.raises(DataError, match="no column named"):
            load_table(t0_csv, decision_column="label")
        with pytest.raises(DataError, match="out of range"):
            load_table(t0_csv, decision_column=7)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(DataError, match="no data rows"):
            load_table(path)


class TestExpandSources:
    def test_gen_and_csv_tokens(self, t0_csv):
        got = expand_sources(["gen:balance-scale", str(t0_csv)])
        assert got == [
            ("balance-scale", "gen:balance-scale", 0),
            ("t0", str(t0_csv), 0),
        ]

    def test_bool_suite_expands_per_function(self):
        got = expand_sources(["bool:n=3,count=2"])
        display = "bool:n=3,count=2,seed=42"
        assert got == [(f"{display}#0", display, 0), (f"{display}#1", display, 1)]

    def test_directory_expands_sorted(self, tmp_path):
        (tmp_path / "b.csv").write_text(T0_CSV, encoding="utf-8")
        (tmp_path / "a.csv").write_text(T0_CSV, encoding="utf-8")
        (tmp_path / "note.txt").write_text("not data", encoding="utf-8")
        got = expand_sources([str(tmp_path)])
        assert [name for name, _, _ in got] == ["a", "b"]

    def test_missing_file_is_deferred(self):
        assert expand_sources(["no/such.csv"]) == [("such", "no/such.csv", 0)]

    def test_malformed_bool_fails_immediately(self):
        with pytest.raises(DataError):
            expand_sources(["bool:count=3"])


class TestLoadSource:
    def test_generated(self):
        [(name, table)] = load_source("gen:tic-tac-toe")
        assert name == "tic-tac-toe"
        assert table is tic_tac_toe()

    def test_bool_suite(self):
        loaded = load_source("bool:n=2,count=2,seed=0")
        assert len(loaded) == 2
        assert all(t.n_rows == 4 for _, t in loaded)

    def test_unknown_generated_name(self):
        with pytest.raises(DataError, match="unknown generated table"):
            load_source("gen:nope")

    def test_missing_csv(self):
        with pytest.raises(DataError, match="no such file"):
            load_source("no/such.csv")


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec(datasets=("x.csv",))
        assert spec.measures == ("me",)
        assert spec.tree_types == (1, 2, 3, 4, 5)
        assert spec.metrics == ("h", "L")

    @pytest.mark.parametrize(
        "kw",
        [
            dict(datasets=()),
            dict(datasets=("x",), measures=()),
            dict(datasets=("x",), measures=("nope",)),
            dict(datasets=("x",), measures=("me", "me")),
            dict(datasets=("x",), tree_types=()),
            dict(datasets=("x",), tree_types=(0,)),
            dict(datasets=("x",), tree_types=(1, 1)),
            dict(datasets=("x",), metrics=()),
            dict(datasets=("x",), metrics=("z",)),
            dict(datasets=("x",), metrics=("h", "h")),
            dict(datasets=("x",), node_budget=0),
            dict(datasets=("x",), workers=0),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            ExperimentSpec(**kw)

    @pytest.mark.parametrize(
        "kw,message",
        [
            (dict(tree_types=(1.0,)), "tree type must be an integer"),
            (dict(tree_types=(True,)), "tree type must be an integer"),
            (dict(tree_types=(2, np.float64(3))), "tree type must be an integer"),
            (dict(tree_types=("1",)), "tree type must be an integer"),
            (dict(node_budget=2.5), "node budget must be a positive integer"),
            (dict(node_budget=100.0), "node budget must be a positive integer"),
            (dict(node_budget=True), "node budget must be a positive integer"),
            (dict(node_budget=None), "node budget must be a positive integer"),
            (dict(workers=1.5), "worker count must be a positive integer"),
            (dict(workers=True), "worker count must be a positive integer"),
            (dict(workers="2"), "worker count must be a positive integer"),
        ],
    )
    def test_non_integers_rejected_before_the_grid_runs(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(datasets=("x",), **kw)

    def test_numpy_integers_accepted(self, t0_csv):
        spec = ExperimentSpec(
            datasets=(str(t0_csv),),
            tree_types=(np.int64(1), np.int8(2)),
            node_budget=np.int32(100),
            workers=np.int64(1),
        )
        cells = run_matrix(spec)
        assert [c.tree_type for c in cells] == [1, 1, 2, 2]
        assert not any(c.aborted for c in cells)


class TestRunMatrix:
    def test_metrics_on_t0(self, t0_csv):
        spec = ExperimentSpec(
            datasets=(str(t0_csv),),
            measures=("me",),
            tree_types=(1,),
            metrics=("h", "L", "l", "c"),
        )
        cells = run_matrix(spec)
        assert [(c.metric, c.value) for c in cells] == [
            ("h", 1),
            ("L", 3),
            ("l", 1.0),
            ("c", 2.0),
        ]
        assert all(c.dataset == "t0" for c in cells)
        assert all(c.nodes == 3 for c in cells)
        assert all(not c.aborted and c.note == "" for c in cells)
        assert all(c.seconds >= 0 for c in cells)

    def test_cells_in_specification_order(self, t0_csv):
        spec = ExperimentSpec(
            datasets=("gen:balance-scale", str(t0_csv)),
            measures=("me", "gini"),
            tree_types=(1, 3),
            metrics=("h",),
        )
        got = [(c.dataset, c.measure, c.tree_type) for c in run_matrix(spec)]
        assert got == [
            (ds, m, k)
            for ds in ("balance-scale", "t0")
            for m in ("me", "gini")
            for k in (1, 3)
        ]

    def test_node_budget_abort_is_per_cell(self, t0_csv):
        spec = ExperimentSpec(
            datasets=(str(t0_csv),),
            measures=("me",),
            tree_types=(1,),
            metrics=("h", "L"),
            node_budget=2,
        )
        cells = run_matrix(spec)
        assert all(c.aborted and c.value is None for c in cells)
        assert all(c.note == "node budget exceeded" for c in cells)

    def test_load_failure_does_not_abort_the_matrix(self, t0_csv):
        spec = ExperimentSpec(
            datasets=("no/such.csv", str(t0_csv)),
            measures=("me",),
            tree_types=(1,),
            metrics=("h",),
        )
        bad, good = run_matrix(spec)
        assert bad.aborted and "no such file" in bad.note
        assert not good.aborted and good.value == 1

    def test_worker_count_does_not_change_cells(self, t0_csv):
        def key(cells):
            return [
                (c.dataset, c.measure, c.tree_type, c.metric,
                 c.value, c.nodes, c.aborted, c.note)
                for c in cells
            ]

        base = dict(
            datasets=(str(t0_csv), "bool:n=2,count=2,seed=3"),
            measures=("me",),
            tree_types=(1, 2),
            metrics=("h", "L", "l", "c"),
        )
        serial = run_matrix(ExperimentSpec(**base, workers=1))
        parallel = run_matrix(ExperimentSpec(**base, workers=3))
        assert key(serial) == key(parallel)

    def test_import_loads_no_process_pool(self):
        # The pool's modules load only when ``run_matrix`` makes a pool.
        src = str(Path(hypotree.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {src!r}); import hypotree; "
             "print('concurrent.futures.process' in sys.modules)"],
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout == "False\n"


class TestAggregateBool:
    def test_min_avg_max(self):
        suite = "bool:n=3,count=3,seed=42"
        cells = [
            cell(f"{suite}#0", "me", 1, "h", 0),
            cell(f"{suite}#1", "me", 1, "h", 3),
            cell(f"{suite}#2", "me", 1, "h", 3),
        ]
        [agg] = aggregate_bool(cells)
        assert agg == BoolAggregate(suite, 3, "me", 1, "h", 0, 2.0, 3, 3)

    def test_aborted_cells_rejected(self):
        bad = cell("bool:n=3,count=1,seed=42#0", "me", 1, "h", None,
                   aborted=True, note="node budget exceeded")
        with pytest.raises(DataError, match="node budget exceeded"):
            aggregate_bool([bad])

    def test_non_suite_dataset_rejected(self):
        with pytest.raises(DataError, match="not a Boolean suite"):
            aggregate_bool([cell("cars", "me", 1, "h", 2)])


class TestRenderReport:
    CELLS = [
        cell("A", "me", 1, "h", 1),
        cell("A", "me", 2, "h", 2),
        cell("B", "me", 1, "h", 3),
        cell("B", "me", 2, "h", 4),
    ]

    def test_markdown_golden(self):
        assert render_report(self.CELLS, "markdown") == (
            "## h, measure=me\n"
            "\n"
            "| dataset | t1 | t2 |\n"
            "| --- | --- | --- |\n"
            "| A | 1 | 2 |\n"
            "| B | 3 | 4 |\n"
            "| Average | 2.00 | 3.00 |\n"
        )

    def test_csv_golden(self):
        assert render_report(self.CELLS, "csv") == (
            "measure,metric,dataset,t1,t2\n"
            "me,h,A,1,2\n"
            "me,h,B,3,4\n"
            "me,h,Average,2.00,3.00\n"
        )

    def test_single_dataset_has_no_average_row(self):
        got = render_report(self.CELLS[:2], "markdown")
        assert "Average" not in got
        assert "| A | 1 | 2 |" in got

    def test_aborted_cells_render_as_dash(self):
        cells = [
            cell("A", "me", 1, "h", 1),
            cell("B", "me", 1, "h", None, aborted=True, note="x"),
        ]
        got = render_report(cells, "markdown")
        assert "| B | — |" in got
        assert "| Average | — |" in got

    def test_fractional_metrics_use_two_decimals(self):
        got = render_report([cell("A", "me", 1, "l", 1.5)], "markdown")
        assert "| A | 1.50 |" in got

    def test_empty_inputs(self):
        assert render_report([], "markdown") == ""
        assert render_report([], "csv") == "measure,metric,dataset\n"

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(self.CELLS, "html")


class TestRenderBoolReport:
    AGGS = [
        BoolAggregate("bool:n=3,count=3,seed=42", 3, "me", 1, "h", 2, 3.0, 4, 3),
        BoolAggregate("bool:n=3,count=3,seed=42", 3, "me", 2, "h", 1, 1.5, 2, 3),
    ]

    def test_markdown_golden(self):
        assert render_bool_report(self.AGGS, "markdown") == (
            "## h, measure=me (min avg max)\n"
            "\n"
            "| suite | t1 | t2 |\n"
            "| --- | --- | --- |\n"
            "| n=3 | 2 3.00 4 | 1 1.50 2 |\n"
        )

    def test_csv_golden(self):
        assert render_bool_report(self.AGGS, "csv") == (
            "measure,metric,n,type,min,avg,max\n"
            "me,h,3,1,2,3.00,4\n"
            "me,h,3,2,1,1.50,2\n"
        )

    def test_empty(self):
        assert render_bool_report([], "markdown") == ""

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_bool_report(self.AGGS, "html")
