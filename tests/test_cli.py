"""CLI subcommands, output goldens, and exit codes."""

import subprocess
import sys

import pytest

import hypotree.cli as cli
from hypotree.cli import UsageError, _parse_range_list, main

from conftest import T0_CSV

BUILD_GOLDEN = "0 W f1 [f1=0]:1 [f1=1]:2\n1 T 0\n2 T 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_stdout(self, capsys, t0_csv):
        code, out, err = run(
            capsys, "build", "--table", str(t0_csv), "--type", "1"
        )
        assert (code, err) == (0, "")
        assert out == BUILD_GOLDEN

    def test_out_file(self, capsys, t0_csv, tmp_path):
        target = tmp_path / "tree.txt"
        code, out, _ = run(
            capsys, "build", "--table", str(t0_csv), "--type", "1",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8") == BUILD_GOLDEN

    def test_generated_source(self, capsys):
        code, out, _ = run(
            capsys, "metrics", "--table", "gen:balance-scale", "--type", "1",
            "--show", "h",
        )
        assert code == 0
        assert out == "h=4\n"

    def test_bool_source_with_count_one(self, capsys):
        code, out, _ = run(
            capsys, "metrics", "--table", "bool:n=3,count=1,seed=42",
            "--type", "1", "--show", "h",
        )
        assert code == 0
        assert out.startswith("h=")


class TestMetrics:
    def test_default_shows_depth_and_nodes(self, capsys, t0_csv):
        code, out, _ = run(
            capsys, "metrics", "--table", str(t0_csv), "--type", "1"
        )
        assert code == 0
        assert out == "h=1\nL=3\n"

    def test_all_metrics(self, capsys, t0_csv):
        code, out, _ = run(
            capsys, "metrics", "--table", str(t0_csv), "--type", "1",
            "--show", "h,L,l,c",
        )
        assert code == 0
        assert out == "h=1\nL=3\nl=1.00\nc=2.00\n"

    @pytest.mark.parametrize("show", ["x", ",", "h,h"])
    def test_unknown_metric(self, capsys, t0_csv, show):
        code, out, err = run(
            capsys, "metrics", "--table", str(t0_csv), "--type", "1",
            "--show", show,
        )
        assert code == 1
        assert out == ""
        assert "error:" in err


class TestRules:
    def test_readable(self, capsys, t0_csv):
        code, out, _ = run(
            capsys, "rules", "--table", str(t0_csv), "--type", "1"
        )
        assert code == 0
        assert out == (
            "(f1=0) → 0 [len=1, cov=2]\n"
            "(f1=1) → 1 [len=1, cov=2]\n"
        )

    def test_csv_to_stdout(self, capsys, t0_csv):
        code, out, _ = run(
            capsys, "rules", "--table", str(t0_csv), "--type", "1", "--csv"
        )
        assert code == 0
        assert out == (
            "premise,decision,length,coverage\n"
            "f1=0,0,1,2\n"
            "f1=1,1,1,2\n"
        )

    def test_csv_to_file(self, capsys, t0_csv, tmp_path):
        target = tmp_path / "rules.csv"
        code, out, _ = run(
            capsys, "rules", "--table", str(t0_csv), "--type", "1",
            "--csv", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8").startswith(
            "premise,decision,length,coverage\n"
        )

    def test_readable_to_file(self, capsys, t0_csv, tmp_path):
        target = tmp_path / "rules.txt"
        code, out, _ = run(
            capsys, "rules", "--table", str(t0_csv), "--type", "2",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        assert "→" in target.read_text(encoding="utf-8")

    @pytest.mark.parametrize("to_file", [True, False])
    def test_csv_with_out_is_a_usage_error(self, capsys, t0_csv, tmp_path, to_file):
        csv = ["--csv", str(tmp_path / "rules.csv")] if to_file else ["--csv"]
        code, out, err = run(
            capsys, "rules", "--table", str(t0_csv), "--type", "1",
            *csv, "--out", str(tmp_path / "rules.txt"),
        )
        assert (code, out) == (1, "")
        assert err == "error: --out does not apply with --csv; give the file to --csv\n"
        assert not (tmp_path / "rules.csv").exists()
        assert not (tmp_path / "rules.txt").exists()


class TestValidate:
    def test_ok(self, capsys, t0_csv):
        code, out, _ = run(
            capsys, "validate", "--table", str(t0_csv), "--type", "2"
        )
        assert code == 0
        assert out == "ok: structural checks and 4-row simulation passed\n"

    def test_simulation_bound(self, capsys, t0_csv):
        # The simulation always runs; there is no bound to set.
        code, _, _ = run(
            capsys, "validate", "--table", str(t0_csv), "--type", "1",
            "--simulation-bound", "0",
        )
        assert code == 1


class TestExperiment:
    def test_csv_report(self, capsys, t0_csv):
        code, out, _ = run(
            capsys, "experiment", "--tables", str(t0_csv),
            "--types", "1", "--metrics", "h,L", "--format", "csv",
        )
        assert code == 0
        assert out == (
            "measure,metric,dataset,t1\n"
            "me,h,t0,1\n"
            "me,L,t0,3\n"
        )

    def test_markdown_report_to_file(self, capsys, t0_csv, tmp_path):
        target = tmp_path / "report.md"
        code, out, _ = run(
            capsys, "experiment", "--tables", str(t0_csv),
            "--types", "1,2", "--metrics", "h", "--out", str(target),
        )
        assert code == 0 and out == ""
        text = target.read_text(encoding="utf-8")
        assert text.startswith("## h, measure=me\n")
        assert "| t0 | 1 | 2 |" in text

    def test_comma_joined_tables(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(T0_CSV, encoding="utf-8")
        b.write_text(T0_CSV, encoding="utf-8")
        code, out, _ = run(
            capsys, "experiment", "--tables", f"{a},{b}",
            "--types", "1", "--metrics", "h",
        )
        assert code == 0
        assert "| a | 1 |" in out and "| b | 1 |" in out
        assert "| Average | 1.00 |" in out

    def test_types_range_and_measures(self, capsys, t0_csv):
        code, out, _ = run(
            capsys, "experiment", "--tables", str(t0_csv),
            "--types", "1-3", "--measures", "me,gini", "--metrics", "h",
            "--format", "csv",
        )
        assert code == 0
        assert "me,h,t0,1,2,1" in out
        assert "gini,h,t0,1,2,1" in out

    def test_load_failure_renders_dashes(self, capsys):
        code, out, err = run(
            capsys, "experiment", "--tables", "no/such.csv",
            "--types", "1", "--metrics", "h", "--format", "csv",
        )
        assert code == 0
        assert "me,h,such,—" in out
        assert err == "note: such (me, t1): no such file: no/such.csv\n"

    def test_one_note_per_aborted_tree_in_cell_order(self, capsys, t0_csv):
        code, out, err = run(
            capsys, "experiment", "--tables", f"no/such.csv,{t0_csv}",
            "--types", "1-2", "--measures", "me,ent", "--metrics", "h,L",
            "--budget", "3", "--format", "csv",
        )
        assert code == 0
        assert "me,L,t0,3,—" in out
        assert err.splitlines() == [
            "note: such (me, t1): no such file: no/such.csv",
            "note: such (me, t2): no such file: no/such.csv",
            "note: such (ent, t1): no such file: no/such.csv",
            "note: such (ent, t2): no such file: no/such.csv",
            "note: t0 (me, t2): node budget exceeded",
            "note: t0 (ent, t2): node budget exceeded",
        ]


class TestExperimentBool:
    def test_aggregated_report(self, capsys):
        code, out, _ = run(
            capsys, "experiment-bool", "--n", "2", "--count", "3",
            "--seed", "5", "--types", "1", "--metrics", "h",
        )
        assert code == 0
        assert out.startswith("## h, measure=me (min avg max)\n")
        assert "| n=2 |" in out

    def test_n_range(self, capsys):
        code, out, _ = run(
            capsys, "experiment-bool", "--n", "2-3", "--count", "2",
            "--types", "1", "--metrics", "h", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "measure,metric,n,type,min,avg,max"
        assert [line.split(",")[2] for line in lines[1:]] == ["2", "3"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("experiment-bool", "--n", "x", "--types", "1"),
            ("experiment-bool", "--n", "0", "--types", "1"),
            ("experiment-bool", "--n", "17", "--types", "1"),
            ("experiment-bool", "--n", "2,2", "--types", "1"),
            ("experiment-bool", "--n", "6-3,2", "--types", "1"),
            ("experiment-bool", "--n", "2", "--count", "0", "--types", "1"),
            ("experiment-bool", "--n", "2", "--seed", "-1", "--types", "1"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "error:" in err

    def test_range_bounds_checked_before_expansion(self):
        with pytest.raises(UsageError, match="got 1000000000000"):
            _parse_range_list("1-1000000000000", "variable count", 1, 16)


class TestExitCodes:
    def test_no_command(self, capsys):
        assert run(capsys)[0] == 1

    def test_missing_required_argument(self, capsys, t0_csv):
        code, _, err = run(capsys, "build", "--table", str(t0_csv))
        assert code == 1 and "error:" in err

    def test_bad_tree_type_value(self, capsys, t0_csv):
        code, _, _ = run(
            capsys, "build", "--table", str(t0_csv), "--type", "9"
        )
        assert code == 1

    def test_bad_types_spec(self, capsys, t0_csv):
        code, _, err = run(
            capsys, "experiment", "--tables", str(t0_csv), "--types", "0"
        )
        assert code == 1 and "error:" in err

    def test_decision_column_with_generated_source(self, capsys):
        code, _, err = run(
            capsys, "build", "--table", "gen:balance-scale", "--type", "1",
            "--decision-column", "x",
        )
        assert code == 1 and "only applies to CSV" in err

    def test_multi_table_source_rejected_for_single_commands(self, capsys):
        code, _, err = run(
            capsys, "build", "--table", "bool:n=3,count=2,seed=1", "--type", "1"
        )
        assert code == 1 and "exactly one" in err

    def test_data_error(self, capsys):
        code, _, err = run(
            capsys, "build", "--table", "missing.csv", "--type", "1"
        )
        assert code == 2 and "data error:" in err

    def test_budget_exceeded(self, capsys, t0_csv):
        code, _, err = run(
            capsys, "build", "--table", str(t0_csv), "--type", "1",
            "--budget", "2",
        )
        assert code == 3 and "aborted:" in err

    @pytest.mark.parametrize(
        "command",
        [
            ("build", "--type", "1", "--out"),
            ("rules", "--type", "1", "--csv"),
            ("experiment", "--types", "1", "--out"),
        ],
    )
    def test_unwritable_output_is_an_error(self, capsys, t0_csv, tmp_path, command,
                                           monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the output file is checked before any work")

        monkeypatch.setattr(cli, "build_tree", unreachable)
        monkeypatch.setattr(cli, "run_matrix", unreachable)
        name, *options = command
        table = "--tables" if name == "experiment" else "--table"
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, name, table, str(t0_csv), *options, str(target))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"

    @pytest.mark.parametrize(
        "command",
        [
            ("build", "--type", "1", "--out"),
            ("rules", "--type", "1", "--csv"),
            ("rules", "--type", "1", "--out"),
        ],
    )
    def test_output_check_leaves_no_file_on_abort(self, capsys, t0_csv, tmp_path, command):
        name, *options = command
        fresh, kept = tmp_path / "fresh.txt", tmp_path / "kept.txt"
        kept.write_text("before\n", encoding="utf-8")
        for target in (fresh, kept):
            code, out, err = run(capsys, name, "--table", str(t0_csv), "--budget", "2",
                                 *options, str(target))
            assert (code, out) == (3, "") and err.startswith("aborted:")
        assert not fresh.exists()
        assert kept.read_text(encoding="utf-8") == "before\n"

    def test_output_directory_is_an_error(self, capsys, t0_csv, tmp_path):
        code, out, err = run(capsys, "build", "--table", str(t0_csv), "--type", "1",
                             "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_budget_below_one_is_a_usage_error(self, capsys, t0_csv):
        code, _, err = run(
            capsys, "build", "--table", str(t0_csv), "--type", "1", "--budget", "0",
        )
        assert code == 1 and "error:" in err


class TestEntryPoint:
    def test_console_script(self, t0_csv):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from hypotree.cli import entry; entry()",
             "build", "--table", str(t0_csv), "--type", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == BUILD_GOLDEN
