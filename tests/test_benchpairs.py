"""The pair runner's summary: quartiles, pairs won and the ratio of medians."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "benchpairs.py"
spec = importlib.util.spec_from_file_location("benchpairs", SCRIPT)
benchpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpairs)

METRICS = [
    {"name": "grid_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "share", "unit": "ratio", "better": "higher"},
]


def runs_of(pairs):
    """Raw runs from (seed, parent metrics, change metrics), the parent first."""
    runs = []
    for seed, parent, change in pairs:
        runs.append({"side": "parent", "seed": seed, "metrics": parent})
        runs.append({"side": "change", "seed": seed, "metrics": change})
    return runs


def test_quartiles_interpolate_as_numpy():
    values = [0.53, 0.457, 0.459, 0.468, 0.46, 0.51]
    q = benchpairs.quartiles(values)
    assert [q["q1"], q["median"], q["q3"]] == pytest.approx(
        np.percentile(values, [25, 50, 75]), abs=1e-5)
    assert benchpairs.quartiles([2.0]) == {"q1": 2.0, "median": 2.0, "q3": 2.0}


def test_pairs_won_follow_the_better_direction_and_ties_count_for_neither():
    runs = runs_of([
        (1, {"grid_s": 4.0, "share": 0.5}, {"grid_s": 3.0, "share": 0.6}),  # change wins both
        (2, {"grid_s": 4.0, "share": 0.5}, {"grid_s": 4.0, "share": 0.5}),  # ties
        (3, {"grid_s": 2.0, "share": 0.7}, {"grid_s": 3.0, "share": 0.4}),  # parent wins both
        (4, {"grid_s": 5.0, "share": 0.5}, {"grid_s": 1.0, "share": 0.9}),
    ])
    summary = benchpairs.summarize(runs, METRICS)
    grid = summary["grid_s"]
    assert grid["unit"] == "s"
    assert grid["change_better_pairs"] == 2
    assert grid["parent"] == benchpairs.quartiles([4.0, 4.0, 2.0, 5.0])
    assert grid["change"] == benchpairs.quartiles([3.0, 4.0, 3.0, 1.0])
    assert grid["change_over_parent_median"] == pytest.approx(3.0 / 4.0)
    share = summary["share"]
    assert share["change_better_pairs"] == 2
    assert share["change_over_parent_median"] == pytest.approx(0.55 / 0.5)


def test_pairs_match_by_seed_and_skip_missing_metrics():
    runs = runs_of([
        (7, {"grid_s": 2.0}, {"grid_s": 1.0}),
        (8, {"grid_s": 2.0}, {}),  # a failed run reports no metrics
    ])
    runs.append({"side": "parent", "seed": 9, "metrics": {"grid_s": 9.0}})  # its pair unfinished
    runs.reverse()
    summary = benchpairs.summarize(runs, METRICS)
    assert set(summary) == {"grid_s"}
    assert summary["grid_s"]["parent"]["median"] == 2.0
    assert summary["grid_s"]["change_better_pairs"] == 1
    assert summary["grid_s"]["change_over_parent_median"] == 0.5


def test_a_result_line_becomes_bare_metric_values():
    stdout = "progress\n" + json.dumps({
        "correct": True, "attempted": 384, "failed": 0,
        "metrics": {"grid_s": {"value": 0.111, "unit": "s"},
                    "peak_rss_mb": {"value": 60.9, "unit": "MiB"}},
    }) + "\n"
    assert benchpairs.parse_result(stdout) == {
        "correct": True, "attempted": 384, "failed": 0,
        "metrics": {"grid_s": 0.111, "peak_rss_mb": 60.9},
    }
    assert benchpairs.parse_result("") is None
    assert benchpairs.parse_result("Traceback ...\n") is None


BENCH = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]


def fake_runs(monkeypatch, lacking=None):
    """Replace the checkouts and perfbench runs; ``lacking(workload, side)`` names
    the per-layer metrics a traced run leaves out, or ``None`` for no result at all.
    Returns the list of (workload, side, trace) calls made."""
    calls = []

    def run_side(checkout, workload, seed, seconds, trace=0):
        side = checkout.name
        calls.append((workload, side, trace))
        if not trace:
            return {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {name: 2.0 if side == "parent" else 1.0 for name in END_TO_END}}
        left_out = lacking(workload, side) if lacking else []
        if left_out is None:  # perfbench printed no result line
            return {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                    "error": "exit 1: Traceback"}
        metrics = {name: 3.0 if side == "parent" else 1.5 for name in PER_LAYER
                   if name not in left_out}
        metrics["boolgen.generate_s"] = None  # a layer the workload never calls
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(benchpairs, "run_side", run_side)
    monkeypatch.setattr(benchpairs, "checkout_parent", lambda rev, into: None)
    monkeypatch.setattr(benchpairs, "checkout_change", lambda into: None)
    monkeypatch.setattr(benchpairs, "git", lambda *args: "abc1234")
    return calls


def test_traced_runs_come_first_and_their_medians_are_written(tmp_path, monkeypatch):
    calls = fake_runs(monkeypatch)
    out = tmp_path / "BENCH_99.json"
    assert benchpairs.main(["HEAD", "--pairs", "2", "--traced", "--out", str(out)]) == 0
    workloads = [w["name"] for w in BENCH["workloads"]]
    traced = [(w, side, 1) for w in workloads for side in ("parent", "change")]
    assert calls[: len(traced)] == traced
    assert all(trace == 0 for _, _, trace in calls[len(traced):])
    report = json.loads(out.read_text())
    assert list(report["traced"]) == list(report["end_to_end"]) == workloads
    for entry in report["traced"].values():
        assert entry["pairs"] == 1 and entry["seeds"] == [9903]
        assert [run["side"] for run in entry["runs"]] == ["parent", "change"]
        assert set(entry["summary"]) == set(PER_LAYER) - {"boolgen.generate_s"}
        assert entry["summary"]["builder.self_s"] == {"parent_median": 3.0,
                                                      "change_median": 1.5}
    assert report["end_to_end"]["tiny-corpus"]["seeds"] == [9901, 9902]


def test_a_traced_run_lacking_a_declared_metric_stops_the_runner(tmp_path, monkeypatch,
                                                                  capsys):
    def lacking(workload, side):
        if workload == "ttt-hyp" and side == "change":
            return ["builder.self_s"]
        if workload == "tiny-corpus" and side == "parent":
            return None
        return []

    calls = fake_runs(monkeypatch, lacking)
    out = tmp_path / "BENCH_99.json"
    assert benchpairs.main(["HEAD", "--pairs", "2", "--traced", "--out", str(out)]) == 1
    assert all(trace == 1 for _, _, trace in calls)  # no pair ran
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert errors == [
        "error: ttt-hyp change: traced run lacks builder.self_s",
        "error: tiny-corpus parent: traced run lacks " + ", ".join(PER_LAYER),
    ]
    report = json.loads(out.read_text())
    assert set(report["traced"]) == {w["name"] for w in BENCH["workloads"]}
    assert report["end_to_end"] == {}
