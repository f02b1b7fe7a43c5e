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
