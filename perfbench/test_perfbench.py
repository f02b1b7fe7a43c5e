"""Tests of the benchmark itself: the checker, the tracer and the metric names.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hypotree  # noqa: E402

import calibration  # noqa: E402
import checker  # noqa: E402
import run as bench  # noqa: E402
from tracing import Tracer, patched, plain_call  # noqa: E402

MEASURES = ("me", "rme", "ent", "gini", "r")


def _tables():
    rng = random.Random(5)
    names = ("a", "b-c", "d", "e")
    out = [
        hypotree.DecisionTable(("f1", "f2", "f3"),
                               [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], [1, 1, 2, 2]),
        hypotree.table_of(hypotree.random_function(4, 42, 0)),
    ]
    for _ in range(4):
        grid = [(a, b, c, d) for a in range(3) for b in range(2) for c in range(3)
                for d in (0, 5)]
        rows = rng.sample(grid, 14)
        out.append(hypotree.DecisionTable(names, rows, [rng.randrange(3) for _ in rows]))
    return out


def _check(table, text, tree_type, measure):
    ct = checker.Table(table.attribute_names, table.values.tolist(), table.decisions.tolist())
    return checker.check_tree(text, ct, tree_type, measure, greedy_nodes=-1)


@pytest.mark.parametrize("tree_type", [1, 2, 3, 4, 5])
def test_checker_agrees_with_program_on_correct_trees(tree_type):
    for table in _tables():
        for measure in MEASURES:
            tree = hypotree.build_tree(table, tree_type, measure)
            result = _check(table, tree.serialize(), tree_type, measure)
            assert result.ok, result.violations
            stats = hypotree.rule_stats(table, tree)
            assert result.h == hypotree.depth(tree)
            assert result.realizable == hypotree.realizable_count(table, tree)
            assert result.row_lengths == stats.row_lengths.tolist()
            assert result.row_coverages == stats.row_coverages.tolist()
            assert result.greedy_nodes_checked == result.working_nodes


def _bool_tree():
    table = hypotree.table_of(hypotree.random_function(4, 42, 1))
    tree = hypotree.build_tree(table, 2, "me")
    return table, tree.serialize().splitlines(keepends=True)


def test_checker_rejects_a_flipped_terminal_label():
    table, lines = _bool_tree()
    reached = hypotree.build_tree(table, 2, "me").path_row_counts
    for want_reached in (True, False):
        node = next(i for i, line in enumerate(lines)
                    if " T " in line and (reached[i] > 0) == want_reached)
        node_id, _, label = lines[node].split()
        bad = lines.copy()
        bad[node] = f"{node_id} T {1 - int(label)}\n"
        assert not _check(table, "".join(bad), 2, "me").ok


def test_checker_rejects_a_wrong_child_id():
    table, lines = _bool_tree()
    node = next(i for i, line in enumerate(lines) if " W " in line)
    head, _, child = lines[node].rstrip("\n").rpartition(":")
    bad = lines.copy()
    bad[node] = f"{head}:{int(child) + 1}\n"
    assert _check(table, "".join(lines), 2, "me").ok
    assert not _check(table, "".join(bad), 2, "me").ok


def test_checker_rejects_a_non_greedy_query():
    # Attribute f1 separates the decisions at once; querying f2 first is a
    # well-formed, correctly labeled tree that is not greedy.
    table = hypotree.DecisionTable(("f1", "f2", "f3"),
                                   [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], [1, 1, 2, 2])
    text = (
        "0 W f2 [f2=0]:1 [f2=1]:2\n"
        "1 W f1 [f1=0]:3 [f1=1]:4\n"
        "2 W f1 [f1=0]:5 [f1=1]:6\n"
        "3 T 1\n4 T 2\n5 T 1\n6 T 2\n"
    )
    result = _check(table, text, 1, "me")
    assert result.h == 2 and result.realizable == 7
    assert [v.split(":")[0] for v in result.violations] == ["node 0"]


def _pass(tables, cells, call):
    return bench.run_pass(hypotree, tables, cells, call, keep=False)


def test_traced_and_untraced_passes_produce_identical_digests():
    tables = {str(i): t for i, t in enumerate(_tables())}
    cells = [(key, m, k) for key in tables for m in ("me", "ent") for k in (1, 2, 3, 4, 5)]
    plain = _pass(tables, cells, plain_call)
    tracer = Tracer()
    with patched(tracer, bench.build_targets(hypotree)):
        traced = _pass(tables, cells, tracer.call)
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    selfs = tracer.self_times()
    assert set(bench.LAYER_SPANS) <= set(selfs)
    assert tracer.counts["queries.branch_stats_calls"] == tracer.counts["queries.select_calls"] > 0
    # Self times add up to the top-level spans the pass timed.
    top = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(selfs.values()) == pytest.approx(top, rel=1e-9)
    assert hypotree.builder.branch_stats is not None
    assert "traced" not in hypotree.builder.branch_stats.__name__


def test_a_missing_layer_function_is_skipped():
    tracer = Tracer()

    class Empty:
        pass

    with patched(tracer, [(Empty, "gone", "x.gone", None), (None, "gone", "y.gone", None)]):
        assert tracer.call("top", sum, [1, 2]) == 3
    assert set(tracer.self_times()) == {"top"}


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    res = _result(1.0, 1.0, 1.0, 3.0, 1.5, nodes=10, realizable=5)
    traced_layer = {name: 1.0 for name in bench.LAYER_SPANS.values()}
    traced_layer.update({name: 1 for name in bench.PASS_COUNTERS})
    setup_layer = {name: 1.0 for name in bench.SETUP_SPANS.values()}
    setup_layer["table.tables"] = 1
    layers = bench.layer_metrics([res], [res], [traced_layer], [setup_layer],
                                 [checker.CheckResult()])
    assert set(layers) == layer_names
    end_to_end = bench.end_to_end_metrics([res], [0.1], [0.5], 100.0)
    assert set(end_to_end) == {m["name"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    got = {**layers, **end_to_end}
    assert all(unit == units[name] for name, (_, unit) in got.items())


def _result(grid, build, validate, wall, slowdown, **more):
    """A one-cell pass: the build is all of ``build``, rule_stats the rest of ``grid``."""
    res = bench.PassResult(grid_s=grid, build_s=build, validate_s=validate, wall_s=wall, **more)
    res.scaled = {"grid_s": grid / slowdown, "build_s": build / slowdown,
                  "validate_s": validate / slowdown, "wall_s": wall / slowdown}
    calls = {"build_tree": build, "rule_stats": grid - build, "validate": validate}
    res.call_scaled = np.array([[calls.get(name, 0.0) / slowdown for name in bench.STEP_NAMES]])
    return res


def test_end_to_end_times_are_per_call_medians_of_scaled_passes():
    fast = _result(2.0, 1.0, 1.0, 3.0, 1.0)
    slow = _result(3.0, 1.5, 1.5, 4.5, 1.5)
    odd = _result(3.0, 1.5, 1.5, 4.5, 1.0)
    metrics = bench.end_to_end_metrics([fast, slow, odd], [0.1], [0.5], 100.0)
    assert metrics["grid_s"][0] == pytest.approx(2.0)
    assert metrics["build_s"][0] == pytest.approx(1.0)
    assert metrics["validate_s"][0] == pytest.approx(1.0)
    assert slow.slowdown == pytest.approx(1.5)


def test_the_pacer_divides_each_segment_by_the_slowdown_around_it(monkeypatch):
    readings = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(calibration, "slowdown_now", lambda: next(readings))
    pacer = calibration.Pacer(3, interval=0.0)
    pacer.tick(force=True)
    pacer.add(0, 4.0)
    pacer.tick()
    pacer.add(1, 5.0)
    pacer.add(2, 1.0)
    pacer.tick(force=True)
    assert pacer.scaled.tolist() == pytest.approx([4.0 / 2.0, 5.0 / 2.5, 1.0 / 2.5])


def test_a_paced_pass_has_the_same_digest():
    tables = {str(i): t for i, t in enumerate(_tables()[:2])}
    cells = [(key, "me", k) for key in tables for k in (2, 3)]
    plain = _pass(tables, cells, plain_call)
    paced = bench.run_pass(hypotree, tables, cells, plain_call, keep=False, pace=True)
    assert paced.digest == plain.digest
    assert plain.slowdown == 1.0 and paced.slowdown > 0
    assert paced.grid_s > 0 and paced.scaled["grid_s"] > 0


def test_a_failing_cell_is_counted_and_its_times_left_out(monkeypatch):
    tables = {str(i): t for i, t in enumerate(_tables()[:2])}
    cells = [(key, "me", 3) for key in tables]
    validate = hypotree.validate

    def failing(table, tree):
        if table is tables["1"]:
            raise ValueError("injected")
        return validate(table, tree)

    monkeypatch.setattr(hypotree, "validate", failing)
    res = bench.run_pass(hypotree, tables, cells, plain_call, keep=True, pace=True)
    assert res.failed == 1
    assert res.outputs[1] is None and res.outputs[0] is not None
    assert res.call_scaled[1].tolist() == [0.0] * len(bench.STEP_NAMES)
    assert res.call_scaled[0].sum() > 0
