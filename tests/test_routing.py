"""The routing pass against per-node reference walks, and its two ways of routing a tree."""

import itertools
import random

import numpy as np
import pytest

from hypotree import (
    ConstraintError,
    DecisionTable,
    build_tree,
    datasets,
    depth,
    derive_rules,
    realizable_count,
    rule_stats,
    validate,
)
import hypotree.builder as builder
import hypotree.metrics as metrics
from hypotree.builder import TERMINAL, Routing
from hypotree.rules import _row_optima

import oracles
from test_queries import random_table

CENTRE = 4  # tic-tac-toe boards encode x 0, o 1, blank 2


def ttt_centre_blank() -> DecisionTable:
    full = datasets.tic_tac_toe()
    keep = full.values[:, CENTRE] == 2
    return DecisionTable(full.attribute_names, full.values[keep], full.decisions[keep])


def differential_cases():
    rng = random.Random(20221)
    tables = [random_table(rng) for _ in range(12)]
    for index, table in enumerate(tables):
        for tree_type in (1, 2, 3, 4, 5):
            for measure in ("me", "ent"):
                yield pytest.param(table, tree_type, measure,
                                   id=f"random{index}-t{tree_type}-{measure}")


def occurrences(table, tree_type, measure):
    """A fresh tree's ``node_rows`` and its (row, terminal) pairs, lexsorted."""
    routing = build_tree(table, tree_type, measure).route_rows()  # a tree keeps its routing
    order = np.lexsort((routing.rows, routing.terminals))
    return routing.node_rows, routing.rows[order], routing.terminals[order]


def check_against_oracles(table, tree):
    lengths, coverages = oracles.oracle_rule_stats(table, tree)
    stats = rule_stats(table, tree)
    assert np.array_equal(stats.row_lengths, lengths)
    assert np.array_equal(stats.row_coverages, coverages)
    report = validate(table, tree)
    assert report.ok, report.violations
    assert report.rows_simulated == table.n_rows
    reached = np.count_nonzero(tree.route_rows().node_rows)
    assert reached == oracles.oracle_realizable(table, tree)


class TestDifferential:
    @pytest.mark.parametrize("table, tree_type, measure", differential_cases())
    def test_random_tables(self, table, tree_type, measure):
        check_against_oracles(table, build_tree(table, tree_type, measure))

    def test_tic_tac_toe_centre_blank_t2(self):
        table = ttt_centre_blank()
        check_against_oracles(table, build_tree(table, 2, "me"))


class TestRouting:
    def test_occurrences_match_truthful_terminals(self, t0):
        tree = build_tree(t0, 2, "me")
        routing = tree.route_rows()
        for r in range(t0.n_rows):
            got = set(routing.terminals[routing.rows == r].tolist())
            assert got == oracles.truthful_terminals(t0, tree, t0.values[r])
        assert np.array_equal(routing.node_rows, tree.path_row_counts)

    def test_depths_count_edges(self, t0):
        tree = build_tree(t0, 2, "me")
        terminals = tree.route_rows().terminals
        depths = np.searchsorted(tree.level_starts, terminals, "right") - 1
        depth_of = dict(zip(terminals.tolist(), depths.tolist()))
        assert depth_of == {1: 1, 2: 1, 6: 2, 8: 2, 10: 2, 11: 2}

    def test_occurrence_outside_its_level_raises(self, t0, monkeypatch):
        for wide_from in (0, 1 << 62):  # every level in NumPy, every level in Python
            monkeypatch.setattr(builder, "_WIDE_ROUTING", wide_from)
            # The root's children would be nodes 0-1, back on level 0, or
            # nodes 2-3, past level 1's last id 2.
            for first in (0, 2):
                tree = build_tree(t0, 1, "me")
                tree._first[0] = first
                with pytest.raises(ValueError, match="outside its level"):
                    tree.route_rows()
            # A node some row reaches on the deepest level turns working, so
            # its rows would move below that level: node 1 of the t1 tree
            # (level starts 0, 1, 3) and node 8 of the t2 tree (0, 1, 5, 13).
            for tree_type, node, kind in ((1, 1, builder.WORKING_ATTR),
                                          (2, 8, builder.WORKING_HYP)):
                tree = build_tree(t0, tree_type, "me")
                assert tree.level_starts[-2] <= node and tree.route_rows().node_rows[node]
                tree = build_tree(t0, tree_type, "me")
                tree._kind[node] = kind
                with pytest.raises(ValueError, match="outside its level"):
                    validate(t0, tree)
            # A one-node tree whose root turns into an attribute query.
            table = DecisionTable(("f1",), [(0,), (1,)], [1, 1])
            tree = build_tree(table, 1, "me")
            tree._kind[0], tree._label[0] = builder.WORKING_ATTR, 0
            with pytest.raises(ValueError, match="outside its level"):
                tree.route_rows()

    def test_chunks_do_not_change_the_result(self, monkeypatch):
        table = ttt_centre_blank()
        whole = occurrences(table, 2, "me")
        monkeypatch.setattr(builder, "_ROUTE_CHUNK_CELLS", 3 * table.n)
        chunked = occurrences(table, 2, "me")
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b)


def check_routing_paths(table, tree_type, measure, monkeypatch) -> None:
    """Route all in NumPy and all in Python; both give the same ``Routing``."""
    results = []
    for wide_from in (0, 1 << 62):  # every table in NumPy, every table in Python
        monkeypatch.setattr(builder, "_WIDE_ROUTING", wide_from)
        results.append(occurrences(table, tree_type, measure))
    for a, b in zip(*results):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


class _NoRowCodes(dict):
    """A row index whose code tuples only the plain-Python pass reads."""

    def __iter__(self):
        raise AssertionError("the plain-Python pass routed a wide table")


class TestRoutingPaths:
    @pytest.mark.parametrize("table, tree_type, measure", differential_cases())
    def test_random_tables(self, table, tree_type, measure, monkeypatch):
        check_routing_paths(table, tree_type, measure, monkeypatch)

    def test_tic_tac_toe_centre_blank_t2_routes_by_table_size(self, monkeypatch):
        full = ttt_centre_blank()
        check_routing_paths(full, 2, "me", monkeypatch)
        monkeypatch.undo()
        wide = builder.DecisionTree._route_wide
        calls = []

        def recorded(tree):
            calls.append(tree.base.n_rows)
            return wide(tree)

        monkeypatch.setattr(builder.DecisionTree, "_route_wide", recorded)
        n = builder._WIDE_ROUTING
        for rows in (full.n_rows, n, n - 1, 2):
            table = DecisionTable(full.attribute_names, full.values[:rows], full.decisions[:rows])
            tree = build_tree(table, 2, "me")
            expected = oracles.oracle_rule_stats(table, tree)
            if rows >= n:  # NumPy from the root: the rows' code tuples are never read
                table._row_index = _NoRowCodes(table._row_index)
            stats = rule_stats(table, tree)
            assert np.array_equal(stats.row_lengths, expected[0])
            assert np.array_equal(stats.row_coverages, expected[1])
        assert calls == [full.n_rows, n]


class TestKeptRouting:
    def test_same_read_only_routing_on_every_call(self, t0):
        tree = build_tree(t0, 2, "me")
        routing = tree.route_rows()
        assert tree.route_rows() is routing
        for part in routing:
            with pytest.raises(ValueError):
                part[0] = 1

    def test_one_pass_serves_every_consumer(self, t0, monkeypatch):
        passes = []
        route = builder.DecisionTree._route

        def counted(tree):
            passes.append(tree)
            return route(tree)

        monkeypatch.setattr(builder.DecisionTree, "_route", counted)
        tree = build_tree(t0, 3, "me")
        rule_stats(t0, tree)
        derive_rules(t0, tree)
        assert validate(t0, tree).ok
        assert passes == [tree]


TAMPERED_T0_VIOLATIONS = [
    "node 2: terminal labeled 5, but its subtable decides 2",
    "node 8: recorded subtable size 3 differs from recomputed 1",
    "row 2: a computation reaches terminal 2 deciding 5, expected 2",
    "row 3: a computation reaches terminal 2 deciding 5, expected 2",
]


class TestViolationOrder:
    def test_structural_by_node_then_simulation_by_row_and_terminal(self, t0):
        tree = build_tree(t0, 2, "me")
        tree._label[2] = 5
        tree._nrows[8] = 3
        assert validate(t0, tree).violations == TAMPERED_T0_VIOLATIONS

    def test_tampering_after_routing_is_still_caught(self, t0):
        # The kept routing does not read terminals' labels or the recorded
        # counts, so validate sees both edits made after it was computed.
        tree = build_tree(t0, 2, "me")
        rule_stats(t0, tree)
        tree._label[2] = 5
        tree._nrows[8] = 3
        assert validate(t0, tree).violations == TAMPERED_T0_VIOLATIONS

    def test_simulation_lines_by_row_before_terminal(self, t0):
        tree = build_tree(t0, 2, "me")
        tree._label[2] = 5  # reached by rows 2 and 3
        tree._label[11] = 6  # reached by row 1
        assert validate(t0, tree).violations == [
            "node 2: terminal labeled 5, but its subtable decides 2",
            "node 11: terminal labeled 6, but its subtable decides 1",
            "row 1: a computation reaches terminal 11 deciding 6, expected 1",
            "row 2: a computation reaches terminal 2 deciding 5, expected 2",
            "row 3: a computation reaches terminal 2 deciding 5, expected 2",
        ]


MEASURES = ("me", "rme", "ent", "gini", "r")
IN_NUMPY, IN_PYTHON = 0, 1 << 62  # values of ``_WIDE_ROUTING``


def small_table(rng: random.Random) -> DecisionTable:
    """1-12 distinct rows over 1-4 attributes of gapped 1-3 value alphabets."""
    n_rows = rng.randint(1, 12)
    while True:
        alphabets = [sorted(rng.sample(range(6), rng.randint(1, 3)))
                     for _ in range(rng.randint(1, 4))]
        grid = list(itertools.product(*alphabets))
        if len(grid) >= n_rows:
            break
    rows = rng.sample(grid, n_rows)
    labels = rng.sample((0, 3, 8), rng.randint(2, 3))
    decisions = [rng.choice(labels) for _ in rows]
    names = [f"f{i + 1}" for i in range(len(alphabets))]
    return DecisionTable(names, np.array(rows), np.array(decisions))


# Each tampering edits the tree after its build and says whether it found
# something to edit.
def reached_label(tree) -> bool:
    """The last reached terminal gets a label no row decides."""
    at = [v for v in range(tree.node_count) if tree._kind[v] == TERMINAL and tree._nrows[v]]
    tree._label[at[-1]] = 99
    return True


def unreached_label(tree) -> bool:
    at = [v for v in range(tree.node_count) if tree._kind[v] == TERMINAL and not tree._nrows[v]]
    if at:
        tree._label[at[0]] = 7
    return bool(at)


def recorded_count(tree) -> bool:
    tree._nrows[tree.node_count // 2] += 2
    return True


def every_tampering(tree) -> bool:
    return any([tamper(tree) for tamper in (reached_label, unreached_label, recorded_count)])


TAMPERINGS = (None, reached_label, unreached_label, recorded_count, every_tampering)


def reader_outputs(table, tree_type, measure, tamper):
    """Every reader's output on a fresh tree, tampered after the build if asked."""
    tree = build_tree(table, tree_type, measure)
    tampered = tamper is not None and tamper(tree)
    stats = rule_stats(table, tree)
    rules = derive_rules(table, build_tree(table, tree_type, measure))  # routes a tree itself
    report = validate(table, tree)
    return {
        "depth": depth(tree),
        "realizable": realizable_count(table, tree),
        "stats": (stats.row_lengths, stats.row_coverages),
        "rules": (rules.rules, rules.row_lengths, rules.row_coverages),
        "violations": report.violations,
        "rows_simulated": report.rows_simulated,
        "ok": report.ok,
        "tampered": tampered,
    }


def reader_cases():
    rng = random.Random(2022)
    for index in range(30):
        yield pytest.param(small_table(rng), id=f"small{index}")
    # A large table: every fourth board of ``ttt_centre_blank()``, 40 rows,
    # whose trees have up to about 3,000 nodes; all 160 boards take 8 times as long.
    full = ttt_centre_blank()
    quarter = DecisionTable(full.attribute_names, full.values[::4], full.decisions[::4])
    yield pytest.param(quarter, id="ttt-centre-blank-quarter")


class TestReaderForms:
    """Rule optima, ``validate`` and ``realizable_count`` read the same in both forms."""

    @pytest.mark.parametrize("table", reader_cases())
    def test_both_forms_agree(self, table, monkeypatch):
        for tree_type in (1, 2, 3, 4, 5):
            for measure in MEASURES:
                for tamper in TAMPERINGS:
                    got = []
                    for wide_from in (IN_NUMPY, IN_PYTHON):
                        monkeypatch.setattr(builder, "_WIDE_ROUTING", wide_from)
                        got.append(reader_outputs(table, tree_type, measure, tamper))
                    in_numpy, in_python = got
                    assert in_numpy["ok"] != in_numpy["tampered"]
                    for key in ("depth", "realizable", "violations", "rows_simulated"):
                        assert in_numpy[key] == in_python[key]
                    for a, b in zip(in_numpy["stats"] + in_numpy["rules"][1:],
                                    in_python["stats"] + in_python["rules"][1:]):
                        assert a.dtype == b.dtype == np.int64
                        assert np.array_equal(a, b)
                    assert in_numpy["rules"][0] == in_python["rules"][0]

    @pytest.mark.parametrize("wide_from", [IN_NUMPY, IN_PYTHON])
    def test_uncovered_rows_rejected_in_both_forms(self, wide_from, monkeypatch):
        monkeypatch.setattr(builder, "_WIDE_ROUTING", wide_from)
        rng = random.Random(7)
        for _ in range(10):
            table = small_table(rng)
            for tree_type in (1, 2, 4):
                tree = build_tree(table, tree_type, "me")
                routing = tree.route_rows()
                keep = routing.rows != table.n_rows - 1
                dropped = Routing(routing.node_rows, routing.rows[keep], routing.terminals[keep])
                with pytest.raises(ConstraintError, match="not covered"):
                    _row_optima(table, tree, dropped)

    def test_small_tree_readers_make_no_view(self, monkeypatch):
        def no_view(arr, dtype):
            raise AssertionError("a reader made a NumPy view of the arena")

        monkeypatch.setattr(builder.DecisionTree, "_as_np", staticmethod(no_view))
        table = DecisionTable(("f1", "f2"), [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)],
                              [0, 1, 1, 0, 2, 0])
        assert table.n_rows == 6 < builder._WIDE_ROUTING
        for tree_type in (1, 2, 3, 4, 5):
            tree = build_tree(table, tree_type, "me")
            depth(tree)
            realizable_count(table, tree)
            rule_stats(table, tree)
            assert validate(table, tree).ok
            assert not tree._views

    def test_large_tree_is_worded_only_when_faulty(self, monkeypatch):
        calls = []
        word = metrics._violations

        def spy(*args):
            calls.append(args)
            return word(*args)

        monkeypatch.setattr(metrics, "_violations", spy)
        table = ttt_centre_blank()
        assert table.n_rows >= builder._WIDE_ROUTING
        tree = build_tree(table, 2, "me")
        assert validate(table, tree).ok
        assert calls == []
        reached_label(tree)
        assert not validate(table, tree).ok
        assert len(calls) == 1
