"""The level-batched routing pass against per-node reference walks."""

import random

import numpy as np
import pytest

from hypotree import DecisionTable, build_tree, datasets, derive_rules, rule_stats, validate
import hypotree.builder as builder

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
        routing = build_tree(t0, 2, "me").route_rows()
        depth_of = dict(zip(routing.terminals.tolist(), routing.depths.tolist()))
        assert depth_of == {1: 1, 2: 1, 6: 2, 8: 2, 10: 2, 11: 2}

    def test_chunks_do_not_change_the_result(self, monkeypatch):
        table = ttt_centre_blank()

        def occurrences():
            # A fresh tree each time: a tree keeps its first routing.
            routing = build_tree(table, 2, "me").route_rows()
            order = np.lexsort((routing.rows, routing.terminals))
            return (routing.node_rows, routing.rows[order],
                    routing.terminals[order], routing.depths[order])

        whole = occurrences()
        monkeypatch.setattr(builder, "_ROUTE_CHUNK_CELLS", 3 * table.n)
        chunked = occurrences()
        for a, b in zip(whole, chunked):
            assert np.array_equal(a, b)


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
