"""Depth, realizable-node counting, simulation, and validation."""

import random

import numpy as np
import pytest

from hypotree import (
    Answer,
    ConstraintError,
    DecisionTable,
    EquationSystem,
    StrategyError,
    build_tree,
    depth,
    first_counterexample,
    realizable_count,
    simulate,
    validate,
)
import hypotree.builder as builder
from hypotree.metrics import ComputationState

import oracles
from test_queries import random_table


class TestDepth:
    def test_depths(self, t0, xor):
        assert depth(build_tree(t0, 1, "me")) == 1
        assert depth(build_tree(t0, 2, "me")) == 2
        assert depth(build_tree(xor, 1, "me")) == 2

    def test_degenerate_depth_zero(self):
        one = DecisionTable(("a",), np.array([(0,)]), np.array([5]))
        tree = build_tree(one, 1, "me")
        assert tree.node_count == 1
        assert depth(tree) == oracles.oracle_depth(tree) == 0

    @pytest.mark.parametrize("wide_from", [1, 1 << 30])  # levels batched: always, never
    @pytest.mark.parametrize("tree_type", [1, 2, 3, 4, 5])
    def test_matches_oracle(self, tree_type, wide_from, monkeypatch):
        monkeypatch.setattr(builder, "_WIDE_FRONTIER", wide_from)
        rng = random.Random(777)
        for _ in range(20):
            table = random_table(rng)
            for measure in ("me", "ent"):
                tree = build_tree(table, tree_type, measure)
                assert depth(tree) == oracles.oracle_depth(tree)


class TestRealizable:
    def test_attribute_tree_fully_realizable(self, t0):
        tree = build_tree(t0, 1, "me")
        assert realizable_count(t0, tree) == 3

    def test_hypothesis_tree_skips_empty_branches(self, t0):
        tree = build_tree(t0, 2, "me")
        assert tree.node_count == 13
        assert realizable_count(t0, tree) == 9

    @pytest.mark.parametrize("tree_type", [1, 2, 3, 4, 5])
    def test_matches_reachability_oracle(self, t0, xor, tree_type):
        for table in (t0, xor):
            tree = build_tree(table, tree_type, "gini")
            assert realizable_count(table, tree) == oracles.oracle_realizable(
                table, tree
            )

    def test_rejects_mismatched_table(self, t0, xor):
        tree = build_tree(t0, 1, "me")
        with pytest.raises(ConstraintError):
            realizable_count(xor, tree)

    def test_accepts_equal_copy(self, t0):
        tree = build_tree(t0, 1, "me")
        copy = DecisionTable(t0.attribute_names, t0.values.copy(), t0.decisions.copy())
        assert realizable_count(copy, tree) == 3


class TestSimulate:
    def test_attribute_tree(self, t0):
        tree = build_tree(t0, 1, "me")
        assert simulate(t0, tree, (1, 0, 1)) == 2
        assert simulate(t0, tree, (0, 1, 1)) == 1

    def test_hypothesis_holds(self, t0):
        tree = build_tree(t0, 2, "me")
        assert simulate(t0, tree, (0, 0, 0)) == 1

    def test_default_strategy_is_first_counterexample(self, t0):
        tree = build_tree(t0, 2, "me")
        assert simulate(t0, tree, (1, 1, 0)) == 2

    def test_every_strategy_gives_the_row_decision(self, t0):
        tree = build_tree(t0, 2, "me")
        for r in range(t0.n_rows):
            row = t0.row_values(r)
            labels = {
                tree.decision(term)
                for term in oracles.truthful_terminals(t0, tree, row)
            }
            assert labels == {int(t0.decisions[r])}
            assert simulate(t0, tree, row) == int(t0.decisions[r])

    def test_custom_strategy_and_state(self, t0):
        tree = build_tree(t0, 2, "me")
        seen = []

        def last_counterexample(state, hypothesis, row):
            seen.append((state.node, state.system))
            best = None
            for i, delta in enumerate(hypothesis.values):
                if row[i] != delta:
                    best = Answer(EquationSystem([(i, int(row[i]))]))
            return best

        assert simulate(t0, tree, (0, 1, 1), last_counterexample) == 1
        assert seen == [
            (0, EquationSystem()),
            (4, EquationSystem([(2, 1)])),
        ]

    def test_off_table_row_may_reach_empty_terminal(self, t0):
        # (0,1,0) is not a base row; the default walk ends in an
        # empty-subtable terminal, whose label is 0 by convention.
        tree = build_tree(t0, 2, "me")
        assert simulate(t0, tree, (0, 1, 0)) == 0

    def test_input_validation(self, t0):
        tree = build_tree(t0, 1, "me")
        with pytest.raises(ConstraintError):
            simulate(t0, tree, (2, 0, 0))  # value outside the table
        with pytest.raises(ConstraintError):
            simulate(t0, tree, (0, 0))  # wrong arity

    @pytest.mark.parametrize("tree_type", [1, 2])  # attribute nodes, hypothesis nodes
    @pytest.mark.parametrize("row", [(0, 5), (5, 0), (7, 7)])
    def test_value_outside_the_table(self, xor, tree_type, row):
        tree = build_tree(xor, tree_type, "me")
        assert tree.kinds[0] == (builder.WORKING_ATTR, builder.WORKING_HYP)[tree_type - 1]
        with pytest.raises(ConstraintError, match="outside the table"):
            simulate(xor, tree, row)

    def test_strategy_errors(self, t0):
        tree = build_tree(t0, 2, "me")

        def two_equations(state, hypothesis, row):
            return Answer(EquationSystem([(0, 1), (1, 1)]))

        def untruthful(state, hypothesis, row):
            return Answer(EquationSystem([(2, 1)]))  # row has f3=0

        with pytest.raises(StrategyError):
            simulate(t0, tree, (1, 1, 0), two_equations)
        with pytest.raises(StrategyError):
            simulate(t0, tree, (1, 1, 0), untruthful)
        # At node 3 the hypothesis is (0,1,0) and the row (1,1,0) agrees on
        # f2, so answering f2 is not a counterexample there.
        def f2_then_f1(state, hypothesis, row):
            if state.node == 0:
                return Answer(EquationSystem([(1, 1)]))
            return Answer(EquationSystem([(1, 1)]))

        with pytest.raises(StrategyError):
            simulate(t0, tree, (1, 1, 0), f2_then_f1)

    def test_first_counterexample_helper(self):
        from hypotree import Hypothesis

        h = Hypothesis((0, 1, 0))
        state = ComputationState(0, EquationSystem())
        answer = first_counterexample(state, h, (1, 1, 1))
        assert answer.system == EquationSystem([(0, 1)])
        with pytest.raises(StrategyError):
            first_counterexample(state, h, (0, 1, 0))


class TestValidate:
    @pytest.mark.parametrize("tree_type", [1, 2, 3, 4, 5])
    def test_clean_trees_validate(self, t0, xor, tree_type):
        for table in (t0, xor):
            tree = build_tree(table, tree_type, "r")
            report = validate(table, tree)
            assert report.ok
            assert report.simulation_ran
            assert report.rows_simulated == table.n_rows

    def test_render_ok(self, t0):
        report = validate(t0, build_tree(t0, 1, "me"))
        assert report.render() == "ok: structural checks and 4-row simulation passed"

    def test_simulation_bound_zero_skips(self, t0):
        report = validate(t0, build_tree(t0, 1, "me"), simulation_bound=0)
        assert report.ok
        assert not report.simulation_ran
        assert report.rows_simulated == 0
        assert "simulation skipped" in report.render()

    def test_detects_tampered_terminal_label(self, t0):
        tree = build_tree(t0, 1, "me")
        tree._label[1] = 9
        report = validate(t0, tree)
        assert not report.ok
        assert any(
            "node 1: terminal labeled 9, but its subtable decides 1" == v
            for v in report.violations
        )
        assert any(v.startswith("row 0:") for v in report.violations)

    def test_detects_tampered_empty_terminal(self, t0):
        tree = build_tree(t0, 2, "me")
        tree._label[5] = 3
        report = validate(t0, tree)
        assert not report.ok
        assert any(
            "node 5: empty-subtable terminal labeled 3, expected 0" == v
            for v in report.violations
        )

    def test_detects_tampered_row_count(self, t0):
        tree = build_tree(t0, 1, "me")
        tree._nrows[2] = 5
        report = validate(t0, tree)
        assert not report.ok
        assert any(
            "node 2: recorded subtable size 5 differs from recomputed 2" == v
            for v in report.violations
        )
        assert report.render() == "\n".join(report.violations)

    def test_rejects_mismatched_table(self, t0, xor):
        with pytest.raises(ConstraintError):
            validate(xor, build_tree(t0, 1, "me"))
