"""Rule derivation, per-row rule optima, and rule rendering."""

import random

import numpy as np
import pytest

from hypotree import (
    ConstraintError,
    DecisionTable,
    EquationSystem,
    build_tree,
    derive_rules,
    render_rule,
    rule_stats,
    rules_to_csv,
)
from hypotree.builder import Routing
from hypotree.rules import _row_optima

import oracles
from test_queries import random_table


class TestDeriveRules:
    def test_attribute_tree_rules(self, t0):
        rs = derive_rules(t0, build_tree(t0, 1, "me"))
        assert [(r.length, r.decision, r.coverage) for r in rs.rules] == [
            (1, 1, 2),
            (1, 2, 2),
        ]
        assert rs.rules[0].premise == EquationSystem([(0, 0)])
        assert rs.average_length == 1.0
        assert rs.average_coverage == 2.0

    def test_hypothesis_tree_rules(self, t0):
        tree = build_tree(t0, 2, "me")
        rs = derive_rules(t0, tree)
        got = [
            (render_rule(r, t0.attribute_names)) for r in rs.rules
        ]
        # 13 nodes but only 6 rules, left to right: empty branches are dropped.
        assert tree.node_count == 13
        assert got == [
            "(f1=0) ∧ (f2=0) ∧ (f3=0) → 1 [len=3, cov=1]",
            "(f1=1) → 2 [len=1, cov=2]",
            "(f1=1) ∧ (f2=1) → 2 [len=2, cov=1]",
            "(f2=1) ∧ (f3=1) → 1 [len=2, cov=1]",
            "(f1=1) ∧ (f3=1) → 2 [len=2, cov=1]",
            "(f2=1) ∧ (f3=1) → 1 [len=2, cov=1]",
        ]
        assert list(rs.row_lengths) == [3, 2, 1, 1]
        assert list(rs.row_coverages) == [1, 1, 2, 2]
        assert rs.average_length == pytest.approx(1.75)
        assert rs.average_coverage == pytest.approx(1.5)

    def test_confirmed_hypothesis_repeating_an_edge(self, t0):
        # Node 3 is reached by the counterexample f2=1 and asks
        # H[f1=0,f2=1,f3=1]; confirming it repeats f2=1, counted once.
        rs = derive_rules(t0, build_tree(t0, 4, "me"))
        got = [render_rule(r, t0.attribute_names) for r in rs.rules]
        assert got == [
            "(f1=0) ∧ (f2=0) ∧ (f3=0) → 1 [len=3, cov=1]",
            "(f1=1) → 2 [len=1, cov=2]",
            "(f1=0) ∧ (f2=1) ∧ (f3=1) → 1 [len=3, cov=1]",
            "(f1=1) ∧ (f2=1) → 2 [len=2, cov=1]",
            "(f2=1) ∧ (f3=0) → 2 [len=2, cov=1]",
            "(f1=0) ∧ (f2=1) ∧ (f3=1) → 1 [len=3, cov=1]",
            "(f1=1) ∧ (f3=1) → 2 [len=2, cov=1]",
            "(f2=0) ∧ (f3=1) → 2 [len=2, cov=1]",
        ]
        assert list(rs.row_lengths) == [3, 3, 1, 1]
        assert list(rs.row_coverages) == [1, 1, 2, 2]

    def test_true_premise_on_degenerate_table(self):
        t = DecisionTable(("a",), np.array([(0,), (1,)]), np.array([4, 4]))
        rs = derive_rules(t, build_tree(t, 3, "gini"))
        assert len(rs.rules) == 1
        assert render_rule(rs.rules[0], ("a",)) == "true → 4 [len=0, cov=2]"
        assert list(rs.row_lengths) == [0, 0]
        assert list(rs.row_coverages) == [2, 2]

    def test_uncovered_rows_rejected(self, t0):
        tree = build_tree(t0, 1, "me")
        routing = tree.route_rows()
        keep = routing.rows != 1
        dropped = Routing(routing.node_rows, routing.rows[keep], routing.terminals[keep])
        with pytest.raises(ConstraintError, match="not covered"):
            _row_optima(t0, tree, dropped)


class TestSoundnessAndStats:
    @pytest.mark.parametrize("tree_type", [1, 2, 3, 4, 5])
    def test_rules_sound_and_coverage_exact(self, tree_type):
        rng = random.Random(4321)
        for _ in range(15):
            t = random_table(rng)
            tree = build_tree(t, tree_type, "ent")
            rs = derive_rules(t, tree)
            for rule in rs.rules:
                matched = t.subtable(rule.premise)
                assert matched.n_rows == rule.coverage >= 1
                assert all(
                    int(d) == rule.decision
                    for d in t.decisions[matched.selected]
                )
                assert 0 <= rule.length <= t.n

    @pytest.mark.parametrize("tree_type", [1, 2, 3, 4, 5])
    def test_row_optima_match_oracle(self, tree_type):
        rng = random.Random(2468)
        for _ in range(15):
            t = random_table(rng)
            tree = build_tree(t, tree_type, "gini")
            rs = derive_rules(t, tree)
            lengths, coverages = oracles.oracle_rule_stats(t, tree)
            assert np.array_equal(rs.row_lengths, lengths)
            assert np.array_equal(rs.row_coverages, coverages)

    @pytest.mark.parametrize("tree_type", [1, 2, 3, 4, 5])
    def test_rule_stats_matches_derive_rules(self, tree_type):
        """Each row's optima are those of the materialized rules it satisfies."""
        rng = random.Random(987)
        for _ in range(15):
            t = random_table(rng)
            tree = build_tree(t, tree_type, "me")
            full = derive_rules(t, tree)
            lengths = np.full(t.n_rows, t.n + 1)
            coverages = np.zeros(t.n_rows, dtype=np.int64)
            for rule in full.rules:
                rows = t.subtable(rule.premise).selected
                lengths[rows] = np.minimum(lengths[rows], rule.length)
                coverages[rows] = np.maximum(coverages[rows], rule.coverage)
            lean = rule_stats(t, tree)
            for stats in (full, lean):
                assert np.array_equal(stats.row_lengths, lengths)
                assert np.array_equal(stats.row_coverages, coverages)
            assert lean.row_coverages.min() >= 1
            assert lean.row_lengths.max() <= t.n

    def test_stats_match_on_fixtures(self, t0, xor):
        for table in (t0, xor):
            for k in (1, 2, 3, 4, 5):
                tree = build_tree(table, k, "rme")
                full = derive_rules(table, tree)
                lean = rule_stats(table, tree)
                lengths, coverages = oracles.oracle_rule_stats(table, tree)
                assert np.array_equal(full.row_lengths, lengths)
                assert np.array_equal(full.row_coverages, coverages)
                assert np.array_equal(lean.row_lengths, lengths)
                assert np.array_equal(lean.row_coverages, coverages)


class TestRendering:
    def test_csv_golden(self, t0):
        rs = derive_rules(t0, build_tree(t0, 1, "me"))
        assert rules_to_csv(rs.rules, t0.attribute_names) == (
            "premise,decision,length,coverage\n"
            "f1=0,1,1,2\n"
            "f1=1,2,1,2\n"
        )

    def test_csv_true_premise(self):
        t = DecisionTable(("a",), np.array([(0,)]), np.array([9]))
        rs = derive_rules(t, build_tree(t, 1, "me"))
        assert rules_to_csv(rs.rules, ("a",)) == (
            "premise,decision,length,coverage\ntrue,9,0,1\n"
        )

    def test_multi_equation_csv_joins_with_conjunction(self, t0):
        rs = derive_rules(t0, build_tree(t0, 2, "me"))
        text = rules_to_csv(rs.rules, t0.attribute_names)
        assert "f1=0 ∧ f2=0 ∧ f3=0,1,3,1" in text
