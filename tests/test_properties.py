"""Property-based checks over generated tables: build paths, metrics and rules.

``hypothesis`` draws small tables with gapped, often non-binary alphabets,
single-valued attributes, one to four decision values and, now and then, a
copied column that ties its original in every statistic.  Each table is
built for tree types 1-5 under ``me`` and ``ent``:

- twice, with every level expanded node by node and with every level
  batched, in small chunks; the two trees must serialize identically and
  pass ``validate``;
- once more, to check the tree's metrics and rules against the
  definitional walks of ``oracles``: ``depth``, ``realizable_count`` and
  ``rule_stats``; ``derive_rules`` must list exactly ``oracle_rules``, the
  premise, decision and coverage of each nonempty path, left to right; every
  rule must be sound; and each row's ``rule_stats`` optima must be the
  shortest premise and widest coverage over the rules whose premise the row
  satisfies;
- and once more to ``simulate`` every row under the first and the last
  truthful counterexample: each run must end at one of the row's truthful
  terminals (``oracles.truthful_terminals``) and decide the row's decision.

The draw is derandomized, so every run checks the same tables.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import hypotree.builder as builder
from hypotree import (
    DecisionTable,
    EquationSystem,
    build_tree,
    depth,
    derive_rules,
    first_counterexample,
    realizable_count,
    rule_stats,
    simulate,
    validate,
)

import oracles

NARROW_ONLY, WIDE_ALWAYS = 1 << 30, 1  # widths from which a level is batched


@st.composite
def tables(draw) -> DecisionTable:
    n = draw(st.integers(1, 4))
    alphabet = st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True)
    grid = list(itertools.product(*(sorted(draw(alphabet)) for _ in range(n))))
    picked = draw(
        st.lists(st.integers(0, len(grid) - 1), min_size=1,
                 max_size=min(20, len(grid)), unique=True)
    )
    values = np.array([grid[i] for i in picked])
    decision_values = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    decisions = draw(
        st.lists(st.sampled_from(decision_values), min_size=len(picked), max_size=len(picked))
    )
    names = [f"f{i + 1}" for i in range(n)]
    if draw(st.booleans()):  # a copy of the first column ties with it everywhere
        values = np.hstack([values, values[:, :1]])
        names.append("copy")
    return DecisionTable(names, values, np.array(decisions))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(tables())
def test_narrow_and_batched_levels_build_the_same_tree(table):
    for tree_type, measure in itertools.product((1, 2, 3, 4, 5), ("me", "ent")):
        with mock.patch.object(builder, "_WIDE_FRONTIER", NARROW_ONLY):
            narrow = build_tree(table, tree_type, measure)
        # A wrong query can leave a subtable whole and grow the tree without
        # end; the node-by-node tree's size stops it at once.
        with mock.patch.object(builder, "_WIDE_FRONTIER", WIDE_ALWAYS), \
                mock.patch.object(builder, "_CHUNK_CELLS", 40):
            batched = build_tree(table, tree_type, measure, node_budget=narrow.node_count)
        assert batched.serialize() == narrow.serialize()
        assert batched._hyp_codes == narrow._hyp_codes
        assert np.array_equal(batched.path_row_counts, narrow.path_row_counts)
        assert validate(table, narrow).ok and validate(table, batched).ok


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(tables())
def test_metrics_and_rules_match_the_oracles(table):
    for tree_type, measure in itertools.product((1, 2, 3, 4, 5), ("me", "ent")):
        tree = build_tree(table, tree_type, measure)
        assert depth(tree) == oracles.oracle_depth(tree)
        assert realizable_count(table, tree) == oracles.oracle_realizable(table, tree)
        stats = rule_stats(table, tree)
        lengths, coverages = oracles.oracle_rule_stats(table, tree)
        assert np.array_equal(stats.row_lengths, lengths)
        assert np.array_equal(stats.row_coverages, coverages)

        rules = derive_rules(table, tree)
        assert np.array_equal(rules.row_lengths, lengths)
        assert np.array_equal(rules.row_coverages, coverages)
        assert [
            (rule.premise.items(), rule.decision, rule.coverage) for rule in rules.rules
        ] == oracles.oracle_rules(table, tree)
        shortest = np.full(table.n_rows, np.iinfo(np.int64).max)
        widest = np.zeros(table.n_rows, dtype=np.int64)
        for rule in rules.rules:
            rows = table.subtable(rule.premise).selected
            assert (table.decisions[rows] == rule.decision).all()
            shortest[rows] = np.minimum(shortest[rows], rule.length)
            widest[rows] = np.maximum(widest[rows], rule.coverage)
        assert np.array_equal(shortest, stats.row_lengths)
        assert np.array_equal(widest, stats.row_coverages)


def last_counterexample(state, hypothesis, row):
    """The truthful counterexample on the last attribute where the row differs."""
    i = max(i for i, v in enumerate(hypothesis.values) if row[i] != v)
    return EquationSystem([(i, row[i])])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(tables())
def test_simulation_ends_at_a_truthful_terminal_deciding_the_row(table):
    for tree_type, measure in itertools.product((1, 2, 3, 4, 5), ("me", "ent")):
        tree = build_tree(table, tree_type, measure)
        for row, decision in zip(table.values.tolist(), table.decisions.tolist()):
            labels = {
                tree.decision(node) for node in oracles.truthful_terminals(table, tree, row)
            }
            for strategy in (first_counterexample, last_counterexample):
                got = simulate(table, tree, row, strategy)
                assert got in labels and got == decision
