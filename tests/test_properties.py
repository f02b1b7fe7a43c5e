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

A further draw of smaller tables, with up to five decision values, builds
types 1-5 under all five measures and checks every working node's query
against the oracles' exhaustive search on its subtable, ties included, and
``simulate`` under a seeded random truthful counterexample.  Three fixed
tables add ties that a random draw seldom makes.

The draw is derandomized, so every run checks the same tables.
"""

import itertools
import random
from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import hypotree.builder as builder
from hypotree import (
    AttributeQuery,
    DecisionTable,
    EquationSystem,
    Hypothesis,
    HypothesisQuery,
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
def tables(draw, max_attributes=4, max_values=4, max_rows=20, max_decisions=4) -> DecisionTable:
    n = draw(st.integers(1, max_attributes))
    alphabet = st.lists(st.integers(0, 9), min_size=1, max_size=max_values, unique=True)
    grid = list(itertools.product(*(sorted(draw(alphabet)) for _ in range(n))))
    picked = draw(
        st.lists(st.integers(0, len(grid) - 1), min_size=1,
                 max_size=min(max_rows, len(grid)), unique=True)
    )
    values = np.array([grid[i] for i in picked])
    decision_values = draw(
        st.lists(st.integers(0, 9), min_size=1, max_size=max_decisions, unique=True)
    )
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


MEASURES = ("me", "rme", "ent", "gini", "r")

# Equal worst branches of entropy 2.0 bits from three distinct count rows:
# attribute f1 splits off (4, 1, 1, 1, 1), f2 (2, 2, 2, 2) and f3 (1, 1, 1, 1).
DYADIC_TIE = DecisionTable(
    ("f1", "f2", "f3"),
    [(a, b, c) for a in (0, 1) for b in (0, 1) for c in range(4)],
    [0, 0, 1, 2, 4, 0, 0, 3, 1, 2, 3, 3, 3, 3, 3, 3],
)
# Every least-entropy attribute and proper row has worst branch counts
# {1, 1, 2, 2}, in different decision orders.
SHARED_TIE = DecisionTable(
    ("a", "b", "c", "d"),
    [(3, 0, 3, 5), (3, 1, 1, 0), (1, 0, 1, 0), (3, 1, 5, 0), (1, 1, 5, 4), (3, 0, 1, 5),
     (1, 1, 5, 0), (3, 1, 3, 0), (1, 0, 3, 5), (3, 0, 5, 5), (1, 0, 5, 0)],
    [6, 3, 2, 7, 2, 3, 3, 7, 1, 1, 6],
)

# Least-entropy proper rows tie with worst branch counts that are one
# multiset in different decision orders; summed in decision order, their
# entropies round apart and a later row would win.
ORDER_TIE = DecisionTable(
    ("f1", "f2", "f3"),
    [(7, 1, 7), (1, 1, 4), (0, 2, 4), (0, 2, 7), (1, 2, 4), (0, 1, 7), (1, 2, 7), (7, 2, 4),
     (7, 1, 4), (0, 1, 4), (7, 2, 7), (1, 1, 7)],
    [7, 7, 7, 4, 4, 0, 7, 7, 4, 0, 4, 4],
)


def working_subtables(table, tree):
    """``(node, rows)`` for every working node, its rows found along ``oracles.edges``."""
    values = table.values.tolist()
    stack = [(0, list(range(table.n_rows)))]
    while stack:
        node, rows = stack.pop()
        if not rows or tree.is_terminal(node):
            continue
        yield node, rows
        for child, attr, value in oracles.edges(tree, node):
            if attr is None:
                stack.append((child, [r for r in rows if tuple(values[r]) == value]))
            else:
                stack.append((child, [r for r in rows if values[r][attr] == value]))


def scored(table, parts, name):
    """A query's impurity from its answers' row sets, and its worst answers' counts.

    The counts are the sorted decision counts of each answer within 1e-12 of
    the impurity, and () for a degenerate answer, whose value is 0 whatever
    its counts.
    """
    decisions = table.decisions.tolist()
    answers = []
    for part in parts:
        labels = [decisions[r] for r in part]
        counts = sorted(Counter(labels).values())
        answers.append((oracles.measure_value(name, labels),
                        tuple(counts) if len(counts) > 1 else ()))
    top = max(value for value, _ in answers)
    return top, {counts for value, counts in answers if value >= top - 1e-12}


def candidates(table, rows, tree_type, name):
    """``(query, impurity, worst counts)`` of every query the type may ask, in tie order.

    Attributes by index, then proper rows by position (types 4 and 5), or
    every admissible hypothesis (types 2 and 3), each from the oracles.
    """
    values = table.values.tolist()
    out = []
    if tree_type in (1, 3, 5):
        for i in range(table.n):
            if len({values[r][i] for r in rows}) > 1:
                parts = oracles.attribute_answer_rows(table, rows, i)
                out.append((AttributeQuery(i), *scored(table, parts, name)))
    if tree_type in (4, 5):
        pinned = oracles.admissible_hypotheses(table, rows)
        hypotheses = [tuple(row) for row in values if tuple(row) in pinned]
    elif tree_type in (2, 3):
        hypotheses = oracles.admissible_hypotheses(table, rows)
    else:
        hypotheses = []
    for h in hypotheses:
        parts = oracles.hypothesis_answer_rows(table, rows, h)
        out.append((HypothesisQuery(Hypothesis(h)), *scored(table, parts, name)))
    return out


def random_counterexample(rng):
    """A strategy answering with a truthful counterexample drawn by ``rng``."""

    def strategy(state, hypothesis, row):
        i = rng.choice([i for i, v in enumerate(hypothesis.values) if row[i] != v])
        return EquationSystem([(i, row[i])])

    return strategy


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(tables(max_attributes=3, max_values=3, max_rows=12, max_decisions=5))
@example(DYADIC_TIE)
@example(SHARED_TIE)
@example(ORDER_TIE)
def test_every_node_asks_the_greedy_query(table):
    """Each working node's query has the least impurity on its subtable.

    Where the tied least-impurity queries' worst answers have one count
    multiset, or the measure is not ``ent`` (the others are ratios of
    integers, rounded once, so equal values are equal doubles), the node
    asks the first of them by the tie rules: the lowest attribute, then the
    earliest proper row.  Every row's simulation under a random truthful
    counterexample ends at one of its truthful terminals.
    """
    rng = random.Random(0)
    for tree_type, name in itertools.product((1, 2, 3, 4, 5), MEASURES):
        tree = build_tree(table, tree_type, name)
        for node, rows in working_subtables(table, tree):
            scores = candidates(table, rows, tree_type, name)
            least = min(imp for _, imp, _ in scores)
            query = tree.query(node)
            [(_, imp, _)] = [score for score in scores if score[0] == query]
            assert abs(imp - least) <= 1e-12
            tied = [score for score in scores if score[1] <= least + 1e-12]
            if name != "ent" or len(set().union(*(worst for _, _, worst in tied))) == 1:
                first = tied[0][0]
                if isinstance(first, AttributeQuery) or tree_type in (4, 5):
                    assert query == first
        strategy = random_counterexample(rng)
        for row, decision in zip(table.values.tolist(), table.decisions.tolist()):
            reached = oracles.truthful_terminals(table, tree, row)
            got = simulate(table, tree, row, strategy)
            assert got == decision
            assert got in {tree.decision(node) for node in reached}
