"""Decision rules read off complete tree paths.

A complete path runs from the root to a terminal and accepts at least one
base-table row.  Its premise is the union of the equation systems on its
edges; the rule concludes the terminal's decision, and its coverage is the
number of rows accepted.

Per-row quality takes the best over all paths accepting the row: minimum
premise length and maximum coverage.  Table-level figures average those
per-row optima over all rows.  Both functions read them off the tree's
routing pass (``DecisionTree.route_rows``) and a path's edge count off
the tree's level starts.  The table-size test that picks the form of the
routing pass (``DecisionTree._in_python``) picks the form of this reading
too: below ``builder._WIDE_ROUTING`` rows one plain-Python loop over the
terminal occurrences, from there up a few array reductions over them,
with the same arrays either way.  That pass runs once per tree and its
read-only result is kept, so ``rule_stats``, ``derive_rules`` and
``validate`` on one tree share it; it depends only on the tree's shape, its
queries and the base table's codes.  ``rule_stats`` stops there, which is
what the experiment harness uses on hypothesis-type trees whose path counts
run into the millions; ``derive_rules`` also materializes every rule,
walking only the nodes some row reaches with the attributes on each path
and making each premise once, at its terminal, from one row routed there.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .table import ConstraintError, DecisionTable, EquationSystem
from .builder import TERMINAL, WORKING_ATTR, WORKING_HYP, DecisionTree, Routing
from .metrics import _check_pair

__all__ = [
    "DecisionRule",
    "RuleSet",
    "RuleStats",
    "derive_rules",
    "render_rule",
    "rule_stats",
    "rules_to_csv",
]


_NO_RULE = np.iinfo(np.int64).max


@dataclass(frozen=True)
class DecisionRule:
    """Premise equations, concluded decision, and rows covered in the table."""

    premise: EquationSystem
    decision: int
    coverage: int

    @property
    def length(self) -> int:
        return len(self.premise)


@dataclass
class RuleStats:
    """Per-row optima over all rules covering each row, plus their means."""

    row_lengths: np.ndarray
    row_coverages: np.ndarray

    @property
    def average_length(self) -> float:
        return float(self.row_lengths.mean())

    @property
    def average_coverage(self) -> float:
        return float(self.row_coverages.mean())


@dataclass
class RuleSet(RuleStats):
    rules: list[DecisionRule]


def _row_optima(
    table: DecisionTable, tree: DecisionTree, routing: Routing
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row minimum premise length and maximum coverage over complete paths.

    A path's premise length is the number of its single-equation edges (all
    on distinct attributes once empty paths are pruned), or the full
    attribute count when the path ends by confirming a hypothesis, whose
    system mentions every attribute.  A terminal's coverage is the number of
    rows reaching it.

    For a tree whose routing passes run in plain Python
    (``DecisionTree._in_python``) this is one loop over the terminal
    occurrences, with the same result and the same error.
    """
    if tree._in_python():
        return _row_optima_in_python(table, tree, routing)
    # A path's edge count is its terminal's level: how many levels below the
    # root start at or before it.
    length = tree.level_starts[1:].searchsorted(routing.terminals, "right")
    if len(tree._hyp_codes):  # some node asks a hypothesis
        confirms = np.zeros(tree.node_count, dtype=bool)
        confirms[tree.first_children[tree.kinds == WORKING_HYP]] = True
        length = np.where(confirms.take(routing.terminals), table.n, length)
    lengths = np.full(table.n_rows, _NO_RULE, dtype=np.int64)
    coverages = np.zeros(table.n_rows, dtype=np.int64)
    np.minimum.at(lengths, routing.rows, length)
    np.maximum.at(coverages, routing.rows, routing.node_rows.take(routing.terminals))
    if np.count_nonzero(coverages) < table.n_rows:
        raise ConstraintError("some rows are not covered by any complete path")
    return lengths, coverages


def _row_optima_in_python(
    table: DecisionTable, tree: DecisionTree, routing: Routing
) -> tuple[np.ndarray, np.ndarray]:
    """``_row_optima`` over the arena's ``array`` columns and the routing's lists."""
    n, starts = table.n, tree._starts
    holds = {f for k, f in zip(tree._kind, tree._first) if k == WORKING_HYP}
    node_rows = routing.node_rows.tolist()
    lengths = [_NO_RULE] * table.n_rows
    coverages = [0] * table.n_rows
    for r, v in zip(routing.rows.tolist(), routing.terminals.tolist()):
        # A path's edge count is its terminal's level, as in the NumPy form.
        length = n if v in holds else bisect_right(starts, v, 1) - 1
        if length < lengths[r]:
            lengths[r] = length
        if node_rows[v] > coverages[r]:
            coverages[r] = node_rows[v]
    if 0 in coverages:
        raise ConstraintError("some rows are not covered by any complete path")
    return np.array(lengths, dtype=np.int64), np.array(coverages, dtype=np.int64)


def derive_rules(table: DecisionTable, tree: DecisionTree) -> RuleSet:
    """One rule per complete path, left to right, with per-row optima.

    The walk follows reached children only, carrying each path's attributes:
    an attribute node adds its own, a holds child every attribute, and
    counterexample child ``j`` the attribute of the ``j``-th counterexample,
    whatever the hypothesis.  Every answer on a path is truthful for each row
    routed along it, so the premise's values are read off any such row.
    """
    _check_pair(table, tree)
    routing = tree.route_rows()
    lengths, coverages = _row_optima(table, tree, routing)
    reached = routing.node_rows.tolist()
    routed = np.zeros(tree.node_count, dtype=np.int64)
    routed[routing.terminals] = routing.rows
    routed = routed.tolist()
    values = table.values.tolist()
    every = tuple(range(table.n))
    equations = {}  # a routed row's equations, shared by every premise read off it
    kinds, labels, first = tree._kind, tree._label, tree._first
    sizes = [len(vs) for vs in table.value_sets]
    counterexamples = tuple(i for i, vs in enumerate(table.value_sets) for _ in vs[1:])
    rules = []
    stack = [(0, ())]
    while stack:
        node, path = stack.pop()
        kind = kinds[node]
        if kind == TERMINAL:
            row = routed[node]
            pairs = equations.get(row)
            if pairs is None:
                pairs = equations[row] = tuple(zip(every, values[row]))
            # One reached path's pairs are plain ints and never conflict.
            premise = EquationSystem._derived(map(pairs.__getitem__, path))
            rules.append(DecisionRule(premise, labels[node], reached[node]))
            continue
        child = first[node]
        if kind == WORKING_ATTR:
            i = labels[node]
            step = path + (i,)
            children = [(c, step) for c in range(child, child + sizes[i]) if reached[c]]
        else:
            children = [(child, every)] if reached[child] else []
            children += [
                (c, path + (i,)) for c, i in enumerate(counterexamples, child + 1) if reached[c]
            ]
        stack.extend(reversed(children))
    return RuleSet(row_lengths=lengths, row_coverages=coverages, rules=rules)


def rule_stats(table: DecisionTable, tree: DecisionTree) -> RuleStats:
    """Per-row rule optima without materializing the rules."""
    _check_pair(table, tree)
    lengths, coverages = _row_optima(table, tree, tree.route_rows())
    return RuleStats(row_lengths=lengths, row_coverages=coverages)


def render_rule(rule: DecisionRule, names: Sequence[str]) -> str:
    """Human-readable form, e.g. ``(f2=1) ∧ (f7=0) → 3 [len=2, cov=41]``."""
    if len(rule.premise):
        premise = " ∧ ".join(f"({names[a]}={v})" for a, v in rule.premise)
    else:
        premise = "true"
    return f"{premise} → {rule.decision} [len={rule.length}, cov={rule.coverage}]"


def rules_to_csv(rules: Sequence[DecisionRule], names: Sequence[str]) -> str:
    """CSV with columns premise, decision, length, coverage."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["premise", "decision", "length", "coverage"])
    for rule in rules:
        if len(rule.premise):
            premise = " ∧ ".join(f"{names[a]}={v}" for a, v in rule.premise)
        else:
            premise = "true"
        writer.writerow([premise, rule.decision, rule.length, rule.coverage])
    return out.getvalue()
