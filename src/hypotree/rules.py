"""Decision rules read off complete tree paths.

A complete path runs from the root to a terminal and accepts at least one
base-table row.  Its premise is the union of the equation systems on its
edges; the rule concludes the terminal's decision, and its coverage is the
number of rows accepted.

Per-row quality takes the best over all paths accepting the row: minimum
premise length and maximum coverage.  Table-level figures average those
per-row optima over all rows.  Both functions read them off the tree's
level-batched routing pass (``DecisionTree.route_rows``) with a few array
reductions over its terminal occurrences, and a path's edge count off
``DecisionTree.level_starts``.  That pass runs once per tree and its
read-only result is kept, so ``rule_stats``, ``derive_rules`` and
``validate`` on one tree share it; it depends only on the tree's shape, its
queries and the base table's codes.  ``rule_stats`` stops there, which is
what the experiment harness uses on hypothesis-type trees whose path counts
run into the millions; ``derive_rules`` also materializes every rule,
walking only the nodes some row reaches to build the premises.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .table import ConstraintError, DecisionTable, EquationSystem
from .builder import WORKING_HYP, DecisionTree, Routing
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
    """
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


def derive_rules(table: DecisionTable, tree: DecisionTree) -> RuleSet:
    """One rule per complete path, left to right, with per-row optima."""
    _check_pair(table, tree)
    routing = tree.route_rows()
    lengths, coverages = _row_optima(table, tree, routing)
    reached = routing.node_rows.tolist()
    rules = []
    stack = [(0, EquationSystem())]
    while stack:
        node, premise = stack.pop()
        if tree.is_terminal(node):
            rules.append(DecisionRule(premise, tree.decision(node), reached[node]))
            continue
        children = [
            (child, premise.union(system))
            for child, system in zip(tree.children(node), tree.edge_systems(node))
            if reached[child]
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
