"""Decision rules read off complete tree paths.

A complete path runs from the root to a terminal and accepts at least one
base-table row.  Its premise is the union of the equation systems on its
edges, with equations of a final hypothesis-holds edge that literally repeat
earlier edges dropped before the union.  The rule concludes the terminal's
decision; its coverage is the number of rows accepted.

Per-row quality takes the best over all paths accepting the row: minimum
premise length and maximum coverage.  Table-level figures average those
per-row optima over all rows.  Both read the rows of every path from one
level-batched routing pass (``DecisionTree.route_rows``).  ``derive_rules``
materializes every rule, walking only the nodes some row reaches to build
the premises; ``rule_stats`` keeps only the per-row optima, a few array
reductions over the terminal occurrences, which is what the experiment
harness uses on hypothesis-type trees whose path counts run into the
millions.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .table import ConstraintError, DecisionTable, EquationSystem
from .builder import WORKING_HYP, DecisionTree
from .metrics import _check_pair

__all__ = [
    "CompletePath",
    "DecisionRule",
    "RuleSet",
    "RuleStats",
    "complete_paths",
    "derive_rules",
    "reduce_system",
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


@dataclass(frozen=True)
class CompletePath:
    """Edge systems from root to terminal, with the accepted rows."""

    edges: tuple[EquationSystem, ...]
    terminal: int
    decision: int
    rows: np.ndarray


def complete_paths(table: DecisionTable, tree: DecisionTree) -> Iterator[CompletePath]:
    """Root-to-terminal paths accepting at least one row, left to right.

    The rows come from one routing pass; the walk only orders the reached
    terminals and builds the edge systems, and never enters a node no row
    reaches.
    """
    _check_pair(table, tree)
    routing = tree.route_rows()
    reached = routing.node_rows.tolist()
    # Sorted by (terminal, row), the rows of each terminal form one slice.
    keys = routing.terminals * table.n_rows + routing.rows
    keys.sort()
    rows = keys % table.n_rows
    starts = keys.searchsorted(np.arange(len(reached)) * table.n_rows).tolist()
    stack: list[tuple[int, tuple[EquationSystem, ...]]] = [(0, ())]
    while stack:
        node, edges = stack.pop()
        if tree.is_terminal(node):
            start = starts[node]
            yield CompletePath(
                edges, node, tree.decision(node), rows[start : start + reached[node]]
            )
            continue
        children = []
        for child, attr, payload in tree.child_edges(node):
            if not reached[child]:
                continue
            if attr is None:
                system = EquationSystem(enumerate(payload))
            else:
                system = EquationSystem([(attr, payload)])
            children.append((child, edges + (system,)))
        stack.extend(reversed(children))


def reduce_system(path: CompletePath) -> EquationSystem:
    """Premise of a path: union of its edge systems, final hypothesis reduced.

    Single-equation edges are kept verbatim.  When the final edge carries a
    multi-equation hypothesis system, equations already present in the union
    of the earlier edges are dropped from it; only literal duplicates are
    removable, so the result equals the plain union.
    """
    if not path.edges:
        return EquationSystem()
    earlier = EquationSystem()
    for system in path.edges[:-1]:
        earlier = earlier.union(system)
    last = path.edges[-1]
    if len(last) > 1:
        last = EquationSystem(
            pair for pair in last.items() if pair not in earlier
        )
    return earlier.union(last)


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


def _finish_stats(
    table: DecisionTable, lengths: np.ndarray, coverages: np.ndarray
) -> None:
    if np.count_nonzero(coverages) < table.n_rows:
        raise ConstraintError("some rows are not covered by any complete path")


def derive_rules(table: DecisionTable, tree: DecisionTree) -> RuleSet:
    """One rule per complete path, with per-row optima over covering rules."""
    rules = []
    path_rows = []
    for path in complete_paths(table, tree):
        rules.append(DecisionRule(reduce_system(path), path.decision, len(path.rows)))
        path_rows.append(path.rows)
    lengths = np.full(table.n_rows, _NO_RULE, dtype=np.int64)
    coverages = np.zeros(table.n_rows, dtype=np.int64)
    if rules:
        covered = np.array([rule.coverage for rule in rules])
        rows = np.concatenate(path_rows)
        np.minimum.at(lengths, rows, np.repeat([rule.length for rule in rules], covered))
        np.maximum.at(coverages, rows, covered.repeat(covered))
    _finish_stats(table, lengths, coverages)
    return RuleSet(row_lengths=lengths, row_coverages=coverages, rules=rules)


def rule_stats(table: DecisionTable, tree: DecisionTree) -> RuleStats:
    """Per-row rule optima without materializing the rules.

    A path's premise length is the number of its single-equation edges (all
    on distinct attributes once empty paths are pruned), or the full
    attribute count when the path ends by confirming a hypothesis, whose
    system mentions every attribute.  Both, and each terminal's coverage,
    are read off one routing pass.
    """
    _check_pair(table, tree)
    routing = tree.route_rows()
    length = routing.depths
    if tree.hypotheses:
        confirms = np.zeros(tree.node_count, dtype=bool)
        confirms[tree.first_children[tree.kinds == WORKING_HYP]] = True
        length = np.where(confirms.take(routing.terminals), table.n, length)
    lengths = np.full(table.n_rows, _NO_RULE, dtype=np.int64)
    coverages = np.zeros(table.n_rows, dtype=np.int64)
    np.minimum.at(lengths, routing.rows, length)
    np.maximum.at(coverages, routing.rows, routing.node_rows.take(routing.terminals))
    _finish_stats(table, lengths, coverages)
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
