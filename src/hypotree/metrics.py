"""Tree metrics: depth, realizable node count, simulation, validation.

Depth counts the queries (Working nodes) on a longest root-to-terminal path:
the levels below the root in ``DecisionTree.level_starts``.  A node is
realizable when some base-table row together with some truthful choice of
counterexamples reaches it, which is exactly when the subtable of rows
matching its path equations is nonempty; the builder records those row
counts, so counting is a single pass.

Simulation replays one row through the tree.  At a hypothesis node whose
hypothesis the row falsifies, a strategy picks which truthful counterexample
to answer.  Validation takes every choice at once: one level-batched routing
pass (``DecisionTree.route_rows``) sends each row down all of its truthful
paths, and the same (row, node) occurrences serve as the structural check
(recomputed subtable sizes, terminal labels) and as the exhaustive truthful
simulation (the decision at every terminal a row reaches).  The routing is
computed once per tree and kept, read-only, so ``validate`` after
``rule_stats`` or ``derive_rules`` reuses it.  It depends only on the tree's
shape, its queries and the base table's codes; the terminal labels and
recorded subtable sizes it is checked against are read afresh on each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .table import ConstraintError, DecisionTable, EquationSystem
from .builder import TERMINAL, DecisionTree
from .queries import Answer, Hypothesis

__all__ = [
    "ComputationState",
    "StrategyError",
    "ValidationReport",
    "depth",
    "first_counterexample",
    "realizable_count",
    "simulate",
    "validate",
]


class StrategyError(ValueError):
    """A strategy returned an answer that is not a truthful counterexample."""


@dataclass(frozen=True)
class ComputationState:
    """Where a simulated computation stands: current node and accepted equations."""

    node: int
    system: EquationSystem


Strategy = Callable[[ComputationState, Hypothesis, Sequence[int]], Answer]


def _check_pair(table: DecisionTable, tree: DecisionTree) -> None:
    if tree.base is table:
        return
    if not (
        np.array_equal(tree.base.values, table.values)
        and np.array_equal(tree.base.decisions, table.decisions)
    ):
        raise ConstraintError("tree was built for a different table")


def depth(tree: DecisionTree) -> int:
    """Maximum number of queries on any root-to-terminal path.

    Every level above the deepest holds a working node, and the deepest
    holds only terminals, so this is the number of levels below the root:
    ``level_starts`` has one entry per level plus the node count.
    """
    return len(tree.level_starts) - 2


def realizable_count(table: DecisionTable, tree: DecisionTree) -> int:
    """Number of nodes whose path subtable is nonempty."""
    _check_pair(table, tree)
    return int(np.count_nonzero(tree.path_row_counts > 0))


def first_counterexample(
    state: ComputationState, hypothesis: Hypothesis, row: Sequence[int]
) -> Answer:
    """Default strategy: the first truthful counterexample in answer order."""
    for i, delta in enumerate(hypothesis.values):
        if row[i] != delta:
            return Answer(EquationSystem([(i, int(row[i]))]))
    raise StrategyError("row satisfies the hypothesis; no counterexample exists")


def simulate(
    table: DecisionTable,
    tree: DecisionTree,
    row: Sequence[int],
    strategy: Strategy | None = None,
) -> int:
    """Decision the tree computes for ``row`` under the given strategy."""
    _check_pair(table, tree)
    values = tuple(int(v) for v in row)
    if len(values) != table.n:
        raise ConstraintError(f"row has {len(values)} values for {table.n} attributes")
    if strategy is None:
        strategy = first_counterexample
    node = 0
    system = EquationSystem()
    while not tree.is_terminal(node):
        edges = tree.child_edges(node)
        if edges[0][1] is not None:  # attribute query
            attr = edges[0][1]
            matches = [c for c, _, v in edges if v == values[attr]]
            if not matches:
                raise ConstraintError(
                    f"value {values[attr]} of attribute {attr} is outside the table"
                )
            node = matches[0]
            system = system.union(EquationSystem([(attr, values[attr])]))
            continue
        hypothesis = Hypothesis(edges[0][2])
        if hypothesis.values == values:
            node = edges[0][0]
            system = system.union(hypothesis.system())
            continue
        answer = strategy(ComputationState(node, system), hypothesis, values)
        items = answer.system.items()
        if len(items) != 1:
            raise StrategyError("counterexample answers carry exactly one equation")
        attr, value = items[0]
        if values[attr] != value or hypothesis.values[attr] == value:
            raise StrategyError(
                f"answer {attr}={value} is not a truthful counterexample"
            )
        node = next((c for c, i, v in edges[1:] if i == attr and v == value), None)
        if node is None:
            raise ConstraintError(f"value {value} of attribute {attr} is outside the table")
        system = system.union(answer.system)
    return tree.decision(node)


@dataclass
class ValidationReport:
    """Outcome of validate(): one violation per line, plus the rows simulated."""

    violations: list[str] = field(default_factory=list)
    rows_simulated: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if not self.ok:
            return "\n".join(self.violations)
        return f"ok: structural checks and {self.rows_simulated}-row simulation passed"


def validate(table: DecisionTable, tree: DecisionTree) -> ValidationReport:
    """Check a tree against the subtables and computations of its table rows.

    One routing pass (``DecisionTree.route_rows``) sends every row along all
    of its truthful paths; it is both the structural check and the
    exhaustive truthful simulation.  Structural checks: every node's
    recorded subtable size must equal the number of rows reaching it, a
    terminal no row reaches must carry 0, and a reached terminal must carry
    its rows' single shared decision.  Simulation: every terminal a row
    reaches must decide the row's decision.  Structural violations come
    first, by node; simulation violations follow, by row and then terminal.
    """
    _check_pair(table, tree)
    report = ValidationReport(rows_simulated=table.n_rows)
    routing = tree.route_rows()
    reached = routing.node_rows
    recorded = tree.path_row_counts
    labels = tree.labels
    decisions = table.decisions
    wrong = labels.take(routing.terminals) != decisions.take(routing.rows)
    any_wrong = bool(np.count_nonzero(wrong))

    structural: dict[int, list[str]] = {}
    for node in (reached != recorded).nonzero()[0].tolist():
        structural.setdefault(node, []).append(
            f"node {node}: recorded subtable size {recorded[node]} "
            f"differs from recomputed {reached[node]}"
        )
    empty = (tree.kinds == TERMINAL) & (reached == 0) & (labels != 0)
    for node in empty.nonzero()[0].tolist():
        structural.setdefault(node, []).append(
            f"node {node}: empty-subtable terminal labeled {labels[node]}, expected 0"
        )
    if any_wrong:
        # A reached terminal some row disagrees with is either mislabeled or
        # not degenerate; the least and greatest decision of its rows tell.
        bad = np.zeros(tree.node_count, dtype=bool)
        bad[routing.terminals[wrong]] = True
        at = bad.take(routing.terminals)
        terminals = routing.terminals[at]
        decided = decisions.take(routing.rows[at])
        least = np.full(tree.node_count, decided.max())
        greatest = np.full(tree.node_count, decided.min())
        np.minimum.at(least, terminals, decided)
        np.maximum.at(greatest, terminals, decided)
        for node in bad.nonzero()[0].tolist():
            if least[node] != greatest[node]:
                line = f"node {node}: terminal subtable is not degenerate"
            else:
                line = (
                    f"node {node}: terminal labeled {labels[node]}, "
                    f"but its subtable decides {least[node]}"
                )
            structural.setdefault(node, []).append(line)
    for node in sorted(structural):
        report.violations.extend(structural[node])

    if any_wrong:
        rows = routing.rows[wrong]
        terminals = routing.terminals[wrong]
        for at in np.lexsort((terminals, rows)).tolist():
            row, terminal = rows[at], terminals[at]
            report.violations.append(
                f"row {row}: a computation reaches terminal {terminal} "
                f"deciding {labels[terminal]}, expected {decisions[row]}"
            )
    return report
