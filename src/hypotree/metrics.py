"""Tree metrics: depth, realizable node count, simulation, validation.

Depth counts the queries (Working nodes) on a longest root-to-terminal path:
the levels below the root in ``DecisionTree.level_starts``.  A node is
realizable when some base-table row together with some truthful choice of
counterexamples reaches it, which is exactly when the subtable of rows
matching its path equations is nonempty; the builder records those row
counts, so counting is a single pass.

Simulation replays one row through the tree.  At a hypothesis node whose
hypothesis the row falsifies, a strategy picks which truthful counterexample
to answer.  Validation takes every choice at once: one routing pass
(``DecisionTree.route_rows``) sends each row down all of its truthful
paths, and the same (row, node) occurrences serve as the structural check
(recomputed subtable sizes, terminal labels) and as the exhaustive truthful
simulation (the decision at every terminal a row reaches).  The routing is
computed once per tree and kept, read-only, so ``validate`` after
``rule_stats`` or ``derive_rules`` reuses it.  It depends only on the tree's
shape, its queries and the base table's codes; the terminal labels and
recorded subtable sizes it is checked against are read afresh on each call.

One table-size test picks the form of every pass over a tree's routing
(``DecisionTree._in_python``, see the ``builder`` module docstring).  On a
table of fewer than ``builder._WIDE_ROUTING`` rows, ``realizable_count``
counts the ``array`` of recorded sizes and ``validate`` first checks the
tree in plain Python, returning at once when it finds nothing; only a tree
with some violation goes on to the NumPy code that words the violations,
so both forms list them alike.  ``depth`` reads the ``array`` of level
starts for every table size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .table import ConstraintError, DecisionTable, EquationSystem, _as_int
from .builder import TERMINAL, DecisionTree, Routing
from .queries import AttributeQuery, Hypothesis

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


Strategy = Callable[[ComputationState, Hypothesis, Sequence[int]], EquationSystem]


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
    return len(tree._starts) - 2


def realizable_count(table: DecisionTable, tree: DecisionTree) -> int:
    """Number of nodes whose path subtable is nonempty."""
    _check_pair(table, tree)
    if tree._in_python():  # ``array.count`` is far slower than NumPy on large trees
        return tree.node_count - tree._nrows.count(0)
    return int(np.count_nonzero(tree.path_row_counts > 0))


def first_counterexample(
    state: ComputationState, hypothesis: Hypothesis, row: Sequence[int]
) -> EquationSystem:
    """Default strategy: the first truthful counterexample in answer order."""
    for i, delta in enumerate(hypothesis.values):
        if row[i] != delta:
            return EquationSystem([(i, row[i])])
    raise StrategyError("row satisfies the hypothesis; no counterexample exists")


def simulate(
    table: DecisionTable,
    tree: DecisionTree,
    row: Sequence[int],
    strategy: Strategy | None = None,
) -> int:
    """Decision the tree computes for ``row`` (integers) under the given strategy.

    A strategy answers with the equation system of one truthful counterexample.
    A node's children follow its query's answers (``queries.answers``), and
    each step takes the child at its answer's position there, worked out
    from the value codes: an attribute answer's position is its value's
    code, the holds answer's 0, and counterexample ``(i, v)`` sits at
    ``1 + offsets[i] - i + c - (c > h)`` for ``v``'s code ``c`` and the
    hypothesis's code ``h``, as in ``DecisionTree.route_rows``.
    """
    _check_pair(table, tree)
    values = tuple([_as_int(v, "row values") for v in row])
    if len(values) != table.n:
        raise ConstraintError(f"row has {len(values)} values for {table.n} attributes")
    if strategy is None:
        strategy = first_counterexample
    value_sets = tree.base.value_sets
    offsets = tree.base.offsets.tolist()
    node = 0
    system = EquationSystem()
    while not tree.is_terminal(node):
        query = tree.query(node)
        if isinstance(query, AttributeQuery):
            attr, value = query.attribute, values[query.attribute]
            answer = EquationSystem([(attr, value)])
            at = _code(value_sets, attr, value)
        elif query.hypothesis.values == values:
            answer, at = query.hypothesis.system(), 0
        else:
            answer = strategy(ComputationState(node, system), query.hypothesis, values)
            items = answer.items()
            if len(items) != 1:
                raise StrategyError("counterexample answers carry exactly one equation")
            attr, value = items[0]
            own = query.hypothesis.values[attr]
            if values[attr] != value or own == value:
                raise StrategyError(
                    f"answer {attr}={value} is not a truthful counterexample"
                )
            code = _code(value_sets, attr, value)
            at = 1 + offsets[attr] - attr + code - (code > value_sets[attr].index(own))
        node = tree.children(node)[at]
        system = system.union(answer)
    return tree.decision(node)


def _code(value_sets, attr: int, value: int) -> int:
    """Position of ``value`` among attribute ``attr``'s values in the base table."""
    try:
        return value_sets[attr].index(value)
    except ValueError:
        raise ConstraintError(
            f"value {value} of attribute {attr} is outside the table"
        ) from None


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
    if tree._in_python() and _passes_in_python(table, tree, routing):
        return report
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


def _passes_in_python(table: DecisionTable, tree: DecisionTree, routing: Routing) -> bool:
    """Whether ``validate`` finds no violation, read in plain Python.

    The same three checks as its NumPy form, without their diagnostics:
    every recorded subtable size equals the routed one, every terminal
    occurrence's label is its row's decision, and every terminal no row
    reaches carries 0.
    """
    reached = routing.node_rows.tolist()
    if reached != tree._nrows.tolist():
        return False
    labels = tree._label
    decisions = table.decisions.tolist()
    for r, v in zip(routing.rows.tolist(), routing.terminals.tolist()):
        if labels[v] != decisions[r]:
            return False
    for kind, label, count in zip(tree._kind, labels, reached):
        if label and not count and kind == TERMINAL:
            return False
    return True
