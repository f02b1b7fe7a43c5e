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

``builder._in_python`` picks the form of each pass here.  ``validate``
words violations in one plain-Python pass (``_violations``), which builds
nothing while the tree passes its three checks.  A small table's tree goes
through that pass alone.  A large table's tree is first checked by a few
NumPy passes that word nothing (``_clean_in_numpy``), and only a tree they
find faulty goes on to the plain-Python pass, so both forms list violations
alike.  ``realizable_count`` counts the ``array`` of recorded sizes on a
small table and a NumPy view of them on a large one.  ``depth`` reads the
``array`` of level starts for every table size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .table import ConstraintError, DecisionTable, EquationSystem, _as_int
from .builder import TERMINAL, DecisionTree, Routing, _in_python
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
    if _in_python(tree.base):  # ``array.count`` is far slower than NumPy on large trees
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
    routing = tree.route_rows()
    clean = not _in_python(tree.base) and _clean_in_numpy(table, tree, routing)
    return ValidationReport([] if clean else _violations(table, tree, routing), table.n_rows)


def _clean_in_numpy(table: DecisionTable, tree: DecisionTree, routing: Routing) -> bool:
    """Whether ``validate`` finds no violation, read in NumPy passes without wording any."""
    reached = routing.node_rows
    if np.count_nonzero(reached != tree.path_row_counts):
        return False
    labels = tree.labels
    if np.count_nonzero(labels.take(routing.terminals) != table.decisions.take(routing.rows)):
        return False
    return not np.count_nonzero((tree.kinds == TERMINAL) & (reached == 0) & (labels != 0))


def _violations(table: DecisionTable, tree: DecisionTree, routing: Routing) -> list[str]:
    """``validate``'s violation lines, read in plain Python; none on a clean tree.

    The three checks run first and build nothing while they pass: every
    recorded subtable size equals the routed one, every terminal
    occurrence's label is its row's decision, and every terminal no row
    reaches carries 0.  Only a tree some check fails is then worded.
    """
    reached = routing.node_rows.tolist()
    recorded = tree._nrows.tolist()
    kinds, labels = tree._kind, tree._label
    decisions = table.decisions.tolist()
    rows, terminals = routing.rows.tolist(), routing.terminals.tolist()
    if reached == recorded:
        for r, v in zip(rows, terminals):
            if labels[v] != decisions[r]:
                break
        else:
            for kind, label, count in zip(kinds, labels, reached):
                if label and not count and kind == TERMINAL:
                    break
            else:
                return []

    wrong = sorted((r, v) for r, v in zip(rows, terminals) if labels[v] != decisions[r])
    # A reached terminal some row disagrees with is either mislabeled or not
    # degenerate; the decisions of all the rows reaching it tell.
    decided: dict[int, set[int]] = {v: set() for _, v in wrong}
    for r, v in zip(rows, terminals):
        if v in decided:
            decided[v].add(decisions[r])
    lines = []
    for node, (count, size, kind, label) in enumerate(zip(reached, recorded, kinds, labels)):
        if count != size:
            lines.append(
                f"node {node}: recorded subtable size {size} differs from recomputed {count}"
            )
        if kind == TERMINAL and label and not count:
            lines.append(f"node {node}: empty-subtable terminal labeled {label}, expected 0")
        elif node in decided:
            if len(decided[node]) > 1:
                lines.append(f"node {node}: terminal subtable is not degenerate")
            else:
                (decides,) = decided[node]
                lines.append(
                    f"node {node}: terminal labeled {label}, but its subtable decides {decides}"
                )
    lines.extend(
        f"row {r}: a computation reaches terminal {v} deciding {labels[v]}, "
        f"expected {decisions[r]}"
        for r, v in wrong
    )
    return lines
