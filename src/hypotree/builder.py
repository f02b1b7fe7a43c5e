"""Greedy construction of decision trees with attribute and hypothesis queries.

Nodes live in a flat arena of parallel arrays, so trees in the tens of
millions of nodes fit in a few hundred megabytes and no recursion happens
anywhere.  Construction is breadth-first; children of a node occupy
consecutive ids, and a child's id always exceeds its parent's, which lets
the metrics run as single forward passes.

A node is either Terminal (a decision) or Working (a query).  Children are
created for every possible answer of the chosen query against the base
table; answers no row of the current subtable matches become Terminal nodes
labeled 0.  Degenerate children are labeled immediately from the branch
counts gathered during query selection, so only nondegenerate subtables are
ever queued.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Iterator, NamedTuple

import numpy as np

from .table import ConstraintError, DecisionTable, EquationSystem
from .queries import (
    AttributeQuery,
    BranchStats,
    Hypothesis,
    HypothesisQuery,
    Query,
    branch_stats,
    render_hypothesis,
    select_query_from_stats,
)
from .uncertainty import UncertaintyMeasure, get_measure

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "DecisionTree",
    "NodeBudgetExceeded",
    "Routing",
    "TERMINAL",
    "WORKING_ATTR",
    "WORKING_HYP",
    "build_tree",
]

DEFAULT_NODE_BUDGET = 20_000_000

TERMINAL = 0
WORKING_ATTR = 1
WORKING_HYP = 2
_PENDING = -1

# Most (occurrence, attribute) cells one routing step compares at once, so a
# level of the routing pass never holds more than a few megabytes of
# comparison and counterexample temporaries, however wide it is.
_ROUTE_CHUNK_CELLS = 1 << 18


class NodeBudgetExceeded(RuntimeError):
    """Raised when a build would allocate more nodes than its budget."""

    def __init__(self, budget: int, nodes: int):
        super().__init__(
            f"node budget exceeded: needs more than {budget} nodes ({nodes} allocated)"
        )
        self.budget = budget
        self.nodes = nodes


class Routing(NamedTuple):
    """Where the base-table rows go under every truthful answer.

    ``node_rows[i]`` is the number of rows reaching node ``i``, which is the
    size of its recomputed path subtable.  ``rows``, ``terminals`` and
    ``depths`` list the terminal occurrences, in no particular order: one
    entry per row and terminal one of its truthful computations ends in,
    with the number of edges from the root to that terminal.
    """

    node_rows: np.ndarray
    rows: np.ndarray
    terminals: np.ndarray
    depths: np.ndarray


def _of_kind(kind, which, count, rows, nodes):
    """The occurrences whose node is of kind ``which``, of which there are ``count``."""
    if count == len(kind):
        return rows, nodes
    at = kind == which
    return rows[at], nodes[at]


def _code_typecode(table: DecisionTable) -> str:
    """Narrowest signed array typecode holding every value code of the table."""
    width = max(len(vs) for vs in table.value_sets)
    return "b" if width <= 127 else "h" if width <= 32767 else "q"


class DecisionTree:
    """An arena-backed tree over a base table.

    Read-only numpy views of the arena are exposed for the metrics; per-node
    accessors materialize query and edge objects on demand.  Node 0 is the
    root.  ``path_row_counts[i]`` is the number of base-table rows matching
    the equations on the path to node ``i``.  Hypotheses are also kept as
    value codes, one row of ``base.n`` codes each, for the routing pass.
    """

    __slots__ = (
        "base",
        "tree_type",
        "measure_name",
        "hypotheses",
        "_kind",
        "_label",
        "_first",
        "_nchild",
        "_nrows",
        "_hyp_codes",
        "_views",
        "_hyp_arrays",
    )

    def __init__(self, base, tree_type, measure_name, hypotheses,
                 kind, label, first, nchild, nrows, hyp_codes):
        self.base: DecisionTable = base
        self.tree_type: int = tree_type
        self.measure_name: str = measure_name
        self.hypotheses: list[tuple[int, ...]] = hypotheses
        self._kind = kind
        self._label = label
        self._first = first
        self._nchild = nchild
        self._nrows = nrows
        self._hyp_codes = hyp_codes
        self._views: tuple[np.ndarray, ...] | None = None
        self._hyp_arrays: tuple[np.ndarray, ...] | None = None

    @property
    def node_count(self) -> int:
        return len(self._kind)

    def _arena(self) -> tuple[np.ndarray, ...]:
        # Made once; the views follow later writes to the arena's elements.
        if self._views is None:
            self._views = (
                self._as_np(self._kind, np.int8),
                self._as_np(self._label, np.int64),
                self._as_np(self._nrows, np.int64),
                self._as_np(self._first, np.int64),
                self._as_np(self._nchild, np.int32),
            )
        return self._views

    @property
    def kinds(self) -> np.ndarray:
        return self._arena()[0]

    @property
    def labels(self) -> np.ndarray:
        """Decision of each terminal; attribute or hypothesis index of each query."""
        return self._arena()[1]

    @property
    def path_row_counts(self) -> np.ndarray:
        return self._arena()[2]

    @property
    def first_children(self) -> np.ndarray:
        return self._arena()[3]

    @property
    def child_counts(self) -> np.ndarray:
        return self._arena()[4]

    @staticmethod
    def _as_np(arr: array, dtype) -> np.ndarray:
        view = np.frombuffer(arr, dtype=dtype)
        view.flags.writeable = False
        return view

    def is_terminal(self, node: int) -> bool:
        return self._kind[node] == TERMINAL

    def decision(self, node: int) -> int:
        if self._kind[node] != TERMINAL:
            raise ConstraintError(f"node {node} is not terminal")
        return self._label[node]

    def query(self, node: int) -> Query:
        kind = self._kind[node]
        if kind == WORKING_ATTR:
            return AttributeQuery(self._label[node])
        if kind == WORKING_HYP:
            return HypothesisQuery(Hypothesis(self.hypotheses[self._label[node]]))
        raise ConstraintError(f"node {node} is terminal and has no query")

    def children(self, node: int) -> range:
        first = self._first[node]
        if first < 0:
            return range(0)
        return range(first, first + self._nchild[node])

    def n_rows_at(self, node: int) -> int:
        return self._nrows[node]

    def child_edges(self, node: int) -> list[tuple[int, int | None, object]]:
        """Children with lean edge descriptors.

        Yields ``(child_id, attribute, value)`` for single-equation edges and
        ``(child_id, None, hypothesis_values)`` for the hypothesis-holds edge
        (always the first child of a hypothesis node).
        """
        kind = self._kind[node]
        first = self._first[node]
        base = self.base
        out: list[tuple[int, int | None, object]] = []
        if kind == WORKING_ATTR:
            i = self._label[node]
            for pos, v in enumerate(base.value_sets[i]):
                out.append((first + pos, i, v))
            return out
        if kind == WORKING_HYP:
            values = self.hypotheses[self._label[node]]
            out.append((first, None, values))
            cid = first + 1
            for i, delta in enumerate(values):
                for v in base.value_sets[i]:
                    if v != delta:
                        out.append((cid, i, v))
                        cid += 1
            return out
        raise ConstraintError(f"node {node} is terminal and has no edges")

    def route_rows(self) -> Routing:
        """Route every base-table row along all of its truthful paths.

        The pass moves (row, node) occurrences down one level at a time.  At
        an attribute node a row takes the child of its value.  At a
        hypothesis node a row equal to the hypothesis takes the holds child;
        any other row takes one counterexample child per attribute where it
        differs from the hypothesis.  Counterexample children follow the
        holds child in (attribute, value) order without the hypothesis's own
        value, so the child of attribute ``i`` with value code ``c`` sits at
        ``first + 1 + offsets[i] - i + c - (c > hypothesis code)``.
        Hypothesis levels are expanded in chunks of at most
        ``_ROUTE_CHUNK_CELLS`` (row, attribute) cells, comparing codes in
        the narrow dtype the hypotheses are stored in.
        """
        kinds, label, _, first, _ = self._arena()
        codes = self.base.codes
        n_rows = len(codes)
        rows = np.arange(n_rows)
        nodes = np.zeros(n_rows, dtype=np.int64)
        level_nodes: list[np.ndarray] = []
        ends_rows: list[np.ndarray] = []
        ends_nodes: list[np.ndarray] = []
        ends_depth: list[int] = []
        while True:
            level_nodes.append(nodes)
            kind = kinds.take(nodes)
            n_term, n_attr, n_hyp = np.bincount(kind, minlength=3).tolist()
            if n_term:
                r, v = _of_kind(kind, TERMINAL, n_term, rows, nodes)
                ends_rows.append(r)
                ends_nodes.append(v)
                ends_depth.append(len(level_nodes) - 1)
            if not n_attr + n_hyp:
                break
            next_rows: list[np.ndarray] = []
            next_nodes: list[np.ndarray] = []
            if n_attr:
                r, v = _of_kind(kind, WORKING_ATTR, n_attr, rows, nodes)
                next_rows.append(r)
                next_nodes.append(first.take(v) + codes[r, label.take(v)])
            if n_hyp:
                r, v = _of_kind(kind, WORKING_HYP, n_hyp, rows, nodes)
                self._expand_hypotheses(r, v, next_rows, next_nodes)
            if len(next_rows) == 1:
                rows, nodes = next_rows[0], next_nodes[0]
            else:
                rows, nodes = np.concatenate(next_rows), np.concatenate(next_nodes)

        node_rows = np.bincount(
            np.concatenate(level_nodes) if len(level_nodes) > 1 else nodes,
            minlength=len(kinds),
        )
        del level_nodes  # free the occurrences before the terminal lists are joined
        depths = np.array(ends_depth).repeat([len(v) for v in ends_nodes])
        if len(ends_nodes) == 1:
            return Routing(node_rows, ends_rows[0], ends_nodes[0], depths)
        return Routing(
            node_rows, np.concatenate(ends_rows), np.concatenate(ends_nodes), depths
        )

    def _expand_hypotheses(self, rows, nodes, next_rows, next_nodes) -> None:
        """Append the child occurrences of (row, hypothesis node) occurrences."""
        if self._hyp_arrays is None:
            base = self.base
            typecode = self._hyp_codes.typecode
            self._hyp_arrays = (
                base.codes.astype(typecode),
                self._as_np(self._hyp_codes, typecode).reshape(-1, base.n),
                1 + base.offsets[:-1] - np.arange(base.n),
            )
        codes, hyp_codes, skip = self._hyp_arrays
        _, label, _, first, _ = self._arena()
        chunk = max(1, _ROUTE_CHUNK_CELLS // codes.shape[1])
        for lo in range(0, len(rows), chunk):
            r, v = rows[lo : lo + chunk], nodes[lo : lo + chunk]
            f = first.take(v)
            c = codes.take(r, axis=0)
            h = hyp_codes.take(label.take(v), axis=0)
            differs = c != h
            n_differ = np.add.reduce(differs, axis=1)
            child = f[:, None] + skip + c - (c > h)
            next_rows.append(r.repeat(n_differ))
            next_nodes.append(child[differs])
            if np.count_nonzero(n_differ) < len(r):
                holds = n_differ == 0
                next_rows.append(r[holds])
                next_nodes.append(f[holds])

    def edge_systems(self, node: int) -> list[EquationSystem]:
        """Equation systems of the edges to each child, in child order."""
        systems = []
        for _, attr, payload in self.child_edges(node):
            if attr is None:
                systems.append(EquationSystem(enumerate(payload)))
            else:
                systems.append(EquationSystem([(attr, payload)]))
        return systems

    def iter_serialized_lines(self) -> Iterator[str]:
        names = self.base.attribute_names
        for node in range(self.node_count):
            kind = self._kind[node]
            if kind == TERMINAL:
                yield f"{node} T {self._label[node]}"
                continue
            if kind == WORKING_ATTR:
                query = names[self._label[node]]
            else:
                query = render_hypothesis(
                    Hypothesis(self.hypotheses[self._label[node]]), names
                )
            parts = [f"{node} W {query}"]
            for child, attr, payload in self.child_edges(node):
                if attr is None:
                    edge = render_hypothesis(Hypothesis(payload), names)
                else:
                    edge = f"{names[attr]}={payload}"
                parts.append(f"[{edge}]:{child}")
            yield " ".join(parts)

    def serialize(self) -> str:
        """Deterministic one-node-per-line text form, ending in a newline."""
        return "\n".join(self.iter_serialized_lines()) + "\n"

    def __repr__(self) -> str:
        return (
            f"DecisionTree(type={self.tree_type}, measure={self.measure_name}, "
            f"{self.node_count} nodes)"
        )


class _Builder:
    def __init__(self, table: DecisionTable, tree_type: int,
                 measure: UncertaintyMeasure, node_budget: int):
        self.table = table
        self.tree_type = tree_type
        self.measure = measure
        self.budget = node_budget
        self.kind = array("b")
        self.label = array("q")
        self.first = array("q")
        self.nchild = array("i")
        self.nrows = array("q")
        self.hypotheses: list[tuple[int, ...]] = []
        self.hyp_codes = array(_code_typecode(table))
        self.queue: deque[tuple[int, np.ndarray]] = deque()

    def run(self) -> DecisionTree:
        table = self.table
        if self.budget < 1:
            raise NodeBudgetExceeded(self.budget, 0)
        rows = np.arange(table.n_rows, dtype=np.int64)
        counts = np.bincount(table.dec_codes, minlength=max(table.n_decision_values, 1))
        if int(counts.max(initial=0)) == table.n_rows:
            self._append_terminal(int(table.decision_values[int(np.argmax(counts))]),
                                  table.n_rows)
        else:
            self._append_pending(rows)
        while self.queue:
            node, pending_rows = self.queue.popleft()
            self._expand(node, pending_rows)
        return DecisionTree(
            table,
            self.tree_type,
            self.measure.name,
            self.hypotheses,
            self.kind,
            self.label,
            self.first,
            self.nchild,
            self.nrows,
            self.hyp_codes,
        )

    def _append_terminal(self, decision: int, n_rows: int) -> None:
        self.kind.append(TERMINAL)
        self.label.append(decision)
        self.first.append(-1)
        self.nchild.append(0)
        self.nrows.append(n_rows)

    def _append_pending(self, rows: np.ndarray) -> int:
        node = len(self.kind)
        self.kind.append(_PENDING)
        self.label.append(-1)
        self.first.append(-1)
        self.nchild.append(0)
        self.nrows.append(len(rows))
        self.queue.append((node, rows))
        return node

    def _expand(self, node: int, rows: np.ndarray) -> None:
        table = self.table
        stats = branch_stats(table, rows, self.measure)
        query, _ = select_query_from_stats(table, stats, self.tree_type)

        if isinstance(query, AttributeQuery):
            i = query.attribute
            n_children = len(table.value_sets[i])
            self.kind[node] = WORKING_ATTR
            self.label[node] = i
            branches = [(i, pos) for pos in range(n_children)]
            hyp_child = None
        else:
            values = query.hypothesis.values
            n_children = 1 + table.total_branches - table.n
            self.kind[node] = WORKING_HYP
            self.label[node] = len(self.hypotheses)
            self.hypotheses.append(values)
            branches = []
            for i, delta in enumerate(values):
                delta_pos = table.value_sets[i].index(delta)
                self.hyp_codes.append(delta_pos)
                branches.extend(
                    (i, pos)
                    for pos in range(len(table.value_sets[i]))
                    if pos != delta_pos
                )
            hyp_child = values

        if len(self.kind) + n_children > self.budget:
            raise NodeBudgetExceeded(self.budget, len(self.kind))
        self.first[node] = len(self.kind)
        self.nchild[node] = n_children

        offsets = self.table.offsets
        dec_values = table.decision_values
        cols: dict[int, np.ndarray] = {}

        if hyp_child is not None:
            ridx = table.row_lookup.get(hyp_child)
            if ridx is not None:
                at = int(np.searchsorted(rows, ridx))
                if at < len(rows) and rows[at] == ridx:
                    self._append_terminal(int(table.decisions[ridx]), 1)
                else:
                    self._append_terminal(0, 0)
            else:
                self._append_terminal(0, 0)

        for i, pos in branches:
            g = int(offsets[i]) + pos
            branch_n = stats.n[g]
            if branch_n == 0:
                self._append_terminal(0, 0)
            elif stats.mx[g] == branch_n:
                self._append_terminal(int(dec_values[stats.am[g]]), branch_n)
            else:
                col = cols.get(i)
                if col is None:
                    col = table.codes[rows, i]
                    cols[i] = col
                self._append_pending(rows[col == pos])


def build_tree(
    table: DecisionTable,
    tree_type: int,
    measure: UncertaintyMeasure | str,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DecisionTree:
    """Build the greedy tree of the given type under the given measure.

    Raises ConstraintError for an empty table or invalid type, and
    NodeBudgetExceeded when the arena would outgrow ``node_budget`` nodes.
    """
    if isinstance(measure, str):
        measure = get_measure(measure)
    tree_type = int(tree_type)
    if tree_type not in (1, 2, 3, 4, 5):
        raise ConstraintError(f"tree type must be 1..5, got {tree_type}")
    if table.n_rows == 0:
        raise ConstraintError("cannot build a tree for an empty table")
    return _Builder(table, tree_type, measure, node_budget).run()
