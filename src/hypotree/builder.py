"""Greedy construction of decision trees with attribute and hypothesis queries.

Nodes live in a flat arena of four parallel arrays (kind, label, first
child and path row count, 25 bytes a node), so trees in the tens of millions
of nodes fit in a few hundred megabytes and no recursion happens anywhere.
Construction is breadth-first, one level at a time; children of a node
occupy consecutive ids, and a child's id always exceeds its parent's, which
lets the metrics run as single forward passes.  The arena is in level
order: every node of a level precedes every node of the next, and working
nodes' first children ascend with their ids.  The builder records where
each level starts (``DecisionTree.level_starts``), which gives the depth,
each node's level and the routing pass's per-level id ranges.  A working
node's child count is fixed by its query and is not stored: an attribute
node has one child per base-table value of its attribute, a hypothesis node
the holds child plus one counterexample per other (attribute, value),
``1 + total_branches - n``.

A node is either Terminal (a decision) or Working (a query).  Children are
created for every possible answer of the chosen query against the base
table; answers no row of the current subtable matches become Terminal nodes
labeled 0.  Degenerate children are labeled immediately from the branch
counts gathered during query selection, so only nondegenerate subtables
join the next level.

A level with at least ``_WIDE_FRONTIER`` nodes to expand is built in a few
NumPy passes over all of them: one ``bincount`` gives every node's (branch,
decision) counts, the query choice reads a padded (node x attribute x value)
view of the branch uncertainties, and the children are laid out on a
(node x answer) grid whose nonzero order is the arena's child order.  Proper
hypotheses (types 4 and 5) are found by a threshold search over packed row
bitsets, 64 base rows to a word: one cumulative AND over the attributes,
sorted by their largest branch uncertainty, gives the rows under each
candidate impurity, and the lowest set bit of the least nonempty one is the
earliest row of least impurity (``_Builder._best_proper``).  The level is
split into chunks of whole nodes holding at most ``_CHUNK_CELLS`` cells (a
proper search holds one per attribute and word of rows, not per base row),
so its temporaries stay small however wide it is.  Narrower levels,
which is every level of a small table, are expanded node by node
(``_Builder._expand``), which costs less there; both ways build the same
tree.  The node budget is checked before any child of a node is allocated:
per node on a narrow level, once per chunk on a wide one, with the same
count of allocated nodes in the error either way.

A hypothesis is stored once, as its row of value codes (positions in the
base table's ``value_sets``) in one flat array; a hypothesis node's label is
its row number there.  Both ways of expanding a level choose a hypothesis as
codes and store those codes as they are.  Values are read back from the codes
only where a caller sees them: ``DecisionTree.query``, ``child_edges`` and
``serialize``.

``DecisionTree.serialize`` writes the text form from the arena columns and
the stored codes, never through the per-node accessors: a terminal's line
straight from its id and label, a working node's line by filling a ``%d``
template with its id and the consecutive range of its children's ids.
Within one call a template, with its child count, is made once per queried
attribute and once per distinct hypothesis, whose ``H[...]`` text serves
both its query and its holds edge; nothing is kept between calls.  Lines are
made in blocks of ``_SERIALIZE_BLOCK`` ids, each joined into one string
before the next block starts, so a tree of millions of nodes never holds one
string object per line.

``DecisionTree.route_rows`` sends every base-table row down all of its
truthful paths.  A tree does not change after the build, so the pass runs
once per tree: its ``Routing`` is kept on the tree, read-only, and serves
``validate``, ``rule_stats`` and ``derive_rules`` alike.  It depends only on
the kinds, first children, working nodes' labels, hypothesis codes and level
starts of the tree and on the base table's codes.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

import numpy as np

from .table import ConstraintError, DecisionTable, EquationSystem
from .queries import (
    AttributeQuery,
    Hypothesis,
    HypothesisQuery,
    Query,
    branch_stats,
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

# Most nodes whose lines ``DecisionTree.serialize`` holds as separate strings:
# each block of ids is joined before the next is rendered, so a large tree's
# text is never held as one string per line.
_SERIALIZE_BLOCK = 4096

# Levels with at least this many nodes to expand are built in a few NumPy
# passes over the whole level; narrower ones node by node, which costs less
# when a level holds only a handful of nodes.
_WIDE_FRONTIER = 8

# Most cells one chunk of a wide level holds at once (see
# ``_Builder._expand_level``), which bounds its temporaries to a few
# megabytes however wide the level is.
_CHUNK_CELLS = 1 << 16


class NodeBudgetExceeded(RuntimeError):
    """Raised when a build would allocate more nodes than its budget.

    ``nodes`` is the number allocated when the next node's children did not
    fit, ``level`` the depth of the nodes being expanded (the root is level
    0) and ``frontier`` how many nodes that level had to expand.
    """

    def __init__(self, budget: int, nodes: int, level: int = 0, frontier: int = 0):
        super().__init__(
            f"node budget exceeded: needs more than {budget} nodes ({nodes} allocated, "
            f"at level {level} with a frontier of {frontier} nodes)"
        )
        self.budget = budget
        self.nodes = nodes
        self.level = level
        self.frontier = frontier


class Routing(NamedTuple):
    """Where the base-table rows go under every truthful answer.

    ``node_rows[i]`` is the number of rows reaching node ``i``, which is the
    size of its recomputed path subtable.  ``rows`` and ``terminals`` list
    the terminal occurrences, in no particular order: one entry per row and
    terminal one of its truthful computations ends in.  A terminal's number
    of edges from the root is its level in ``DecisionTree.level_starts``.
    """

    node_rows: np.ndarray
    rows: np.ndarray
    terminals: np.ndarray


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


def _hypothesis_template(names, value_sets, hypothesis) -> str:
    """``%d`` template of a hypothesis query's line: its id, then one per child.

    ``names`` come with any ``%`` doubled.  The ``H[...]`` text is both the
    query and the holds edge, which comes first; the counterexamples follow
    in (attribute, value) order without the hypothesis's own value.
    """
    h = "H[" + ",".join(map("{}={}".format, names, hypothesis)) + "]"
    return f"%d W {h} [{h}]:%d" + "".join(
        [
            f" [{name}={v}]:%d"
            for name, values, own in zip(names, value_sets, hypothesis)
            for v in values
            if v != own
        ]
    )


class DecisionTree:
    """An arena-backed tree over a base table.

    Read-only numpy views of the arena's four columns and of the level
    starts are exposed for the metrics, made on first use; per-node
    accessors materialize query and edge objects on demand.  Node 0 is the
    root.  ``path_row_counts[i]`` is the number of base-table rows matching
    the equations on the path to node ``i``.  A working node's child count
    comes from its query (see the module docstring); ``children`` and
    ``serialize`` work it out when called.  ``level_starts`` holds the
    first id of each level, the root's first, then ``node_count``, so the
    tree has ``len(level_starts) - 2`` levels below the root.  Hypotheses
    are kept only as value codes, one row of ``base.n`` codes each, which
    the routing pass reads as they are; a hypothesis node's label is its
    row.  ``query``, ``child_edges`` and ``serialize`` turn the codes into
    values through ``base.value_sets``.  ``route_rows`` computes the tree's
    ``Routing`` on its first call and keeps it, read-only, for every later
    one.  It reads neither the terminals' labels nor the recorded row
    counts, so checks of those against it see their current values.
    """

    __slots__ = (
        "base",
        "tree_type",
        "measure_name",
        "_kind",
        "_label",
        "_first",
        "_nrows",
        "_hyp_codes",
        "_starts",
        "_views",
        "_routing",
    )

    def __init__(self, base, tree_type, measure_name,
                 kind, label, first, nrows, hyp_codes, level_starts):
        self.base: DecisionTable = base
        self.tree_type: int = tree_type
        self.measure_name: str = measure_name
        self._kind = kind
        self._label = label
        self._first = first
        self._nrows = nrows
        self._hyp_codes = hyp_codes
        self._starts = level_starts
        self._views: tuple[np.ndarray, ...] | None = None
        self._routing: Routing | None = None

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
                self._as_np(self._starts, np.int64),
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
    def level_starts(self) -> np.ndarray:
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

    def _hypothesis(self, at: int) -> tuple[int, ...]:
        """Values of stored hypothesis ``at``, read from its value codes."""
        n = self.base.n
        codes = self._hyp_codes[at * n : at * n + n]
        return tuple([vs[c] for vs, c in zip(self.base.value_sets, codes)])

    def query(self, node: int) -> Query:
        kind = self._kind[node]
        if kind == WORKING_ATTR:
            return AttributeQuery(self._label[node])
        if kind == WORKING_HYP:
            return HypothesisQuery(Hypothesis(self._hypothesis(self._label[node])))
        raise ConstraintError(f"node {node} is terminal and has no query")

    def children(self, node: int) -> range:
        first = self._first[node]
        if first < 0:
            return range(0)
        base = self.base
        if self._kind[node] == WORKING_ATTR:
            return range(first, first + len(base.value_sets[self._label[node]]))
        return range(first, first + 1 + base.total_branches - base.n)

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
            values = self._hypothesis(self._label[node])
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

        The pass runs once per tree: its ``Routing`` is kept and returned by
        every later call, with its three arrays read-only, since callers
        share them.  It depends only on parts of the tree that do not change
        after the build: the kinds, the first children, the working nodes'
        labels, the hypothesis codes, the level starts and the base table's
        codes.

        The pass moves (row, node) occurrences down one level at a time and
        counts each level's rows per node over that level's id range.  At
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
        if self._routing is None:
            routing = self._route()
            for part in routing:
                part.flags.writeable = False
            self._routing = routing
        return self._routing

    def _route(self) -> Routing:
        """The routing pass itself, as ``route_rows`` describes it."""
        kinds, label, _, first, _ = self._arena()
        base = self.base
        codes = base.codes
        n_rows = len(codes)
        hyp = None
        if len(self._hyp_codes):  # codes and hypotheses in one narrow dtype
            typecode = self._hyp_codes.typecode
            hyp = (
                codes.astype(typecode),
                self._as_np(self._hyp_codes, typecode).reshape(-1, base.n),
                1 + base.offsets[:-1] - np.arange(base.n),
            )
        rows = np.arange(n_rows)
        nodes = np.zeros(n_rows, dtype=np.int64)
        node_rows = np.zeros(len(kinds), dtype=np.int64)
        ends_rows: list[np.ndarray] = []
        ends_nodes: list[np.ndarray] = []
        starts = self._starts.tolist()
        for lo, hi in zip(starts, starts[1:]):
            # A node outside the level makes bincount or the assignment raise.
            node_rows[lo:hi] = np.bincount(nodes - lo, minlength=hi - lo)
            kind = kinds.take(nodes)
            n_term, n_attr, n_hyp = np.bincount(kind, minlength=3).tolist()
            if n_term:
                r, v = _of_kind(kind, TERMINAL, n_term, rows, nodes)
                ends_rows.append(r)
                ends_nodes.append(v)
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
                self._expand_hypotheses(hyp, r, v, next_rows, next_nodes)
            rows = nodes = kind = r = v = None  # free this level before joining the next
            if len(next_rows) == 1:
                rows, nodes = next_rows[0], next_nodes[0]
            else:
                rows, nodes = np.concatenate(next_rows), np.concatenate(next_nodes)

        if len(ends_nodes) == 1:
            return Routing(node_rows, ends_rows[0], ends_nodes[0])
        return Routing(node_rows, np.concatenate(ends_rows), np.concatenate(ends_nodes))

    def _expand_hypotheses(self, hyp, rows, nodes, next_rows, next_nodes) -> None:
        """Append the child occurrences of (row, hypothesis node) occurrences.

        ``hyp`` is the base codes and the hypotheses in the hypotheses' dtype,
        and each attribute's ``1 + offsets[i] - i``, made once per pass.
        """
        codes, hyp_codes, skip = hyp
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

    def serialize(self) -> str:
        """Deterministic one-node-per-line text form, ending in a newline.

        Rendered from the arena columns as the module docstring describes;
        the templates of working nodes' lines live only for the call.
        """
        base = self.base
        first = self._first
        # Hypothesis ``at``'s codes are one slice of these bytes, which keys its template.
        raw = self._hyp_codes.tobytes()
        width = base.n * self._hyp_codes.itemsize
        attribute_lines: dict[int, tuple[str, int]] = {}
        hypothesis_lines: dict[bytes, tuple[str, int]] = {}
        names = None
        blocks = []
        for lo in range(0, len(self._kind), _SERIALIZE_BLOCK):
            hi = lo + _SERIALIZE_BLOCK
            lines = []
            for node, kind, at in zip(range(lo, hi), self._kind[lo:hi], self._label[lo:hi]):
                if kind == TERMINAL:
                    lines.append(f"{node} T {at}")
                    continue
                if kind == WORKING_ATTR:
                    made = attribute_lines.get(at)
                    if made is None:
                        name = base.attribute_names[at].replace("%", "%%")
                        values = base.value_sets[at]
                        made = attribute_lines[at] = (
                            f"%d W {name}" + "".join([f" [{name}={v}]:%d" for v in values]),
                            len(values),
                        )
                else:
                    key = raw[at * width : at * width + width]
                    made = hypothesis_lines.get(key)
                    if made is None:
                        if names is None:
                            names = [name.replace("%", "%%") for name in base.attribute_names]
                        made = hypothesis_lines[key] = (
                            _hypothesis_template(names, base.value_sets, self._hypothesis(at)),
                            1 + base.total_branches - base.n,
                        )
                line, count = made
                child = first[node]
                lines.append(line % (node, *range(child, child + count)))
            lines.append("")
            blocks.append("\n".join(lines))
        return "".join(blocks)

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
        self.nrows = array("q")
        self.hyp_codes = array(_code_typecode(table))
        self.pending: list[tuple[int, np.ndarray]] = []
        self._layout: _BranchLayout | None = None

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
        narrow, width = self.pending, 0
        starts = array("q", [0])  # the first id of each level, then the node count
        try:
            while narrow:
                width = len(narrow)
                if width >= _WIDE_FRONTIER:
                    wide = _join_frontier(narrow)
                    while width >= _WIDE_FRONTIER:
                        starts.append(len(self.kind))
                        wide = self._expand_level(*wide)
                        width = len(wide[0])
                    narrow = _split_frontier(*wide)
                    continue
                starts.append(len(self.kind))
                self.pending = []
                for node, node_rows in narrow:
                    self._expand(node, node_rows)
                narrow = self.pending
        except NodeBudgetExceeded as exc:  # name the level that ran out
            raise NodeBudgetExceeded(self.budget, exc.nodes, len(starts) - 2, width) from None
        starts.append(len(self.kind))
        return DecisionTree(
            table,
            self.tree_type,
            self.measure.name,
            self.kind,
            self.label,
            self.first,
            self.nrows,
            self.hyp_codes,
            starts,
        )

    def _append_terminal(self, decision: int, n_rows: int) -> None:
        self.kind.append(TERMINAL)
        self.label.append(decision)
        self.first.append(-1)
        self.nrows.append(n_rows)

    def _append_pending(self, rows: np.ndarray) -> int:
        node = len(self.kind)
        self.kind.append(_PENDING)
        self.label.append(-1)
        self.first.append(-1)
        self.nrows.append(len(rows))
        self.pending.append((node, rows))
        return node

    def _expand(self, node: int, rows: np.ndarray) -> None:
        """Expand one node of a narrow level; its pending children join ``pending``."""
        table = self.table
        stats = branch_stats(table, rows, self.measure)
        choice, _ = select_query_from_stats(table, stats, self.tree_type)

        if type(choice) is int:  # an attribute; else a hypothesis's value codes
            n_children = len(table.value_sets[choice])
            self.kind[node] = WORKING_ATTR
            self.label[node] = choice
            branches = [(choice, pos) for pos in range(n_children)]
            holds_row = None
        else:
            n_children = 1 + table.total_branches - table.n
            self.kind[node] = WORKING_HYP
            self.label[node] = len(self.hyp_codes) // table.n
            self.hyp_codes.extend(choice)
            branches = [
                (i, pos)
                for i, own in enumerate(choice)
                for pos in range(len(table.value_sets[i]))
                if pos != own
            ]
            # The base row equal to the hypothesis, or -1, which no subtable holds.
            holds_row = table._row_index.get(choice, -1)

        if len(self.kind) + n_children > self.budget:
            raise NodeBudgetExceeded(self.budget, len(self.kind))
        self.first[node] = len(self.kind)

        offsets = self.table.offsets
        dec_values = table.decision_values
        cols: dict[int, np.ndarray] = {}

        if holds_row is not None:
            at = int(np.searchsorted(rows, holds_row))
            if at < len(rows) and rows[at] == holds_row:
                self._append_terminal(int(table.decisions[holds_row]), 1)
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

    def _expand_level(self, nodes, rows, seg):
        """Expand a wide level in chunks; return the next level as (nodes, rows, seg).

        ``rows`` lists the subtable rows of every node, grouped by node in
        node order and ascending within a node; ``seg[j]`` is the position
        in ``nodes`` of the node ``rows[j]`` belongs to.  Each chunk holds
        whole nodes and at most ``_CHUNK_CELLS`` cells, one per (subtable
        row, attribute) and per (branch, decision) count, plus one per
        (attribute, 64-row word) when proper hypotheses are searched.
        """
        table = self.table
        if self._layout is None:
            self._layout = _BranchLayout(table, self.tree_type in (4, 5))
        sizes = np.bincount(seg, minlength=len(nodes))
        per_node = table.total_branches * max(table.n_decision_values, 1)
        if self.tree_type in (4, 5):
            per_node += table.n * self._layout.all_rows.size
        cost = np.cumsum(sizes * table.n + per_node)
        row_end = np.cumsum(sizes)
        out_nodes, out_rows, out_seg = [], [], []
        n_next = 0
        lo = 0
        while lo < len(nodes):
            spent = int(cost[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(cost, spent + _CHUNK_CELLS, "right")))
            r_lo = int(row_end[lo - 1]) if lo else 0
            r_hi = int(row_end[hi - 1])
            child_nodes, child_rows, child_seg = self._expand_chunk(
                nodes[lo:hi], rows[r_lo:r_hi], seg[r_lo:r_hi] - lo
            )
            out_nodes.append(child_nodes)
            out_rows.append(child_rows)
            out_seg.append(child_seg + n_next)
            n_next += len(child_nodes)
            lo = hi
        return np.concatenate(out_nodes), np.concatenate(out_rows), np.concatenate(out_seg)

    def _expand_chunk(self, nodes, rows, seg):
        """Expand whole nodes of a wide level; return their pending children likewise."""
        table = self.table
        lay = self._layout
        f = len(nodes)
        tb = table.total_branches
        d = max(table.n_decision_values, 1)

        # Branch statistics: one count per (node, branch, decision).
        keys = (seg[:, None] * tb + table.offset_codes[rows]) * d
        keys += table.dec_codes[rows][:, None]
        cont = np.bincount(keys.ravel(), minlength=f * tb * d).reshape(f * tb, d)
        u = self.measure.of_count_matrix(cont).reshape(f, tb)
        n_branch = cont.sum(axis=1).reshape(f, tb)
        pure = (cont.max(axis=1) == n_branch.ravel()).reshape(f, tb)
        majority = table.decision_values[cont.argmax(axis=1)].reshape(f, tb)
        del cont, keys

        use_hyp, attr, hcodes = self._select(u, n_branch)

        # Children on a (node x (1 + branches)) grid: column 0 is the
        # hypothesis-holds child, column 1 + g the child of branch g.  Its
        # flat nonzero order is the arena's child order.
        exists = np.empty((f, 1 + tb), dtype=bool)
        exists[:, 0] = use_hyp
        exists[:, 1:] = np.where(
            use_hyp[:, None],
            lay.branch_code != hcodes[:, lay.branch_attr],
            lay.branch_attr == attr[:, None],
        )
        n_children = np.count_nonzero(exists, axis=1)
        start = len(self.kind)
        ends = start + np.cumsum(n_children)
        if int(ends[-1]) > self.budget:
            k = int(np.argmax(ends > self.budget))
            raise NodeBudgetExceeded(self.budget, int(ends[k] - n_children[k]))

        # A node's row equal to its hypothesis is the holds child's one row.
        codes = table.codes[rows]
        differs = codes != hcodes[seg]
        holds_row = np.full(f, -1, dtype=np.int64)
        equal = use_hyp[seg] & ~differs.any(axis=1)
        holds_row[seg[equal]] = rows[equal]
        holds = holds_row >= 0

        kind = np.zeros((f, 1 + tb), dtype=np.int8)
        kind[:, 1:][~pure] = _PENDING  # an empty branch counts as pure
        label = np.where(n_branch == 0, 0, np.where(pure, majority, -1))
        label = np.concatenate(
            [np.where(holds, table.decisions[holds_row], 0)[:, None], label], axis=1
        )
        nrows = np.concatenate([holds[:, None].astype(np.int64), n_branch], axis=1)

        flat = exists.ravel()
        child_kind = kind.ravel()[flat]
        self._write_parents(nodes, use_hyp, attr, hcodes, ends - n_children)
        self.kind.frombytes(child_kind.tobytes())
        self.label.frombytes(label.ravel()[flat].astype(np.int64).tobytes())
        self.nrows.frombytes(nrows.ravel()[flat].astype(np.int64).tobytes())
        self.first.frombytes(np.full(len(child_kind), -1, np.int64).tobytes())

        # Rows go down as in ``DecisionTree.route_rows``: to the branch of
        # the chosen attribute, or to every branch where they differ from
        # the hypothesis.  Only pending children keep them.
        pending = flat & (kind.ravel() == _PENDING)
        child_ids = (start - 1 + np.cumsum(flat))[pending]
        rank = np.cumsum(pending) - 1
        go = np.where(use_hyp[seg, None], differs, lay.attr_index == attr[seg, None])
        at_row, at_attr = np.nonzero(go)
        cell = seg[at_row] * (1 + tb) + 1 + table.offset_codes[rows[at_row], at_attr]
        keep = pending[cell]
        next_seg = rank[cell[keep]]
        order = np.argsort(next_seg, kind="stable")
        return child_ids, rows[at_row[keep]][order], next_seg[order]

    def _select(self, u, n_branch):
        """Per node: whether a hypothesis is asked, the attribute, the hypothesis codes.

        The same choices as ``select_query_from_stats``, over a padded
        (node x attribute x value) view of the branch statistics.
        """
        lay = self._layout
        f = len(u)
        tree_type = self.tree_type
        up = np.concatenate([u, np.full((f, 1), -1.0)], axis=1)[:, lay.pad]
        seen = np.concatenate([n_branch, np.zeros((f, 1), np.int64)], axis=1)[:, lay.pad] > 0
        max1 = up.max(axis=2)
        n_seen = np.count_nonzero(seen, axis=2)
        attr = np.zeros(f, dtype=np.int64)
        if tree_type in (1, 3, 5):
            attr_imp = np.where(n_seen >= 2, max1, np.inf)
            attr = attr_imp.argmin(axis=1)
            attr_imp = attr_imp[np.arange(f), attr]
            if tree_type == 1:
                return np.zeros(f, dtype=bool), attr, np.zeros((f, self.table.n), np.int64)
        best_pos = up.argmax(axis=2)
        # A single-valued attribute's second value is the pad, -1, where the
        # per-node summary has 0.0; either stays below the largest second
        # value, since an expanded node always has a two-valued attribute.
        max2 = np.sort(up, axis=2)[:, :, -2]
        pinned = n_seen == 1
        const_pos = seen.argmax(axis=2)
        if tree_type in (2, 3):
            hyp_imp = max2.max(axis=1)
            hcodes = np.where(
                max1 > hyp_imp[:, None], best_pos, np.where(pinned, const_pos, 0)
            )
        else:
            hyp_imp, hcodes = self._best_proper(max1, max2, best_pos, pinned, const_pos)
        if tree_type in (2, 4):
            return np.ones(f, dtype=bool), attr, hcodes
        return attr_imp > hyp_imp, attr, hcodes  # equal impurity goes to the attribute

    def _best_proper(self, max1, max2, best_pos, pinned, const_pos):
        """Each node's first base row of least impurity, as in ``_best_proper_from``.

        A row's impurity is ``max(M2, max1[i] over the attributes i whose
        argmax value it misses)``, with ``M2`` the largest ``max2``, and it
        is infinite off a constant attribute's pinned value.  So for any
        ``v >= M2`` the rows of impurity at most ``v`` are those on the
        argmax value of every attribute with ``max1 > v`` and on every pin:
        with the attributes sorted by ``max1`` descending, one cumulative
        AND of packed row bitsets gives that set for every prefix.  A prefix
        of length ``k`` is a threshold when it ends the ``K`` attributes
        above ``M2`` (``v = M2``) or ends a run of equal ``max1`` (``v`` the
        next one's ``max1``); the longest threshold with a nonempty set has
        the least ``v``, which is the least impurity, and its rows are the
        rows of that impurity.  Row ``r`` is bit ``r % 64`` of word
        ``r // 64``, so the lowest set bit is the earliest such row.
        """
        lay = self._layout
        f, n = max1.shape
        order = np.argsort(-max1, axis=1, kind="stable")
        ranked = np.take_along_axis(max1, order, axis=1)
        m2 = max2.max(axis=1)
        # feasible[:, k] holds the rows of prefix k: the pins, then one more
        # argmax value per step.
        feasible = np.empty((f, n + 1, lay.all_rows.size), dtype=np.uint64)
        pins = np.where(
            pinned[:, :, None], lay.row_bits[lay.attr_index, const_pos], lay.all_rows
        )
        np.bitwise_and.reduce(pins, axis=1, out=feasible[:, 0])
        feasible[:, 1:] = lay.row_bits[order, np.take_along_axis(best_pos, order, axis=1)]
        np.bitwise_and.accumulate(feasible, axis=1, out=feasible)
        above = np.count_nonzero(max1 > m2[:, None], axis=1)
        valid = np.ones((f, n + 1), dtype=bool)
        valid[:, 1:n] = ranked[:, :-1] > ranked[:, 1:]  # ties are never split
        valid &= np.arange(n + 1) <= above[:, None]
        valid[np.arange(f), above] = True
        valid &= feasible.any(axis=2)
        if not valid[:, 0].all():
            raise ConstraintError("no admissible proper hypothesis")
        best = n - valid[:, ::-1].argmax(axis=1)
        value = np.where(best < above, ranked[np.arange(f), np.minimum(best, n - 1)], m2)
        rows = feasible[np.arange(f), best]
        word = (rows != 0).argmax(axis=1)
        low = rows[np.arange(f), word]
        # The lowest set bit alone, as a float, is 2**bit = 0.5 * 2**(bit + 1).
        bit = np.frexp((low & (~low + np.uint64(1))).astype(np.float64))[1] - 1
        return value, self.table.codes[64 * word + bit]

    def _write_parents(self, nodes, use_hyp, attr, hcodes, first) -> None:
        table = self.table
        hyp_at = np.flatnonzero(use_hyp)
        label = attr.copy()
        label[hyp_at] = len(self.hyp_codes) // table.n + np.arange(len(hyp_at))
        chosen = hcodes[hyp_at]
        self.hyp_codes.frombytes(chosen.astype(self.hyp_codes.typecode).tobytes())
        for arena, values in (
            (self.kind, np.where(use_hyp, WORKING_HYP, WORKING_ATTR)),
            (self.label, label),
            (self.first, first),
        ):
            view = np.frombuffer(arena, dtype=arena.typecode)
            view[nodes] = values
            del view  # an array cannot grow while a view of it is alive


class _BranchLayout:
    """Where each (attribute, value) branch sits, for the level-batched path.

    ``pad`` gathers the branches into a (attribute x value) grid padded with
    index ``total_branches`` (a sentinel column callers append).  With
    ``proper`` (types 4 and 5), ``row_bits[i, c]`` holds the rows whose
    attribute ``i`` has code ``c`` and ``all_rows`` every row, packed 64
    rows to a ``uint64`` word: row ``r`` is bit ``r % 64`` of word ``r // 64``.
    """

    def __init__(self, table: DecisionTable, proper: bool):
        sizes = np.diff(table.offsets)
        width = int(sizes.max())
        code = np.arange(width)
        self.attr_index = np.arange(table.n)
        self.branch_attr = np.repeat(self.attr_index, sizes)
        self.branch_code = np.arange(table.total_branches) - table.offsets[self.branch_attr]
        self.pad = np.where(
            code < sizes[:, None], table.offsets[:-1, None] + code, table.total_branches
        )
        if proper:
            self.row_bits = _pack_rows(table.codes.T[:, None, :] == code[:, None])
            self.all_rows = _pack_rows(np.ones(table.n_rows, dtype=bool))


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Boolean rows along the last axis as ``uint64`` words, row ``r`` at bit ``r % 64``."""
    n_words = -(-bits.shape[-1] // 64)
    packed = np.zeros(bits.shape[:-1] + (8 * n_words,), dtype=np.uint8)
    packed[..., : -(-bits.shape[-1] // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _join_frontier(narrow):
    """Per-node (node, rows) pairs as one (nodes, rows, seg) level."""
    nodes = np.array([node for node, _ in narrow], dtype=np.int64)
    sizes = [len(rows) for _, rows in narrow]
    rows = np.concatenate([rows for _, rows in narrow])
    return nodes, rows, np.repeat(np.arange(len(narrow)), sizes)


def _split_frontier(nodes, rows, seg):
    """A (nodes, rows, seg) level as per-node (node, rows) pairs."""
    ends = np.cumsum(np.bincount(seg, minlength=len(nodes)))[:-1]
    return list(zip(nodes.tolist(), np.split(rows, ends)))


def build_tree(
    table: DecisionTable,
    tree_type: int,
    measure: UncertaintyMeasure | str,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DecisionTree:
    """Build the greedy tree of the given type under the given measure.

    The tree grows one breadth-first level at a time: wide levels in chunked
    NumPy passes over all their nodes, narrow ones node by node (see the
    module docstring); the result does not depend on which.  Raises
    ConstraintError for an empty table or invalid type, and
    NodeBudgetExceeded, naming the level and its width, when the arena would
    outgrow ``node_budget`` nodes.
    """
    if isinstance(measure, str):
        measure = get_measure(measure)
    tree_type = int(tree_type)
    if tree_type not in (1, 2, 3, 4, 5):
        raise ConstraintError(f"tree type must be 1..5, got {tree_type}")
    if table.n_rows == 0:
        raise ConstraintError("cannot build a tree for an empty table")
    return _Builder(table, tree_type, measure, node_budget).run()
