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

The build changes form at most once.  Until a level has ``_WIDE_FRONTIER``
nodes to expand, each node is expanded alone (``_Builder._expand``) in a
handful of NumPy calls: ``queries.branch_stats`` counts the node's rows with
one ``bincount`` of their ``DecisionTable.branch_keys`` and hands back plain
lists, which ``select_query_from_stats`` scans for the query.  The
children's kind, label and row count are then gathered in lists, each arena
column is extended once, and the rows of the children still to expand are
cut from one ``take`` of the node's rows of codes.  A root whose table has
one decision value is a terminal at once.

The first level that wide and every level below it, however narrow, are
batched (``_Builder._expand_level``): a few NumPy passes over all the
level's nodes.  One ``bincount`` of the rows' branch keys, each offset by
its node, gives every node's (branch, decision) counts, the query choice
reads a padded (node x attribute x value) view of the branch uncertainties,
and the children are laid out on a (node x answer) grid whose nonzero order
is the arena's child order.  Proper hypotheses (types 4 and 5) are found
both ways by the threshold search of the ``queries`` module docstring, on
per-(attribute, value) row bitsets made once per build: Python ints, row
``r`` at bit ``r``, for a node expanded alone (``queries._row_bitsets``,
held by the builder), and packed ``uint64`` words, 64 rows to a word, for a
batched level (``_BranchLayout``), where one cumulative AND over the sorted
attributes serves every node of a chunk (``_Builder._best_proper``).  The
level is split into chunks of whole nodes holding at most ``_CHUNK_CELLS``
cells (a proper search holds one per attribute and word of rows, not per
base row), so its temporaries stay small however wide it is.  Both ways
build the same tree.  The node budget is checked before any child of a node
is allocated: per node alone, once per chunk of a batched level, with the
same count of allocated nodes in the error either way.

A hypothesis is stored once, as its row of value codes (positions in the
base table's ``value_sets``) in one flat array; a hypothesis node's label is
its row number there.  Both ways of expanding a level choose a hypothesis as
codes and store those codes as they are.  Values are read back from the codes
only where a caller sees them: ``DecisionTree.query`` and ``serialize``.

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
starts of the tree and on the base table's codes.  The table's size picks
one form for the whole pass.  A table of fewer than ``_WIDE_ROUTING`` rows
is routed in plain Python, one row at a time: a stack walk over the arena's
``array`` columns and the row's code tuple, which touches NumPy only to
return its arrays, since on so few rows the NumPy passes' fixed cost of
about ten calls a level would dominate.  A larger table is routed one level
at a time, from the root down, in a few NumPy passes over all of the
level's (row, node) occurrences.  Both ways give the same ``Routing`` up to
the order of its terminal occurrences.

The same table-size test (``DecisionTree._in_python``) picks the form of
every pass over a tree's routing, not only of the routing itself.  Below
``_WIDE_ROUTING`` rows, ``rules``' per-row optima, ``metrics.validate``'s
verdict on a clean tree and ``metrics.realizable_count`` loop over the
arena's ``array`` columns and the routing's ``tolist()`` lists, and make no
NumPy view of the arena; from there up they reduce NumPy arrays.  The depth
is read off the ``array`` of level starts for every size.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

import numpy as np

from .table import ConstraintError, DecisionTable, _is_integer
# perfbench's traced runs time the builder's narrow nodes by replacing
# ``builder.branch_stats``, ``builder.select_query_from_stats`` and
# ``UncertaintyMeasure.of_count_matrix``, so those calls go through these names.
from .queries import (
    AttributeQuery,
    Hypothesis,
    HypothesisQuery,
    Query,
    _check_tree_type,
    _row_bitsets,
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

# Tables of at least this many rows route in NumPy, smaller ones in plain
# Python (``DecisionTree.route_rows``), and the readers of a tree's routing
# take the same form (``DecisionTree._in_python``).  Set from the crossover
# of ``scripts/crossover.py``, which times the routing pass together with
# ``rules._row_optima`` and ``validate`` over it (t1-t5 trees of random
# tables of 4-63 rows and of the Boolean suites n=3..6): in three runs the
# least total fell at 12 rows, 0.1 % or less below 13, as NumPy took 9-15 %
# less time than plain Python on the 12-row tables.
_WIDE_ROUTING = 12

# The first level with at least this many nodes to expand, and every level
# below it, is built in NumPy passes over the whole level; the levels above
# it node by node, which costs less for a handful of nodes.  On the inputs of
# ``scripts/crossover.py``, over six runs, every level node by node took
# 3.4-4.6 times as long as the build as shipped (random tables) and 2.3-2.8
# times (Boolean suites), every level batched 1.1-1.2 and 1.3-1.9 times.
_WIDE_FRONTIER = 8

# Most cells one chunk of a batched level holds at once (see
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
    starts are exposed for the metrics, each made on the first read of its
    own column and following later writes to it; the per-node
    accessors materialize query objects on demand.  Node 0 is the
    root.  ``path_row_counts[i]`` is the number of base-table rows matching
    the equations on the path to node ``i``.  A working node's child count
    comes from its query (see the module docstring); ``children`` and
    ``serialize`` work it out when called.  ``level_starts`` holds the
    first id of each level, the root's first, then ``node_count``, so the
    tree has ``len(level_starts) - 2`` levels below the root.  Hypotheses
    are kept only as value codes, one row of ``base.n`` codes each, which
    the routing pass reads as they are; a hypothesis node's label is its
    row.  ``query`` and ``serialize`` turn the codes into values through
    ``base.value_sets``.  A node's edges are its query's answers
    (``queries.answers``) in order over ``children``.  ``route_rows``
    computes the tree's ``Routing`` on its first call and keeps it,
    read-only, for every later one.  It reads neither the terminals' labels
    nor the recorded row counts, so checks of those against it see their
    current values.
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
        self._views: dict[str, np.ndarray] = {}
        self._routing: Routing | None = None

    @property
    def node_count(self) -> int:
        return len(self._kind)

    def _view(self, column: str, dtype) -> np.ndarray:
        # Made on the column's first read; it follows later writes to the column's elements.
        view = self._views.get(column)
        if view is None:
            view = self._views[column] = self._as_np(getattr(self, column), dtype)
        return view

    @property
    def kinds(self) -> np.ndarray:
        return self._view("_kind", np.int8)

    @property
    def labels(self) -> np.ndarray:
        """Decision of each terminal; attribute or hypothesis index of each query."""
        return self._view("_label", np.int64)

    @property
    def path_row_counts(self) -> np.ndarray:
        return self._view("_nrows", np.int64)

    @property
    def first_children(self) -> np.ndarray:
        return self._view("_first", np.int64)

    @property
    def level_starts(self) -> np.ndarray:
        return self._view("_starts", np.int64)

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

    def _in_python(self) -> bool:
        """Whether the passes over this tree's routing run in plain Python.

        The one table-size test of the module docstring: fewer than
        ``_WIDE_ROUTING`` base-table rows, read at call time.
        """
        return self.base.n_rows < _WIDE_ROUTING

    def route_rows(self) -> Routing:
        """Route every base-table row along all of its truthful paths.

        The pass runs once per tree: its ``Routing`` is kept and returned by
        every later call, with its three arrays read-only, since callers
        share them.  It depends only on parts of the tree that do not change
        after the build: the kinds, the first children, the working nodes'
        labels, the hypothesis codes, the level starts and the base table's
        codes.

        Each (row, node) occurrence must lie in the id range of the level
        its path from the root reaches, and every node it reaches is
        counted; an occurrence outside that range, including one still
        moving below the deepest level, raises ``ValueError``.  At an
        attribute node a row takes the child of its value.  At a hypothesis
        node a row equal to the hypothesis takes the holds child; any other
        row takes one counterexample child per attribute where it differs
        from the hypothesis.  Counterexample children follow the holds child
        in (attribute, value) order without the hypothesis's own value, so
        the child of attribute ``i`` with value code ``c`` sits at
        ``first + 1 + offsets[i] - i + c - (c > hypothesis code)``.

        One form serves the whole tree, picked by the table's size
        (``_in_python``; ``_WIDE_ROUTING`` records the measured crossover),
        and the readers of the routing take the same form.  A table of
        fewer than ``_WIDE_ROUTING`` rows is routed in plain Python, one row
        at a time, by a stack walk of (node, level) pairs over the row's
        codes.  A larger table is routed by ``_route_wide``, one level at a
        time in a few NumPy passes.
        """
        if self._routing is None:
            routing = self._route()
            for part in routing:
                part.flags.writeable = False
            self._routing = routing
        return self._routing

    def _route(self) -> Routing:
        """The routing pass itself, as ``route_rows`` describes it."""
        if not self._in_python():
            return self._route_wide()
        base = self.base
        kind, label, first, hyp_codes = self._kind, self._label, self._first, self._hyp_codes
        n = base.n
        # Each level's id range, and past the deepest an empty one.
        bounds = self._starts.tolist() + [len(kind)]
        skip, offset = [], 1  # each attribute's ``1 + offsets[i] - i``
        for i, values in enumerate(base.value_sets):
            skip.append(offset - i)
            offset += len(values)
        node_rows = [0] * len(kind)
        ends_rows: list[int] = []
        ends_nodes: list[int] = []
        for r, codes in enumerate(base._row_index):  # each row's codes, in row order
            stack = [(0, 0)]  # (node, level)
            while stack:
                v, d = stack.pop()
                if not bounds[d] <= v < bounds[d + 1]:
                    raise ValueError(
                        f"node {v} reached outside its level's ids [{bounds[d]}, {bounds[d + 1]})"
                    )
                node_rows[v] += 1
                k = kind[v]
                if k == TERMINAL:
                    ends_rows.append(r)
                    ends_nodes.append(v)
                    continue
                f = first[v]
                d += 1
                if k == WORKING_ATTR:
                    stack.append((f + codes[label[v]], d))
                    continue
                at = label[v] * n
                holds = True
                for c, h, s in zip(codes, hyp_codes[at : at + n], skip):
                    if c != h:
                        stack.append((f + s + c - (c > h), d))
                        holds = False
                if holds:
                    stack.append((f, d))
        return Routing(
            np.array(node_rows, dtype=np.int64),
            np.array(ends_rows, dtype=np.int64),
            np.array(ends_nodes, dtype=np.int64),
        )

    def _route_wide(self) -> Routing:
        """The routing pass in NumPy, for a table of at least ``_WIDE_ROUTING`` rows.

        Every level, from the root down, moves its (row, node) occurrences
        as two int64 arrays.  Hypothesis nodes' occurrences are expanded in
        chunks of at most ``_ROUTE_CHUNK_CELLS`` (row, attribute) cells,
        comparing codes in the narrow dtype the hypotheses are stored in.
        """
        kinds, label, first = self.kinds, self.labels, self.first_children
        base = self.base
        codes = base.codes
        starts = self._starts.tolist()
        rows = np.arange(base.n_rows)
        nodes = np.zeros(base.n_rows, dtype=np.int64)
        node_rows = np.zeros(len(kinds), dtype=np.int64)
        ends_rows: list[np.ndarray] = []
        ends_nodes: list[np.ndarray] = []
        if len(self._hyp_codes):  # codes and hypotheses in one narrow dtype
            typecode = self._hyp_codes.typecode
            narrow = codes.astype(typecode)
            hypotheses = self._as_np(self._hyp_codes, typecode).reshape(-1, base.n)
            skip = 1 + base.offsets[:-1] - np.arange(base.n)
            chunk = max(1, _ROUTE_CHUNK_CELLS // base.n)
        for lo, hi in zip(starts, starts[1:]):
            try:
                node_rows[lo:hi] = np.bincount(nodes - lo, minlength=hi - lo)
            except ValueError:  # from bincount below ``lo``, from the assignment past ``hi``
                outside = nodes[(nodes < lo) | (nodes >= hi)]
                raise ValueError(
                    f"node {outside[0]} reached outside its level's ids [{lo}, {hi})"
                ) from None
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
                hyp_rows, hyp_nodes = _of_kind(kind, WORKING_HYP, n_hyp, rows, nodes)
                for at in range(0, n_hyp, chunk):
                    r, v = hyp_rows[at : at + chunk], hyp_nodes[at : at + chunk]
                    f = first.take(v)
                    c = narrow.take(r, axis=0)
                    h = hypotheses.take(label.take(v), axis=0)
                    differs = c != h
                    n_differ = np.add.reduce(differs, axis=1)
                    child = f[:, None] + skip + c - (c > h)
                    next_rows.append(r.repeat(n_differ))
                    next_nodes.append(child[differs])
                    if np.count_nonzero(n_differ) < len(r):
                        holds = n_differ == 0
                        next_rows.append(r[holds])
                        next_nodes.append(f[holds])
            # Free this level, and its last chunk's temporaries, before joining the next.
            rows = nodes = kind = r = v = hyp_rows = hyp_nodes = None
            f = c = h = differs = n_differ = child = holds = None
            if len(next_rows) == 1:
                rows, nodes = next_rows[0], next_nodes[0]
            else:
                rows, nodes = np.concatenate(next_rows), np.concatenate(next_nodes)
        else:  # occurrences still moving below the deepest level
            raise ValueError(f"node {nodes[0]} reached outside its level's ids [{hi}, {hi})")

        if len(ends_nodes) == 1:
            return Routing(node_rows, ends_rows[0], ends_nodes[0])
        return Routing(node_rows, np.concatenate(ends_rows), np.concatenate(ends_nodes))

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
        self.offsets = table.offsets.tolist()
        self.decision_values = table.decision_values.tolist()
        self._layout: _BranchLayout | None = None
        self._row_bits: list[list[int]] | None = None

    def run(self) -> DecisionTree:
        table = self.table
        if self.budget < 1:
            raise NodeBudgetExceeded(self.budget, 0)
        if len(self.decision_values) == 1:  # a degenerate root is the whole tree
            root, level = (TERMINAL, self.decision_values[0]), []
        else:
            root, level = (_PENDING, -1), [(0, np.arange(table.n_rows, dtype=np.int64))]
            if self.tree_type in (4, 5):  # the root is expanded alone
                self._row_bits = _row_bitsets(table)
        self.kind.append(root[0])
        self.label.append(root[1])
        self.first.append(-1)
        self.nrows.append(table.n_rows)
        width = 0
        starts = array("q", [0])  # the first id of each level, then the node count
        try:
            # Node by node while the levels are narrow: (node, rows) per node.
            while 0 < len(level) < _WIDE_FRONTIER:
                width = len(level)
                starts.append(len(self.kind))
                pending: list[tuple[int, np.ndarray]] = []
                for node, node_rows in level:
                    self._expand(node, node_rows, pending)
                level = pending
            if level:  # this level and every one below it are batched
                nodes = np.array([node for node, _ in level], dtype=np.int64)
                rows = np.concatenate([r for _, r in level])
                seg = np.repeat(np.arange(len(level)), [len(r) for _, r in level])
                while len(nodes):
                    width = len(nodes)
                    starts.append(len(self.kind))
                    nodes, rows, seg = self._expand_level(nodes, rows, seg)
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

    def _expand(self, node: int, rows: np.ndarray, pending: list) -> None:
        """Expand one node alone; its pending children join ``pending``."""
        table = self.table
        stats = branch_stats(table, rows, self.measure)
        choice, _ = select_query_from_stats(table, stats, self.tree_type, self._row_bits)
        offsets = self.offsets

        # Children's (attribute, global branch) in child order, after any holds child.
        if type(choice) is int:  # an attribute; else a hypothesis's value codes
            self.kind[node] = WORKING_ATTR
            self.label[node] = choice
            branches = [(choice, g) for g in range(offsets[choice], offsets[choice + 1])]
            n_children = len(branches)
        else:
            self.kind[node] = WORKING_HYP
            self.label[node] = len(self.hyp_codes) // table.n
            self.hyp_codes.extend(choice)
            branches = [
                (i, g)
                for i, (lo, hi, own) in enumerate(zip(offsets, offsets[1:], choice))
                for g in range(lo, hi)
                if g != lo + own
            ]
            n_children = 1 + len(branches)

        start = len(self.kind)
        if start + n_children > self.budget:
            raise NodeBudgetExceeded(self.budget, start)
        self.first[node] = start

        kind, label, nrows = [], [], []
        if type(choice) is not int:
            # The holds child has the base row equal to the hypothesis, if the subtable does.
            row = table._row_index.get(choice, -1)
            at = rows.searchsorted(row) if row >= 0 else len(rows)
            held = at < len(rows) and rows[at] == row
            kind.append(TERMINAL)
            label.append(int(table.decisions[row]) if held else 0)
            nrows.append(1 if held else 0)
        split = []
        n, mx, am = stats.n, stats.mx, stats.am
        for i, g in branches:
            count = n[g]
            nrows.append(count)
            if mx[g] == count:  # empty, or every row shares one decision
                kind.append(TERMINAL)
                label.append(self.decision_values[am[g]] if count else 0)
            else:
                split.append((len(kind), i, g - offsets[i]))
                kind.append(_PENDING)
                label.append(-1)

        self.kind.extend(kind)
        self.label.extend(label)
        self.first.extend([-1] * n_children)
        self.nrows.extend(nrows)
        if split:
            codes = table.codes.take(rows, axis=0)
            for at, i, code in split:
                pending.append((start + at, rows[codes[:, i] == code]))

    def _expand_level(self, nodes, rows, seg):
        """Expand a batched level in chunks; return the next level as (nodes, rows, seg).

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
        """Expand whole nodes of a batched level; return their pending children likewise."""
        table = self.table
        lay = self._layout
        f = len(nodes)
        tb = table.total_branches
        d = max(table.n_decision_values, 1)

        # Branch statistics: one count per (node, branch, decision); a key
        # over d is its row's (node, branch) position, ``seg * tb + branch``.
        keys = table.branch_keys[rows] + (seg * (tb * d))[:, None]
        cont = np.bincount(keys.ravel(), minlength=f * tb * d).reshape(f * tb, d)
        u = self.measure.of_count_matrix(cont).reshape(f, tb)
        n_branch = cont.sum(axis=1).reshape(f, tb)
        pure = (cont.max(axis=1) == n_branch.ravel()).reshape(f, tb)
        majority = table.decision_values[cont.argmax(axis=1)].reshape(f, tb)
        del cont

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
        cell = keys[at_row, at_attr] // d + seg[at_row] + 1
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
        """Each node's first base row of least impurity and that impurity.

        The threshold search of the ``queries`` module docstring, on packed
        words for every node of the chunk at once: ``feasible[:, k]`` holds
        the rows on the pins and the first ``k`` sorted argmax values, made
        by one cumulative AND.  Row ``r`` is bit ``r % 64`` of word
        ``r // 64``, so the lowest set bit of the first nonzero word is the
        earliest row.
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


def build_tree(
    table: DecisionTable,
    tree_type: int,
    measure: UncertaintyMeasure | str,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DecisionTree:
    """Build the greedy tree of the given type under the given measure.

    The tree grows one breadth-first level at a time: node by node until a
    level has ``_WIDE_FRONTIER`` nodes to expand, then that level and every
    one below it in chunked NumPy passes over all their nodes (see the
    module docstring); the result does not depend on where the build turns.
    Raises
    ConstraintError for an empty table, a tree type that is not an integer
    1..5 or a node budget that is not an integer (bools are neither), and
    NodeBudgetExceeded, naming the level and its width, when the arena would
    outgrow ``node_budget`` nodes.
    """
    if isinstance(measure, str):
        measure = get_measure(measure)
    _check_tree_type(tree_type)
    if not _is_integer(node_budget):
        raise ConstraintError(f"node budget must be an integer, got {node_budget!r}")
    if table.n_rows == 0:
        raise ConstraintError("cannot build a tree for an empty table")
    return _Builder(table, int(tree_type), measure, int(node_budget)).run()
