"""Independent output checker for serialized hypothesis trees.

The checker imports nothing from ``hypotree``.  It reads only the documented
text form of a tree (README, "Tree text format") and the raw values and
decisions of the table, routes every row down the tree by itself, and
recomputes from their definitions (README "Concepts" and "Metrics"):

* ``h``: edges on the longest root-terminal path;
* ``L``: nodes that some row reaches by truthful answers, which are exactly
  the nodes whose path subtable is nonempty;
* per row, ``l``: the shortest premise (union of the path's equations) and
  ``c``: the widest coverage, over the rules whose premise the row satisfies;
* that every truthful path of every row ends at a terminal carrying the
  row's decision, that unreached terminals carry 0, and that every working
  node has a nondegenerate subtable.

At a sample of internal nodes it also checks greedy optimality: the chosen
query's impurity equals the minimum over an exhaustive search of the queries
the tree type admits (the paper's admissibility: an attribute must not be
constant on the subtable; a hypothesis must agree with every attribute that
is).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

TERMINAL, ATTRIBUTE, HYPOTHESIS = 0, 1, 2
_TOLERANCE = 1e-9


class TreeFormatError(ValueError):
    """The text does not follow the documented tree format."""


def uncertainty(measure: str, counts) -> float:
    """Uncertainty of a subtable from its per-decision row counts."""
    counts = [c for c in counts if c]
    n = sum(counts)
    if n == 0:
        return 0.0
    if measure == "me":
        return float(n - max(counts))
    if measure == "rme":
        return (n - max(counts)) / n
    if measure == "ent":
        return -sum(c / n * math.log2(c / n) for c in counts)
    if measure == "gini":
        return 1.0 - sum((c / n) ** 2 for c in counts)
    if measure == "r":
        return float((n * n - sum(c * c for c in counts)) // 2)
    raise ValueError(f"unknown measure {measure!r}")


class Table:
    """Raw rows and decisions, with each attribute's sorted value set."""

    def __init__(self, names, values, decisions):
        self.names = tuple(names)
        self.n = len(self.names)
        self.rows = [tuple(int(v) for v in row) for row in values]
        self.decisions = [int(d) for d in decisions]
        self.value_sets = [
            sorted({row[i] for row in self.rows}) for i in range(self.n)
        ]
        self.row_set = set(self.rows)


@dataclass
class Tree:
    """A parsed tree: per node its kind, label or query, and edges.

    ``label`` holds the decision of a terminal, the attribute of an
    attribute node and the hypothesis tuple of a hypothesis node.  ``edges``
    lists ``(child, attribute, value)`` in text order, with attribute
    ``None`` for the hypothesis-holds edge.
    """

    kind: list[int]
    label: list
    edges: list[list[tuple[int, int | None, object]]]


def _parse_hypothesis(text: str, index: dict[str, int]) -> tuple[int, ...]:
    if not (text.startswith("H[") and text.endswith("]")):
        raise TreeFormatError(f"bad hypothesis {text!r}")
    values: dict[int, int] = {}
    for item in text[2:-1].split(","):
        attr, value = _parse_equation(item, index)
        if attr in values:
            raise TreeFormatError(f"hypothesis {text!r} repeats an attribute")
        values[attr] = value
    if sorted(values) != list(range(len(index))):
        raise TreeFormatError(f"hypothesis {text!r} must name every attribute once")
    return tuple(values[i] for i in range(len(index)))


def _parse_equation(text: str, index: dict[str, int]) -> tuple[int, int]:
    name, sep, value = text.partition("=")
    if not sep or name not in index:
        raise TreeFormatError(f"bad equation {text!r}")
    try:
        return index[name], int(value)
    except ValueError:
        raise TreeFormatError(f"bad value in equation {text!r}") from None


def parse_tree(text: str, names) -> Tree:
    """Parse the one-node-per-line text form; raises TreeFormatError."""
    index = {name: i for i, name in enumerate(names)}
    if not text.endswith("\n"):
        raise TreeFormatError("text must end with a newline")
    # Edge and query texts repeat across nodes; parse each distinct one once.
    parsed: dict[str, tuple] = {}

    def term(inner: str) -> tuple:
        got = parsed.get(inner)
        if got is None:
            if inner.startswith("H["):
                got = (None, _parse_hypothesis(inner, index))
            else:
                got = _parse_equation(inner, index)
            parsed[inner] = got
        return got

    kind: list[int] = []
    label: list = []
    edges: list = []
    for expected, line in enumerate(text[:-1].split("\n")):
        parts = line.split(" ")
        if len(parts) < 3 or parts[0] != str(expected):
            raise TreeFormatError(f"line {expected + 1}: expected node id {expected}")
        if parts[1] == "T":
            if len(parts) != 3:
                raise TreeFormatError(f"node {expected}: bad terminal line")
            try:
                label.append(int(parts[2]))
            except ValueError:
                raise TreeFormatError(f"node {expected}: bad decision") from None
            kind.append(TERMINAL)
            edges.append(())
            continue
        if parts[1] != "W":
            raise TreeFormatError(f"node {expected}: unknown node kind {parts[1]!r}")
        query = parts[2]
        if query.startswith("H["):
            kind.append(HYPOTHESIS)
            label.append(term(query)[1])
        elif query in index:
            kind.append(ATTRIBUTE)
            label.append(index[query])
        else:
            raise TreeFormatError(f"node {expected}: unknown query {query!r}")
        node_edges = []
        for token in parts[3:]:
            body, sep, child = token.rpartition(":")
            if not sep or not (body.startswith("[") and body.endswith("]")):
                raise TreeFormatError(f"node {expected}: bad edge {token!r}")
            try:
                child_id = int(child)
            except ValueError:
                raise TreeFormatError(f"node {expected}: bad child in {token!r}") from None
            node_edges.append((child_id, *term(body[1:-1])))
        edges.append(node_edges)
    return Tree(kind, label, edges)


@dataclass
class CheckResult:
    """What the checker recomputed, plus every violation it found."""

    h: int = -1
    realizable: int = -1
    row_lengths: list[int] = field(default_factory=list)
    row_coverages: list[int] = field(default_factory=list)
    working_nodes: int = 0
    empty_terminals: int = 0
    greedy_nodes_checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_structure(tree: Tree, table: Table, out: CheckResult) -> list[int] | None:
    """Edge sets, child layout and tree shape; returns node depths if sound."""
    n_nodes = len(tree.kind)
    parent = [-1] * n_nodes
    bad = out.violations
    for node, node_edges in enumerate(tree.edges):
        k = tree.kind[node]
        if k == TERMINAL:
            continue
        if k == ATTRIBUTE:
            attr = tree.label[node]
            got = sorted((a, v) for _, a, v in node_edges if a is not None)
            want = [(attr, v) for v in table.value_sets[attr]]
            if len(got) != len(node_edges) or got != want:
                bad.append(f"node {node}: edges do not answer attribute {attr} exactly")
        else:
            hyp = tree.label[node]
            if any(v not in table.value_sets[i] for i, v in enumerate(hyp)):
                bad.append(f"node {node}: hypothesis value outside the table's value sets")
            if not node_edges or node_edges[0][1] is not None or node_edges[0][2] != hyp:
                bad.append(f"node {node}: first edge must be the hypothesis itself")
            got = sorted((a, v) for _, a, v in node_edges[1:] if a is not None)
            want = [
                (i, v)
                for i, vs in enumerate(table.value_sets)
                for v in vs
                if v != hyp[i]
            ]
            if len(got) != len(node_edges) - 1 or got != want:
                bad.append(f"node {node}: counterexample edges are not exactly complete")
        if not node_edges:
            bad.append(f"node {node}: working node without edges")
            continue
        children = sorted(c for c, _, _ in node_edges)
        if children != list(range(children[0], children[0] + len(children))):
            bad.append(f"node {node}: children do not have consecutive ids")
        for child in children:
            if not 0 < child < n_nodes:
                bad.append(f"node {node}: child id {child} out of range")
            elif parent[child] >= 0:
                bad.append(f"node {child}: has two parents")
            else:
                parent[child] = node
    if bad:
        return None
    depths = [-1] * n_nodes
    depths[0] = 0
    stack = [0]
    while stack:
        node = stack.pop()
        for child, _, _ in tree.edges[node]:
            depths[child] = depths[node] + 1
            stack.append(child)
    if -1 in depths:
        bad.append("some nodes are not reachable from the root")
        return None
    return depths


def check_tree(
    text: str,
    table: Table,
    tree_type: int,
    measure: str,
    *,
    greedy_nodes: int = 0,
    rng=None,
) -> CheckResult:
    """Recompute h, L, l and c for a serialized tree and collect violations.

    ``greedy_nodes`` internal nodes, drawn with ``rng.sample``, get the
    exhaustive greedy-optimality check; pass a negative count to check all.
    """
    out = CheckResult()
    try:
        tree = parse_tree(text, table.names)
    except TreeFormatError as exc:
        out.violations.append(f"format: {exc}")
        return out
    n_nodes = len(tree.kind)
    working = [v for v in range(n_nodes) if tree.kind[v] != TERMINAL]
    out.working_nodes = len(working)
    depths = _check_structure(tree, table, out)
    if depths is None:
        return out
    out.h = max(depths[v] for v in range(n_nodes) if tree.kind[v] == TERMINAL)

    if greedy_nodes < 0 or greedy_nodes >= len(working):
        sampled = set(working)
    else:
        sampled = set(rng.sample(working, greedy_nodes)) if greedy_nodes else set()
    sample_rows: dict[int, list[int]] = {v: [] for v in sampled}

    # Route each row along every truthful path.  ``mask`` collects the
    # attributes the path's equations mention: all of them agree with the
    # row, so the premise length is the number of attributes named.
    n = table.n
    all_attrs = (1 << n) - 1
    lookup = [
        {(a, v): c for c, a, v in node_edges if a is not None} if node_edges else None
        for node_edges in tree.edges
    ]
    reach = [0] * n_nodes
    first_decision = [None] * n_nodes
    mixed = [False] * n_nodes
    reached_terminals: list[list[tuple[int, int]]] = []
    for r, row in enumerate(table.rows):
        decision = table.decisions[r]
        terminals = []
        stack = [(0, 0)]
        while stack:
            node, mask = stack.pop()
            reach[node] += 1
            if first_decision[node] is None:
                first_decision[node] = decision
            elif first_decision[node] != decision:
                mixed[node] = True
            if node in sample_rows:
                sample_rows[node].append(r)
            k = tree.kind[node]
            if k == TERMINAL:
                terminals.append((node, mask.bit_count()))
                if tree.label[node] != decision:
                    out.violations.append(
                        f"row {r}: truthful path ends at terminal {node} deciding "
                        f"{tree.label[node]}, expected {decision}"
                    )
            elif k == ATTRIBUTE:
                attr = tree.label[node]
                stack.append((lookup[node][attr, row[attr]], mask | 1 << attr))
            elif row == tree.label[node]:
                stack.append((tree.edges[node][0][0], all_attrs))
            else:
                for i, (want, got) in enumerate(zip(tree.label[node], row)):
                    if want != got:
                        stack.append((lookup[node][i, got], mask | 1 << i))
        reached_terminals.append(terminals)
        if len(out.violations) > 20:
            return out

    for v in range(n_nodes):
        if tree.kind[v] == TERMINAL:
            if reach[v] == 0:
                out.empty_terminals += 1
                if tree.label[v] != 0:
                    out.violations.append(f"node {v}: empty terminal labeled {tree.label[v]}")
        elif reach[v] == 0 or not mixed[v]:
            out.violations.append(f"node {v}: working node with a degenerate subtable")
    out.realizable = sum(1 for c in reach if c)
    out.row_lengths = [min(length for _, length in ts) for ts in reached_terminals]
    out.row_coverages = [max(reach[t] for t, _ in ts) for ts in reached_terminals]

    for v in sorted(sampled):
        problem = _greedy_violation(tree, table, v, sample_rows[v], tree_type, measure)
        out.greedy_nodes_checked += 1
        if problem:
            out.violations.append(f"node {v}: {problem}")
    return out


def _greedy_violation(
    tree: Tree, table: Table, node: int, rows: list[int], tree_type: int, measure: str
) -> str | None:
    """Compare the chosen query's impurity with an exhaustive minimum."""
    n = table.n
    sub = [table.rows[r] for r in rows]
    decisions = [table.decisions[r] for r in rows]
    # branch[i][c]: uncertainty of the subtable's rows whose attribute i takes
    # its c-th value.  Every answer of a query is one such branch, except a
    # hypothesis's own answer: the rows equal to it, at most one row, whose
    # uncertainty is 0 under every measure.
    branch = []
    for i, vs in enumerate(table.value_sets):
        counts = {v: Counter() for v in vs}
        for row, d in zip(sub, decisions):
            counts[row[i]][d] += 1
        branch.append([uncertainty(measure, counts[v].values()) for v in vs])
    constant = {
        i: sub[0][i] for i in range(n) if all(row[i] == sub[0][i] for row in sub)
    }
    # worst[i][v]: the largest counterexample answer on attribute i of a
    # hypothesis whose value for attribute i is v.
    worst = [
        {v: max([b for w, b in zip(vs, branch[i]) if w != v], default=0.0) for v in vs}
        for i, vs in enumerate(table.value_sets)
    ]

    def hypothesis_impurity(h) -> float:
        return max(0.0, *(worst[i][v] for i, v in enumerate(h)))

    candidates = []
    if tree_type in (1, 3, 5):
        candidates += [max(branch[i]) for i in range(n) if i not in constant]
    if tree_type in (2, 3):
        choices = [
            [worst[i][constant[i]]] if i in constant else list(worst[i].values())
            for i in range(n)
        ]
        candidates.append(max(0.0, min(max(h) for h in itertools.product(*choices))))
    if tree_type in (4, 5):
        proper = [
            hypothesis_impurity(row)
            for row in table.rows
            if all(row[i] == v for i, v in constant.items())
        ]
        if proper:
            candidates.append(min(proper))
    if not candidates:
        return "no admissible query although the subtable is nondegenerate"
    best = min(candidates)

    if tree.kind[node] == ATTRIBUTE:
        attr = tree.label[node]
        if tree_type not in (1, 3, 5):
            return f"attribute query in a type-{tree_type} tree"
        if attr in constant:
            return f"attribute {attr} is constant on the subtable"
        chosen = max(branch[attr])
    else:
        if tree_type == 1:
            return "hypothesis query in a type-1 tree"
        hyp = tree.label[node]
        if tree_type in (4, 5) and hyp not in table.row_set:
            return "hypothesis is not a row of the table"
        if any(hyp[i] != v for i, v in constant.items()):
            return "hypothesis disagrees with a constant attribute"
        chosen = hypothesis_impurity(hyp)
    if abs(chosen - best) > _TOLERANCE * max(1.0, abs(best)):
        return f"impurity {chosen} is not the minimum {best} over admissible queries"
    return None
