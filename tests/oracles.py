"""Independent reference implementations used to cross-check the library.

Everything here is written definitionally (explicit enumeration, pair
counting, exhaustive search) and deliberately shares no code with the
package under test.  A tree is read only through its per-node accessors
(``query``, ``children``, ``is_terminal``, ``decision``); its edges are
paired with answers enumerated here (``edges``).  From ``hypotree`` this
module imports ``DecisionTable`` alone, which ``test_oracles.py`` checks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from hypotree import DecisionTable

# --- uncertainty ------------------------------------------------------------


def measure_value(name: str, labels) -> float:
    """Definitional uncertainty of a multiset of decision labels."""
    labels = list(labels)
    n = len(labels)
    counts = Counter(labels)
    if n == 0 or len(counts) <= 1:
        return 0.0
    if name == "me":
        return float(n - max(counts.values()))
    if name == "rme":
        return (n - max(counts.values())) / n
    # Summed in ascending count order, so one multiset of counts gives one
    # double whatever order its labels come in.
    if name == "ent":
        return -sum((c / n) * math.log2(c / n) for c in sorted(counts.values()))
    if name == "gini":
        return 1.0 - sum((c / n) ** 2 for c in sorted(counts.values()))
    if name == "r":
        # Count unordered pairs of rows with different decisions directly.
        pairs = 0
        for i in range(n):
            for j in range(i + 1, n):
                if labels[i] != labels[j]:
                    pairs += 1
        return float(pairs)
    raise ValueError(name)


# --- queries ----------------------------------------------------------------


def attribute_answer_rows(table: DecisionTable, rows, attribute: int):
    """Row-index sets of each answer to an attribute query, value order."""
    rows = sorted(rows)
    values = table.values.tolist()
    out = []
    for value in table.value_set(attribute):
        out.append([r for r in rows if values[r][attribute] == value])
    return out


def hypothesis_answer_rows(table: DecisionTable, rows, hypothesis):
    """Row-index sets for the hypothesis answer then each counterexample."""
    rows = sorted(rows)
    values = table.values.tolist()
    out = [[r for r in rows if tuple(values[r]) == tuple(hypothesis)]]
    for i in range(table.n):
        for value in table.value_set(i):
            if value != hypothesis[i]:
                out.append([r for r in rows if values[r][i] == value])
    return out


def _labels(table: DecisionTable, rows):
    decisions = table.decisions.tolist()
    return [decisions[r] for r in rows]


def attribute_impurity(table: DecisionTable, rows, attribute: int, name: str):
    return max(
        measure_value(name, _labels(table, part))
        for part in attribute_answer_rows(table, rows, attribute)
    )


def hypothesis_impurity(table: DecisionTable, rows, hypothesis, name: str):
    return max(
        measure_value(name, _labels(table, part))
        for part in hypothesis_answer_rows(table, rows, hypothesis)
    )


def admissible_hypotheses(table: DecisionTable, rows):
    """All hypotheses pinned to the subtable's constant attributes."""
    choices = []
    for i in range(table.n):
        seen = {int(table.values[r][i]) for r in rows}
        if len(seen) == 1:
            choices.append(sorted(seen))
        else:
            choices.append(list(table.value_set(i)))
    return [tuple(c) for c in itertools.product(*choices)]


def brute_best_hypothesis(table: DecisionTable, rows, name: str):
    """Minimum impurity over admissible hypotheses (value, not argmin)."""
    return min(
        hypothesis_impurity(table, rows, h, name)
        for h in admissible_hypotheses(table, rows)
    )


def brute_proper_row(table: DecisionTable, rows, name: str) -> int:
    """The earliest admissible base row of least hypothesis impurity on ``rows``."""
    const = {}
    for i in range(table.n):
        seen = {int(table.values[r][i]) for r in rows}
        if len(seen) == 1:
            const[i] = seen.pop()
    best = None
    for r in range(table.n_rows):
        h = tuple(int(v) for v in table.values[r])
        if any(h[i] != v for i, v in const.items()):
            continue
        imp = hypothesis_impurity(table, rows, h, name)
        if best is None or imp < best[1]:
            best = (r, imp)
    return best[0]


def brute_best_proper_hypothesis(table: DecisionTable, rows, name: str):
    """Minimum impurity over admissible base-table rows."""
    row = tuple(int(v) for v in table.values[brute_proper_row(table, rows, name)])
    return hypothesis_impurity(table, rows, row, name)


def brute_best_attribute(table: DecisionTable, rows, name: str):
    """(attribute, impurity) with ties broken by the lowest index."""
    best = None
    for i in range(table.n):
        if len({int(table.values[r][i]) for r in rows}) <= 1:
            continue
        imp = attribute_impurity(table, rows, i, name)
        if best is None or imp < best[1]:
            best = (i, imp)
    return best


# --- trees ------------------------------------------------------------------


def edges(tree, node):
    """``(child, attribute, value)`` for each edge of a working node, in answer order.

    Enumerated here from the node's query and child ids: an attribute
    query's answers are its values in ascending order; a hypothesis's are
    the holds answer ``(child, None, hypothesis)``, then every
    counterexample by (attribute, value).
    """
    value_sets = tree.base.value_sets
    query = tree.query(node)
    if hasattr(query, "attribute"):
        i = query.attribute
        answers = [(i, v) for v in value_sets[i]]
    else:
        h = query.hypothesis.values
        answers = [(None, h)]
        answers += [(i, v) for i, vs in enumerate(value_sets) for v in vs if v != h[i]]
    children = tree.children(node)
    assert len(children) == len(answers), f"node {node}: one child per answer"
    return [(child, attr, value) for child, (attr, value) in zip(children, answers)]


def truthful_reach(table: DecisionTable, tree, row_values, known=None):
    """Every node reachable when all answers must be truthful for the row.

    ``known`` maps working nodes to their ``edges``; it is filled as nodes
    are first walked, so walks of several rows over one tree can share it.
    """
    row = tuple(int(v) for v in row_values)
    if known is None:
        known = {}
    reached: set[int] = set()
    stack = [0]
    while stack:
        node = stack.pop()
        reached.add(node)
        if tree.is_terminal(node):
            continue
        out = known.get(node)
        if out is None:
            out = known[node] = edges(tree, node)
        for child, attr, value in out:
            # The holds answer is truthful only for the hypothesis itself.
            if (value == row) if attr is None else (row[attr] == value):
                stack.append(child)
    return reached


def truthful_terminals(table: DecisionTable, tree, row_values):
    """Terminals reachable when every answer must be truthful for the row."""
    return {
        node
        for node in truthful_reach(table, tree, row_values)
        if tree.is_terminal(node)
    }


def oracle_rule_stats(table: DecisionTable, tree):
    """Per-row shortest premise and widest coverage, by a per-node walk.

    Each node's rows are recomputed with value masks along its ``edges``;
    a premise is as long as its single-equation edges, or ``table.n`` when
    the path confirms a hypothesis.  Returns ``(lengths, coverages)``.
    """
    values = table.values
    lengths = np.full(table.n_rows, np.iinfo(np.int64).max, dtype=np.int64)
    coverages = np.zeros(table.n_rows, dtype=np.int64)
    stack = [(0, np.arange(table.n_rows), 0, False)]
    while stack:
        node, rows, singles, confirmed = stack.pop()
        if len(rows) == 0:
            continue
        if tree.is_terminal(node):
            length = table.n if confirmed else singles
            lengths[rows] = np.minimum(lengths[rows], length)
            coverages[rows] = np.maximum(coverages[rows], len(rows))
            continue
        for child, attr, payload in edges(tree, node):
            if attr is None:
                sub = rows[(values[rows] == np.asarray(payload)).all(axis=1)]
                stack.append((child, sub, singles, True))
            else:
                sub = rows[values[rows, attr] == payload]
                stack.append((child, sub, singles + 1, confirmed))
    return lengths, coverages


def oracle_depth(tree) -> int:
    """Most working nodes on a root-to-terminal path, by walking ``edges``."""
    deepest = 0
    stack = [(0, 0)]
    while stack:
        node, queries = stack.pop()
        if tree.is_terminal(node):
            deepest = max(deepest, queries)
            continue
        for child, _, _ in edges(tree, node):
            stack.append((child, queries + 1))
    return deepest


def oracle_levels(tree) -> list[int]:
    """Each node's number of edges from the root, by a breadth-first walk of ``edges``."""
    levels = {0: 0}
    frontier = [0]
    while frontier:
        below = []
        for node in frontier:
            if tree.is_terminal(node):
                continue
            for child, _, _ in edges(tree, node):
                levels[child] = levels[node] + 1
                below.append(child)
        frontier = below
    return [levels[node] for node in range(len(levels))]


def oracle_realizable(table: DecisionTable, tree) -> int:
    """Nodes some row reaches by truthful answers, each node's edges made once."""
    known: dict = {}
    union: set[int] = set()
    for r in range(table.n_rows):
        union |= truthful_reach(table, tree, table.values[r], known)
    return len(union)


def oracle_rules(table: DecisionTable, tree):
    """``(premise, decision, coverage)`` per nonempty complete path, left to right.

    A path's premise is the union of its edges' equations, as sorted
    (attribute, value) pairs, and its coverage the number of rows satisfying
    every one of them; paths no row satisfies are left out.
    """
    values = table.values.tolist()
    rules = []
    stack = [(0, frozenset())]
    while stack:
        node, premise = stack.pop()
        covered = [row for row in values if all(row[a] == v for a, v in premise)]
        if not covered:
            continue
        if tree.is_terminal(node):
            rules.append((tuple(sorted(premise)), tree.decision(node), len(covered)))
            continue
        for child, attr, value in reversed(edges(tree, node)):
            step = enumerate(value) if attr is None else [(attr, value)]
            stack.append((child, premise | frozenset(step)))
    return rules


def oracle_serialize(tree) -> str:
    """The tree's text form, formatted node by node from ``edges``."""
    names = tree.base.attribute_names

    def hypothesis(values):
        return "H[" + ",".join(f"{names[i]}={v}" for i, v in enumerate(values)) + "]"

    out = []
    for node in range(tree.node_count):
        if tree.is_terminal(node):
            out.append(f"{node} T {tree.decision(node)}\n")
            continue
        out_edges = edges(tree, node)
        _, attr, payload = out_edges[0]
        words = [f"{node} W {names[attr] if attr is not None else hypothesis(payload)}"]
        for child, attr, payload in out_edges:
            label = hypothesis(payload) if attr is None else f"{names[attr]}={payload}"
            words.append(f"[{label}]:{child}")
        out.append(" ".join(words) + "\n")
    return "".join(out)


# --- exhaustive small-table corpus -------------------------------------------


def enumerate_binary_tables(max_attrs: int = 3, max_rows: int = 6):
    """Every table with <=max_attrs binary attributes, <=max_rows distinct
    rows, and binary decisions: 8 + 80 + 5280 = 5368 tables."""
    names = ("f1", "f2", "f3")
    tables = []
    for na in range(1, max_attrs + 1):
        grid = list(itertools.product((0, 1), repeat=na))
        for size in range(1, min(max_rows, len(grid)) + 1):
            for rows in itertools.combinations(grid, size):
                values = np.array(rows)
                for decs in itertools.product((0, 1), repeat=size):
                    tables.append(
                        DecisionTable(names[:na], values, np.array(decs))
                    )
    return tables
