"""Independent reference implementations used to cross-check the library.

Everything here is written definitionally (explicit enumeration, pair
counting, exhaustive search) and deliberately shares no code with the
package under test.
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
    if name == "ent":
        return -sum((c / n) * math.log2(c / n) for c in counts.values())
    if name == "gini":
        return 1.0 - sum((c / n) ** 2 for c in counts.values())
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
    out = []
    for value in table.value_set(attribute):
        out.append([r for r in rows if table.values[r][attribute] == value])
    return out


def hypothesis_answer_rows(table: DecisionTable, rows, hypothesis):
    """Row-index sets for the hypothesis answer then each counterexample."""
    rows = sorted(rows)
    out = [[r for r in rows if tuple(table.values[r]) == tuple(hypothesis)]]
    for i in range(table.n):
        for value in table.value_set(i):
            if value != hypothesis[i]:
                out.append([r for r in rows if table.values[r][i] == value])
    return out


def _labels(table: DecisionTable, rows):
    return [int(table.decisions[r]) for r in rows]


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


def brute_best_proper_hypothesis(table: DecisionTable, rows, name: str):
    """Minimum impurity over admissible base-table rows."""
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
        if best is None or imp < best:
            best = imp
    return best


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


def truthful_reach(table: DecisionTable, tree, row_values):
    """Every node reachable when all answers must be truthful for the row."""
    row = tuple(int(v) for v in row_values)
    reached: set[int] = set()
    stack = [0]
    while stack:
        node = stack.pop()
        reached.add(node)
        if tree.is_terminal(node):
            continue
        edges = tree.child_edges(node)
        if edges and edges[0][1] is None:  # hypothesis node
            (h_child, _, hypothesis), rest = edges[0], edges[1:]
            if tuple(hypothesis) == row:
                stack.append(h_child)
            else:
                for child, attr, value in rest:
                    if row[attr] == value:
                        stack.append(child)
        else:
            for child, attr, value in edges:
                if row[attr] == value:
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

    Each node's rows are recomputed with value masks along ``child_edges``;
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
        for child, attr, payload in tree.child_edges(node):
            if attr is None:
                sub = rows[(values[rows] == np.asarray(payload)).all(axis=1)]
                stack.append((child, sub, singles, True))
            else:
                sub = rows[values[rows, attr] == payload]
                stack.append((child, sub, singles + 1, confirmed))
    return lengths, coverages


def oracle_depth(tree) -> int:
    """Most working nodes on a root-to-terminal path, by walking ``child_edges``."""
    deepest = 0
    stack = [(0, 0)]
    while stack:
        node, queries = stack.pop()
        if tree.is_terminal(node):
            deepest = max(deepest, queries)
            continue
        for child, _, _ in tree.child_edges(node):
            stack.append((child, queries + 1))
    return deepest


def oracle_levels(tree) -> list[int]:
    """Each node's number of edges from the root, by a breadth-first walk of ``child_edges``."""
    levels = {0: 0}
    frontier = [0]
    while frontier:
        below = []
        for node in frontier:
            if tree.is_terminal(node):
                continue
            for child, _, _ in tree.child_edges(node):
                levels[child] = levels[node] + 1
                below.append(child)
        frontier = below
    return [levels[node] for node in range(len(levels))]


def oracle_realizable(table: DecisionTable, tree) -> int:
    union: set[int] = set()
    for r in range(table.n_rows):
        union |= truthful_reach(table, tree, table.values[r])
    return len(union)


def oracle_serialize(tree) -> str:
    """The tree's text form, formatted node by node from ``child_edges``."""
    names = tree.base.attribute_names

    def hypothesis(values):
        return "H[" + ",".join(f"{names[i]}={v}" for i, v in enumerate(values)) + "]"

    out = []
    for node in range(tree.node_count):
        if tree.is_terminal(node):
            out.append(f"{node} T {tree.decision(node)}\n")
            continue
        edges = tree.child_edges(node)
        _, attr, payload = edges[0]
        words = [f"{node} W {names[attr] if attr is not None else hypothesis(payload)}"]
        for child, attr, payload in edges:
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
