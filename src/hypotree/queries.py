"""Attribute and hypothesis queries, their answer sets, and greedy selection.

An answer is the ``EquationSystem`` it asserts.  An attribute query asks
for the value of one attribute; its answers are the values the attribute
takes in the base table.  A hypothesis proposes one value per attribute;
the answers are the hypothesis itself plus every single-equation
counterexample drawn from the base table's value sets.  A hypothesis is
proper when its value vector is a row of the base table.

The impurity of a query on a subtable is the worst-case uncertainty over its
answers.  Selection is greedy: pick the admissible query of the requested
kind with minimum impurity.  Ties are deterministic: attributes prefer the
lowest index, hypothesis construction prefers the canonical minimizer with
the smallest values, proper hypotheses prefer the earliest row, and when the
two kinds tie the attribute wins.  The tree type is checked once per call
of ``select_query`` or ``build_tree``, not per node.

A proper hypothesis is found by a threshold search, not by scoring every
row.  Let ``max1[i]`` and ``max2[i]`` be the largest and second-largest
branch uncertainty of attribute ``i`` and ``M2`` the largest ``max2``.  A
row's impurity is ``max(M2, max1[i] over the attributes i whose first most
uncertain value it misses)``, and a row off the value of an attribute
constant on the subtable is not admissible.  So for any ``v >= M2`` the
admissible rows of impurity at most ``v`` are those on every pinned value
and on the most uncertain value of every attribute with ``max1 > v``.  With
the attributes sorted by ``max1``, descending, the rows on the pins and on
the first ``k`` of those values are the rows under a threshold when ``k``
ends the ``K`` attributes above ``M2`` (``v = M2``) or a run of equal
``max1`` (``v`` the next one's ``max1``); ties are never split, so their
order is immaterial.  The longest threshold prefix whose row set is
nonempty has the least ``v``, which is the least impurity, and the lowest
row of that set is the earliest row of least impurity.  The search takes
one AND per pin and per prefix step over per-(attribute, value) row
bitsets, row ``r`` at bit ``r``, held in two forms: Python ints on a narrow
node (``_best_proper_from``, over ``_row_bitsets``) and packed ``uint64``
words, 64 rows to a word, for every node of a wide level at once
(``builder._Builder._best_proper``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .table import ConstraintError, DecisionTable, EquationSystem, SubtableRef, _is_integer
from .uncertainty import UncertaintyMeasure

__all__ = [
    "AttributeQuery",
    "BranchStats",
    "Hypothesis",
    "HypothesisQuery",
    "Query",
    "answers",
    "branch_stats",
    "impurity",
    "is_admissible_attribute",
    "is_admissible_hypothesis",
    "is_proper",
    "select_query",
    "select_query_from_stats",
]

TREE_TYPES = (1, 2, 3, 4, 5)


def _check_tree_type(tree_type) -> None:
    """ConstraintError unless ``tree_type`` is an integer (not a bool) in TREE_TYPES."""
    if not _is_integer(tree_type) or tree_type not in TREE_TYPES:
        raise ConstraintError(f"tree type must be an integer 1..5, got {tree_type!r}")


@dataclass(frozen=True)
class Hypothesis:
    """One proposed value per attribute."""

    values: tuple[int, ...]

    def system(self) -> EquationSystem:
        return EquationSystem(enumerate(self.values))


@dataclass(frozen=True)
class AttributeQuery:
    attribute: int


@dataclass(frozen=True)
class HypothesisQuery:
    hypothesis: Hypothesis


Query = Union[AttributeQuery, HypothesisQuery]


def _check_hypothesis(h: Hypothesis, base: DecisionTable) -> None:
    if len(h.values) != base.n:
        raise ConstraintError(
            f"hypothesis has {len(h.values)} values for {base.n} attributes"
        )
    for i, v in enumerate(h.values):
        if v not in base.value_sets[i]:
            raise ConstraintError(
                f"hypothesis value {v} for attribute {i} is outside the table's value set"
            )


def answers(query: Query, base: DecisionTable) -> list[EquationSystem]:
    """All possible answers, each the equation system it asserts, in canonical order.

    Attribute queries answer with each base-table value of the attribute in
    ascending order.  Hypothesis queries answer with the hypothesis first,
    then every counterexample equation ordered by (attribute, value).
    """
    if isinstance(query, AttributeQuery):
        base._check_attribute(query.attribute)
        return [
            EquationSystem([(query.attribute, v)]) for v in base.value_sets[query.attribute]
        ]
    h = query.hypothesis
    _check_hypothesis(h, base)
    out = [h.system()]
    for i, delta in enumerate(h.values):
        for v in base.value_sets[i]:
            if v != delta:
                out.append(EquationSystem([(i, v)]))
    return out


def is_proper(h: Hypothesis, base: DecisionTable) -> bool:
    """True when the hypothesis vector is a row of the base table."""
    _check_hypothesis(h, base)
    codes = tuple([vs.index(v) for vs, v in zip(base.value_sets, h.values)])
    return codes in base._row_index


def is_admissible_attribute(attribute: int, theta: SubtableRef) -> bool:
    """An attribute may be queried unless it takes one value on a nonempty subtable."""
    theta.base._check_attribute(attribute)
    col = theta.base.values[theta.selected, attribute]
    return col.size == 0 or bool((col != col[0]).any())


def is_admissible_hypothesis(h: Hypothesis, theta: SubtableRef) -> bool:
    """Constant attributes of the subtable pin the hypothesis to their value."""
    _check_hypothesis(h, theta.base)
    rows = theta.base.values[theta.selected]
    if rows.size == 0:
        return True
    constant = (rows == rows[0]).all(axis=0)
    return bool((rows[0] == h.values)[constant].all())


def impurity(query: Query, theta: SubtableRef, u: UncertaintyMeasure) -> float:
    """Worst-case uncertainty over the query's answers, from the definition."""
    return max(u.evaluate(theta.apply(system)) for system in answers(query, theta.base))


class BranchStats:
    """Per-(attribute, value) statistics of one subtable, computed in one pass.

    Branch order is the table's global (attribute, value) order.  ``u`` holds
    the uncertainty of each single-equation branch subtable, ``n`` its row
    count, ``mx``/``am`` the count and code of its most common decision (the
    smallest code on a tie, 0 on an empty branch).  Plain lists: the
    segments per attribute are tiny and python scans beat numpy dispatch at
    this size.
    """

    __slots__ = ("u", "n", "mx", "am")

    def __init__(self, u, n, mx, am):
        self.u = u
        self.n = n
        self.mx = mx
        self.am = am


def branch_stats(
    table: DecisionTable, rows: np.ndarray, measure: UncertaintyMeasure
) -> BranchStats:
    """Statistics of every branch of the subtable ``rows`` of ``table``.

    One ``bincount`` of the rows' ``branch_keys`` gives the (branch,
    decision) count matrix; the measure runs once on it, and the counts,
    their largest and its first position are read from one list of it.
    """
    d = max(table.n_decision_values, 1)
    cont = np.bincount(
        table.branch_keys.take(rows, axis=0).ravel(), minlength=table.total_branches * d
    ).reshape(-1, d)
    counts = cont.tolist()
    mx = list(map(max, counts))
    return BranchStats(
        measure.of_count_matrix(cont).tolist(),
        list(map(sum, counts)),
        mx,
        list(map(list.index, counts, mx)),
    )


def _summarize(table: DecisionTable, stats: BranchStats) -> tuple[list, ...]:
    """Per-attribute lists ``(max1, max2, best_pos, seen, pinned)`` in one pass.

    ``max1``/``max2`` are the largest and second-largest branch uncertainty
    (``max2`` is 0.0 for a single-valued attribute, which yields no
    counterexamples), ``best_pos`` the code of the first largest, ``seen``
    the number of nonempty branches and ``pinned`` the code of the only
    nonempty branch of an attribute constant on the subtable, else -1.
    """
    u = stats.u
    nvec = stats.n
    max1, max2, best_pos, seen, pinned = [], [], [], [], []
    offsets = table.offsets.tolist()
    for a, b in zip(offsets, offsets[1:]):
        best = second = -1.0
        top = 0
        nonempty = 0
        pin = -1
        for pos in range(a, b):
            if nvec[pos] > 0:
                nonempty += 1
                pin = pos - a
            val = u[pos]
            if val > best:
                second = best
                best = val
                top = pos - a
            elif val > second:
                second = val
        max1.append(best)
        max2.append(0.0 if b - a == 1 else second)
        best_pos.append(top)
        seen.append(nonempty)
        pinned.append(pin if nonempty == 1 else -1)
    return max1, max2, best_pos, seen, pinned


def _best_attribute_from(summary: tuple[list, ...]) -> tuple[int, float]:
    """Admissible attribute with minimum impurity; ties take the lowest index."""
    max1, _, _, seen, _ = summary
    best_i = -1
    best = float("inf")
    for i, (imp, nonempty) in enumerate(zip(max1, seen)):
        # An attribute constant on the subtable is not admissible.
        if nonempty >= 2 and imp < best:
            best = imp
            best_i = i
    if best_i < 0:
        raise ConstraintError("no admissible attribute; subtable is degenerate")
    return best_i, best


def _best_hypothesis_from(summary: tuple[list, ...]) -> tuple[tuple[int, ...], float]:
    """Value codes of the admissible hypothesis with minimum impurity.

    Among all minimizers, returns the canonical one: attributes whose largest
    branch uncertainty exceeds the optimum must dodge that branch, attributes
    constant on the subtable keep their value, and every other attribute
    takes its smallest base-table value.  On tables whose rows cover the full
    value grid this is exactly the first minimizing row in table order, which
    keeps hypothesis and proper-hypothesis selection aligned there.
    """
    max1, max2, best_pos, _, pinned = summary
    # Minimum achievable impurity: each attribute contributes at least its
    # second-largest branch uncertainty, so the optimum is their maximum.
    v = max(max2)
    codes = []
    for top, pos, pin in zip(max1, best_pos, pinned):
        if top > v:
            # Forced: skipping this branch is the only way to stay at v, and
            # the argmax is unique (a tie would push max2 above v).
            codes.append(pos)
        elif pin >= 0:
            codes.append(pin)  # pinned by admissibility
        else:
            codes.append(0)  # free: smallest value, canonical minimizer
    return tuple(codes), v


def _row_bitsets(table: DecisionTable) -> list[list[int]]:
    """``bits[i][c]``: the rows whose attribute ``i`` has code ``c``, row ``r`` at bit ``r``."""
    out = []
    for column, value_set in zip(table.codes.T.tolist(), table.value_sets):
        bits = [0] * len(value_set)
        row = 1
        for c in column:
            bits[c] |= row
            row <<= 1
        out.append(bits)
    return out


def _best_proper_from(
    table: DecisionTable, row_bits: list[list[int]], summary: tuple[list, ...]
) -> tuple[tuple[int, ...], float]:
    """Value codes of the minimum-impurity admissible hypothesis among base-table rows.

    The threshold search of the module docstring on ``row_bits``, the
    table's ``_row_bitsets``; the earliest row of least impurity wins.
    """
    max1, max2, best_pos, _, pinned = summary
    rows = -1  # every base row: the bits of a negative int are set without end
    for bits, pin in zip(row_bits, pinned):
        if pin >= 0:
            rows &= bits[pin]
    if not rows:
        raise ConstraintError("no admissible proper hypothesis")
    m2 = max(max2)
    # The attributes above M2 by max1, descending, each with its argmax rows;
    # M2 ends the list.
    steps = sorted(
        [(top, bits[pos]) for top, bits, pos in zip(max1, row_bits, best_pos) if top > m2],
        reverse=True,
    )
    steps.append((m2, 0))
    best, value = rows, steps[0][0]
    for (top, bits), (below, _) in zip(steps, steps[1:]):
        rows &= bits
        if not rows:
            break
        if below < top:  # a threshold: the prefix ends a run of equal max1
            best, value = rows, below
    row = (best & -best).bit_length() - 1
    return tuple(table.codes[row].tolist()), value


def select_query_from_stats(
    table: DecisionTable,
    stats: BranchStats,
    tree_type: int,
    row_bits: list[list[int]] | None,
) -> tuple[int | tuple[int, ...], float]:
    """Pick the minimum-impurity query of the kind the tree type allows.

    The query comes back as an attribute index, or as a hypothesis's tuple of
    value codes (positions in ``table.value_sets``), with its impurity.
    ``row_bits`` is the table's ``_row_bitsets`` for the proper hypotheses of
    types 4 and 5; the other types read nothing from it.
    """
    summary = _summarize(table, stats)
    if tree_type == 1:
        return _best_attribute_from(summary)
    if tree_type == 2:
        return _best_hypothesis_from(summary)
    if tree_type == 4:
        return _best_proper_from(table, row_bits, summary)
    attr, attr_imp = _best_attribute_from(summary)
    if tree_type == 3:
        codes, hyp_imp = _best_hypothesis_from(summary)
    else:
        codes, hyp_imp = _best_proper_from(table, row_bits, summary)
    if attr_imp <= hyp_imp:  # equal impurity goes to the attribute
        return attr, attr_imp
    return codes, hyp_imp


def select_query(
    theta: SubtableRef, u: UncertaintyMeasure, tree_type: int
) -> tuple[Query, float]:
    """Greedy query choice for one node, honoring the tree type.

    Types: 1 attribute only, 2 hypothesis only, 3 better of 1 and 2,
    4 proper hypothesis only, 5 better of 1 and 4.
    """
    _check_tree_type(tree_type)
    if theta.is_degenerate():
        raise ConstraintError("query selection needs a nondegenerate subtable")
    base = theta.base
    stats = branch_stats(base, theta.selected, u)
    row_bits = _row_bitsets(base) if tree_type in (4, 5) else None
    choice, imp = select_query_from_stats(base, stats, tree_type, row_bits)
    if type(choice) is int:
        return AttributeQuery(choice), imp
    values = tuple([vs[c] for vs, c in zip(base.value_sets, choice)])
    return HypothesisQuery(Hypothesis(values)), imp
