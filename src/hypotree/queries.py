"""Attribute and hypothesis queries, their answer sets, and greedy selection.

An attribute query asks for the value of one attribute; its answers are the
values the attribute takes in the base table.  A hypothesis proposes one
value per attribute; the answers are the hypothesis itself plus every
single-equation counterexample drawn from the base table's value sets.  A
hypothesis is proper when its value vector is a row of the base table.

The impurity of a query on a subtable is the worst-case uncertainty over its
answers.  Selection is greedy: pick the admissible query of the requested
kind with minimum impurity.  Ties are deterministic: attributes prefer the
lowest index, hypothesis construction prefers the canonical minimizer with
the smallest values, proper hypotheses prefer the earliest row, and when the
two kinds tie the attribute wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .table import ConstraintError, DecisionTable, EquationSystem, SubtableRef
from .uncertainty import UncertaintyMeasure

__all__ = [
    "Answer",
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
    "render_hypothesis",
    "select_query",
    "select_query_from_stats",
]

TREE_TYPES = (1, 2, 3, 4, 5)


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


@dataclass(frozen=True)
class Answer:
    """One possible answer to a query, as the equation system it asserts."""

    system: EquationSystem


def render_hypothesis(h: Hypothesis, names: Sequence[str]) -> str:
    body = ",".join(f"{names[i]}={v}" for i, v in enumerate(h.values))
    return f"H[{body}]"


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


def answers(query: Query, base: DecisionTable) -> list[Answer]:
    """All possible answers, in canonical order.

    Attribute queries answer with each base-table value of the attribute in
    ascending order.  Hypothesis queries answer with the hypothesis first,
    then every counterexample equation ordered by (attribute, value).
    """
    if isinstance(query, AttributeQuery):
        base._check_attribute(query.attribute)
        return [
            Answer(EquationSystem([(query.attribute, v)]))
            for v in base.value_sets[query.attribute]
        ]
    h = query.hypothesis
    _check_hypothesis(h, base)
    out = [Answer(h.system())]
    for i, delta in enumerate(h.values):
        for v in base.value_sets[i]:
            if v != delta:
                out.append(Answer(EquationSystem([(i, v)])))
    return out


def is_proper(h: Hypothesis, base: DecisionTable) -> bool:
    """True when the hypothesis vector is a row of the base table."""
    _check_hypothesis(h, base)
    return tuple(h.values) in base.row_lookup


def is_admissible_attribute(attribute: int, theta: SubtableRef) -> bool:
    """An attribute may be queried while it is non-constant on the subtable."""
    return not theta.is_constant(attribute)


def is_admissible_hypothesis(h: Hypothesis, theta: SubtableRef) -> bool:
    """Constant attributes of the subtable pin the hypothesis to their value."""
    _check_hypothesis(h, theta.base)
    for i, v in enumerate(h.values):
        col = theta.column_values(i)
        if col.size and bool((col == col[0]).all()) and int(col[0]) != v:
            return False
    return True


def impurity(query: Query, theta: SubtableRef, u: UncertaintyMeasure) -> float:
    """Worst-case uncertainty over the query's answers, from the definition."""
    return max(u.evaluate(theta.apply(a.system)) for a in answers(query, theta.base))


class BranchStats:
    """Per-(attribute, value) statistics of one subtable, computed in one pass.

    Branch order is the table's global (attribute, value) order.  ``u`` holds
    the uncertainty of each single-equation branch subtable, ``n`` its row
    count, ``mx``/``am`` the count and code of its most common decision.
    Plain lists: the segments per attribute are tiny and python scans beat
    numpy dispatch at this size.
    """

    __slots__ = ("u", "n", "mx", "am", "n_rows")

    def __init__(self, u, n, mx, am, n_rows: int):
        self.u = u
        self.n = n
        self.mx = mx
        self.am = am
        self.n_rows = n_rows


def branch_stats(
    table: DecisionTable, rows: np.ndarray, measure: UncertaintyMeasure
) -> BranchStats:
    dec = table.dec_codes[rows]
    d = max(table.n_decision_values, 1)
    flat = table.offset_codes[rows].ravel()
    combo = flat * d + np.repeat(dec, table.n)
    cont = np.bincount(combo, minlength=table.total_branches * d).reshape(-1, d)
    nvec = cont.sum(axis=1)
    return BranchStats(
        measure.of_count_matrix(cont).tolist(),
        nvec.tolist(),
        cont.max(axis=1, initial=0).tolist(),
        cont.argmax(axis=1).tolist(),
        int(rows.size),
    )


class _AttrSummary:
    """Max and second-max branch uncertainty per attribute, plus constancy."""

    __slots__ = ("max1", "max2", "best_pos", "const_pos", "m")

    def __init__(self, max1, max2, best_pos, const_pos, m):
        self.max1 = max1
        self.max2 = max2
        self.best_pos = best_pos
        self.const_pos = const_pos
        self.m = m


def _summarize(table: DecisionTable, stats: BranchStats) -> list[_AttrSummary]:
    out = []
    offsets = table.offsets
    u = stats.u
    nvec = stats.n
    for i in range(table.n):
        a = int(offsets[i])
        b = int(offsets[i + 1])
        best = -1.0
        second = -1.0
        best_pos = 0
        nonzero = 0
        const_pos = -1
        for pos in range(a, b):
            if nvec[pos] > 0:
                nonzero += 1
                const_pos = pos - a
            val = u[pos]
            if val > best:
                second = best
                best = val
                best_pos = pos - a
            elif val > second:
                second = val
        if b - a == 1:
            second = 0.0  # a single-valued attribute yields no counterexamples
        if nonzero != 1:
            const_pos = -1
        out.append(_AttrSummary(best, second, best_pos, const_pos, b - a))
    return out


def _best_attribute_from(
    table: DecisionTable, stats: BranchStats
) -> tuple[AttributeQuery, float]:
    """Admissible attribute with minimum impurity; ties take the lowest index."""
    offsets = table.offsets
    nvec = stats.n
    u = stats.u
    best_i = -1
    best = float("inf")
    for i in range(table.n):
        a = int(offsets[i])
        b = int(offsets[i + 1])
        nonzero = 0
        imp = 0.0
        for pos in range(a, b):
            if nvec[pos] > 0:
                nonzero += 1
            if u[pos] > imp:
                imp = u[pos]
        if nonzero < 2:
            continue  # constant on the subtable: not admissible
        if imp < best:
            best = imp
            best_i = i
    if best_i < 0:
        raise ConstraintError("no admissible attribute; subtable is degenerate")
    return AttributeQuery(best_i), best


def _best_hypothesis_from(
    table: DecisionTable, stats: BranchStats, summaries: list[_AttrSummary]
) -> tuple[HypothesisQuery, float]:
    """Admissible hypothesis with minimum impurity.

    Among all minimizers, returns the canonical one: attributes whose largest
    branch uncertainty exceeds the optimum must dodge that branch, attributes
    constant on the subtable keep their value, and every other attribute
    takes its smallest base-table value.  On tables whose rows cover the full
    value grid this is exactly the first minimizing row in table order, which
    keeps hypothesis and proper-hypothesis selection aligned there.
    """
    # Minimum achievable impurity: each attribute contributes at least its
    # second-largest branch uncertainty, so the optimum is their maximum.
    v = 0.0
    for s in summaries:
        if s.max2 > v:
            v = s.max2
    values = []
    for i, s in enumerate(summaries):
        vs = table.value_sets[i]
        if s.max1 > v:
            # Forced: skipping this branch is the only way to stay at v, and
            # the argmax is unique (a tie would push max2 above v).
            values.append(vs[s.best_pos])
        elif s.const_pos >= 0:
            values.append(vs[s.const_pos])  # pinned by admissibility
        else:
            values.append(vs[0])  # free: smallest value, canonical minimizer
    return HypothesisQuery(Hypothesis(tuple(values))), v


def _best_proper_from(
    table: DecisionTable, stats: BranchStats, summaries: list[_AttrSummary]
) -> tuple[HypothesisQuery, float]:
    """Minimum-impurity admissible hypothesis among base-table rows.

    Scans rows in table order; the first row achieving the minimum wins.
    """
    n = table.n
    max1 = np.fromiter((s.max1 for s in summaries), np.float64, n)
    max2 = np.fromiter((s.max2 for s in summaries), np.float64, n)
    best_pos = np.fromiter((s.best_pos for s in summaries), np.int64, n)
    covered = table.codes == best_pos[None, :]
    imp = np.where(covered, max2[None, :], max1[None, :]).max(axis=1)
    for i, s in enumerate(summaries):
        if s.const_pos >= 0:
            imp = np.where(table.codes[:, i] == s.const_pos, imp, np.inf)
    row = int(np.argmin(imp))
    value = float(imp[row])
    if not np.isfinite(value):
        raise ConstraintError("no admissible proper hypothesis")
    return HypothesisQuery(Hypothesis(table.row_values(row))), value


def select_query_from_stats(
    table: DecisionTable, stats: BranchStats, tree_type: int
) -> tuple[Query, float]:
    """Pick the minimum-impurity query of the kind the tree type allows."""
    if tree_type not in TREE_TYPES:
        raise ConstraintError(f"tree type must be one of {TREE_TYPES}, got {tree_type}")
    if tree_type == 1:
        return _best_attribute_from(table, stats)
    summaries = _summarize(table, stats)
    if tree_type == 2:
        return _best_hypothesis_from(table, stats, summaries)
    if tree_type == 4:
        return _best_proper_from(table, stats, summaries)
    attr_q, attr_imp = _best_attribute_from(table, stats)
    if tree_type == 3:
        hyp_q, hyp_imp = _best_hypothesis_from(table, stats, summaries)
    else:
        hyp_q, hyp_imp = _best_proper_from(table, stats, summaries)
    if attr_imp <= hyp_imp:  # equal impurity goes to the attribute
        return attr_q, attr_imp
    return hyp_q, hyp_imp


def select_query(
    theta: SubtableRef, u: UncertaintyMeasure, tree_type: int
) -> tuple[Query, float]:
    """Greedy query choice for one node, honoring the tree type.

    Types: 1 attribute only, 2 hypothesis only, 3 better of 1 and 2,
    4 proper hypothesis only, 5 better of 1 and 4.
    """
    if theta.is_degenerate():
        raise ConstraintError("query selection needs a nondegenerate subtable")
    stats = branch_stats(theta.base, theta.selected, u)
    return select_query_from_stats(theta.base, stats, tree_type)
