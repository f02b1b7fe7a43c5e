"""Decision tables, equation systems, and row-subset views.

A decision table is an immutable matrix of nonnegative integer attribute
values with one nonnegative integer decision per row; attribute vectors are
pairwise distinct.  Subtables never copy data: a ``SubtableRef`` is the base
table plus an ascending array of row indices, so views are cheap to create
and safe to share across worker processes.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "ConstraintError",
    "DecisionTable",
    "EquationSystem",
    "SubtableRef",
]


class ConstraintError(ValueError):
    """An argument referenced an attribute, value, or shape outside its domain."""


class EquationSystem:
    """An immutable set of ``attribute = value`` equations.

    At most one equation per attribute: two different values for the same
    attribute are rejected at construction, and so is an attribute or value
    that an int cast would change (``1.5``, ``"1"``); NumPy integers and
    whole floats are taken as ints.  Equality and hashing ignore the order
    in which equations were given.  Systems the package derives itself
    (``derive_rules``' premises) hold plain ints without conflicts by
    construction and skip the checks through ``_derived``.
    """

    __slots__ = ("_pairs",)

    def __init__(self, equations: Iterable[tuple[int, int]] = ()):
        seen: dict[int, int] = {}
        for attribute, value in equations:
            if type(attribute) is not int:  # a plain int needs no cast
                attribute = _as_int(attribute, "equation attributes")
            if type(value) is not int:
                value = _as_int(value, "equation values")
            if attribute < 0 or value < 0:
                raise ConstraintError(
                    f"equation ({attribute}={value}) uses a negative attribute or value"
                )
            if attribute in seen and seen[attribute] != value:
                raise ConstraintError(
                    f"conflicting equations for attribute {attribute}: "
                    f"{seen[attribute]} and {value}"
                )
            seen[attribute] = value
        self._pairs: tuple[tuple[int, int], ...] = tuple(sorted(seen.items()))

    @classmethod
    def _derived(cls, pairs: Iterable[tuple[int, int]]) -> "EquationSystem":
        """A system of plain-int, conflict-free pairs, repeats allowed, taken unchecked."""
        system = cls.__new__(cls)
        system._pairs = tuple(sorted(set(pairs)))
        return system

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def union(self, other: "EquationSystem") -> "EquationSystem":
        """Combine two systems; conflicting values raise ConstraintError."""
        return EquationSystem(self._pairs + other._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EquationSystem) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        body = ", ".join(f"f{a + 1}={v}" for a, v in self._pairs)
        return f"EquationSystem({body})"


def _is_integer(value) -> bool:
    """True for Python and NumPy integers, but not for bools."""
    # A plain int skips the slower abstract-class check.
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def _as_int(value, what: str) -> int:
    """``value`` as an int; ConstraintError if the cast changes it."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConstraintError(f"{what} must be integers, got {value!r}") from None
    if out != value:
        raise ConstraintError(f"{what} must be integers, got {value!r}")
    return out


def _integral(data, what: str) -> np.ndarray:
    """``data`` as a new int64 array; ConstraintError if the cast changes an entry."""
    raw = np.asarray(data)
    kind = raw.dtype.kind
    if kind in "bi" or kind == "u" and (raw.size == 0 or raw.max() < 2**63):
        return raw.astype(np.int64, copy=raw is data)
    try:  # a larger uint64 wraps; a Python int beyond int64, a word or None raises
        with np.errstate(invalid="ignore"):
            out = raw.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        out = None
    if out is None or not np.array_equal(out, raw):
        raise ConstraintError(f"{what} must be integers in the int64 range")
    return out


class DecisionTable:
    """An immutable table of nonnegative integers with one decision per row.

    Internally every column is also kept in dense code form (positions within
    the sorted per-column value set); counting and partitioning work on codes
    so arbitrary value alphabets cost nothing extra.  The codes are found in
    plain Python, one pass over each column through a ``{value: code}`` dict,
    and each code array is made by one ``np.array`` call: on the small tables
    most builds see, NumPy's cost per call would exceed the work.  One private
    row index, built at construction, maps each row's tuple of codes to its
    row number: a table whose index has fewer entries than rows repeats a row
    and is rejected, ``is_proper`` and the builder find a hypothesis's row by
    looking up its codes, and the routing pass reads the rows' code tuples
    off its keys, which are in row order.

    ``branch_keys[r, i]`` is row ``r``'s cell in a flat (branch, decision)
    count array: ``(codes[r, i] + offsets[i]) * d + dec_codes[r]`` with ``d``
    decision values (at least 1), where the branch ``offsets[i] + code`` is
    the entry's (attribute, value) pair in the table's global branch order.
    One ``bincount`` of a subtable's keys gives every branch's decision
    counts; ``key // d`` is the branch and ``key % d`` the decision code.
    Made once at construction, read-only like every other array here.
    """

    __slots__ = (
        "attribute_names",
        "values",
        "decisions",
        "n",
        "n_rows",
        "value_sets",
        "decision_values",
        "codes",
        "dec_codes",
        "offsets",
        "branch_keys",
        "_row_index",
    )

    def __init__(
        self,
        attribute_names: Sequence[str],
        values: Sequence[Sequence[int]] | np.ndarray,
        decisions: Sequence[int] | np.ndarray,
    ):
        names = tuple(str(a) for a in attribute_names)
        if len(names) < 1:
            raise ConstraintError("a decision table needs at least one attribute")
        if len(set(names)) != len(names):
            raise ConstraintError("attribute names must be unique")
        for name in names:
            if "\n" in name or "\r" in name:  # ``serialize`` writes one node per line
                raise ConstraintError(f"attribute name {name!r} holds a line break")
        vals = _integral(values, "attribute values")
        if vals.size == 0:
            vals = vals.reshape(0, len(names))
        if vals.ndim != 2 or vals.shape[1] != len(names):
            raise ConstraintError(
                f"value matrix must have {len(names)} columns, got shape {vals.shape}"
            )
        decs = _integral(decisions, "decisions").reshape(-1)
        if decs.shape[0] != vals.shape[0]:
            raise ConstraintError(
                f"{vals.shape[0]} rows but {decs.shape[0]} decisions"
            )
        n_rows = int(vals.shape[0])
        columns = vals.T.tolist()
        value_sets = tuple(tuple(sorted(set(column))) for column in columns)
        if n_rows and min(vs[0] for vs in value_sets) < 0:
            raise ConstraintError("attribute values must be nonnegative")
        dec_list = decs.tolist()
        dec_values = sorted(set(dec_list))
        if n_rows and dec_values[0] < 0:
            raise ConstraintError("decisions must be nonnegative")

        self.attribute_names = names
        self.n = len(names)
        self.n_rows = n_rows
        self.values = vals
        self.decisions = decs
        self.value_sets = value_sets

        code_cols = []
        for value_set, column in zip(value_sets, columns):
            code_of = {v: c for c, v in enumerate(value_set)}
            code_cols.append([code_of[v] for v in column])
        self._row_index: dict[tuple[int, ...], int] = dict(zip(zip(*code_cols), range(n_rows)))
        if len(self._row_index) != n_rows:
            raise ConstraintError("attribute vectors must be pairwise distinct")
        self.codes = np.array(code_cols, dtype=np.int64).T.copy()

        dec_code_of = {v: c for c, v in enumerate(dec_values)}
        self.decision_values = np.array(dec_values, dtype=np.int64)
        self.dec_codes = np.array([dec_code_of[v] for v in dec_list], dtype=np.int64)

        offsets = [0]
        for value_set in value_sets:
            offsets.append(offsets[-1] + len(value_set))
        self.offsets = np.array(offsets, dtype=np.int64)
        self.branch_keys = (self.codes + self.offsets[:-1]) * max(len(dec_values), 1)
        self.branch_keys += self.dec_codes[:, None]

        for arr in (self.values, self.decisions, self.codes, self.dec_codes,
                    self.offsets, self.branch_keys, self.decision_values):
            arr.flags.writeable = False

    @property
    def n_decision_values(self) -> int:
        return int(len(self.decision_values))

    @property
    def total_branches(self) -> int:
        """Number of (attribute, value) pairs over the whole table."""
        return int(self.offsets[-1])

    def value_set(self, attribute: int) -> tuple[int, ...]:
        self._check_attribute(attribute)
        return self.value_sets[attribute]

    def row_values(self, row: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.values[row])

    def all_rows(self) -> "SubtableRef":
        return SubtableRef._derived(self, np.arange(self.n_rows, dtype=np.int64))

    def subtable(self, system: EquationSystem) -> "SubtableRef":
        return self.all_rows().apply(system)

    def _check_attribute(self, attribute: int) -> None:
        if not 0 <= attribute < self.n:
            raise ConstraintError(
                f"attribute index {attribute} out of range for {self.n} attributes"
            )

    def __repr__(self) -> str:
        return f"DecisionTable({self.n_rows} rows, {self.n} attributes)"


class SubtableRef:
    """A view of selected rows of a base table; indices are strictly ascending.

    The constructor checks a caller's selection, whose indices must be
    integers as a table's entries must be.  Views the package derives itself
    (``DecisionTable.all_rows``, ``apply``) are ascending and in range by
    construction and skip the checks through ``_derived``.
    """

    __slots__ = ("base", "selected", "_counts")

    def __init__(self, base: DecisionTable, selected: np.ndarray):
        sel = _integral(selected, "row indices")
        if sel.ndim != 1:
            raise ConstraintError("row selection must be one-dimensional")
        if sel.size:
            if int(sel[0]) < 0 or int(sel[-1]) >= base.n_rows:
                raise ConstraintError("row index out of range")
            if sel.size > 1 and not bool(np.all(np.diff(sel) > 0)):
                raise ConstraintError("row indices must be strictly increasing")
        self.base = base
        self.selected = sel
        self._counts: np.ndarray | None = None

    @classmethod
    def _derived(cls, base: DecisionTable, selected: np.ndarray) -> "SubtableRef":
        """A view of an ascending, in-range int64 selection, taken unchecked."""
        view = cls.__new__(cls)
        view.base = base
        view.selected = selected
        view._counts = None
        return view

    @property
    def n_rows(self) -> int:
        return int(self.selected.size)

    def decision_counts(self) -> np.ndarray:
        """Row counts per decision code (indexed like base.decision_values)."""
        if self._counts is None:
            self._counts = np.bincount(
                self.base.dec_codes[self.selected],
                minlength=max(self.base.n_decision_values, 1),
            )
            self._counts.flags.writeable = False
        return self._counts

    def is_degenerate(self) -> bool:
        """True when empty or when all rows share one decision."""
        if self.n_rows == 0:
            return True
        counts = self.decision_counts()
        return int(counts.max()) == self.n_rows

    def apply(self, system: EquationSystem) -> "SubtableRef":
        """Rows of this view that satisfy every equation of the system."""
        sel = self.selected
        for attribute, value in system:
            self.base._check_attribute(attribute)
            if sel.size == 0:
                break
            sel = sel[self.base.values[sel, attribute] == value]
        return SubtableRef._derived(self.base, sel)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubtableRef)
            and self.base is other.base
            and np.array_equal(self.selected, other.selected)
        )

    def __repr__(self) -> str:
        return f"SubtableRef({self.n_rows} of {self.base.n_rows} rows)"

