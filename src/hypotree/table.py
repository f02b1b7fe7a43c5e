"""Decision tables, equation systems, and row-subset views.

A decision table is an immutable matrix of nonnegative integer attribute
values with one nonnegative integer decision per row; attribute vectors are
pairwise distinct.  Subtables never copy data: a ``SubtableRef`` is the base
table plus an ascending array of row indices, so views are cheap to create
and safe to share across worker processes.
"""

from __future__ import annotations

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
    attribute are rejected at construction.  Equality and hashing ignore the
    order in which equations were given.
    """

    __slots__ = ("_pairs",)

    def __init__(self, equations: Iterable[tuple[int, int]] = ()):
        seen: dict[int, int] = {}
        for attribute, value in equations:
            attribute = int(attribute)
            value = int(value)
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

    @property
    def attributes(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self._pairs)

    def value_for(self, attribute: int) -> int | None:
        for a, v in self._pairs:
            if a == attribute:
                return v
        return None

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def union(self, other: "EquationSystem") -> "EquationSystem":
        """Combine two systems; conflicting values raise ConstraintError."""
        return EquationSystem(self._pairs + other._pairs)

    def render(self, names: Sequence[str]) -> str:
        return ",".join(f"{names[a]}={v}" for a, v in self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self._pairs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EquationSystem) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        body = ", ".join(f"f{a + 1}={v}" for a, v in self._pairs)
        return f"EquationSystem({body})"


def _integral(data, what: str) -> np.ndarray:
    """``data`` as a new int64 array; ConstraintError if the cast changes an entry."""
    raw = np.asarray(data)
    if raw.dtype.kind in "biu":
        return raw.astype(np.int64, copy=raw is data)
    with np.errstate(invalid="ignore"):
        out = raw.astype(np.int64)
    if not np.array_equal(out, raw):
        raise ConstraintError(f"{what} must be integers")
    return out


class DecisionTable:
    """An immutable table of nonnegative integers with one decision per row.

    Internally every column is also kept in dense code form (positions within
    the sorted per-column value set); counting and partitioning work on codes
    so arbitrary value alphabets cost nothing extra.  One private row index,
    built at construction, maps each row's tuple of codes to its row number:
    a table whose index has fewer entries than rows repeats a row and is
    rejected, and ``is_proper`` and the builder find a hypothesis's row by
    looking up its codes.
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
        "offset_codes",
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
        if vals.size and int(vals.min()) < 0:
            raise ConstraintError("attribute values must be nonnegative")
        if decs.size and int(decs.min()) < 0:
            raise ConstraintError("decisions must be nonnegative")

        self.attribute_names = names
        self.n = len(names)
        self.n_rows = int(vals.shape[0])
        self.values = vals
        self.decisions = decs

        value_sets = []
        code_cols = []
        for j in range(self.n):
            uniq = np.unique(vals[:, j])
            value_sets.append(tuple(int(v) for v in uniq))
            code_cols.append(np.searchsorted(uniq, vals[:, j]).astype(np.int64))
        self.value_sets = tuple(value_sets)
        self.codes = (
            np.stack(code_cols, axis=1) if self.n_rows else np.zeros((0, self.n), np.int64)
        )
        self._row_index: dict[tuple[int, ...], int] = dict(
            zip(zip(*self.codes.T.tolist()), range(self.n_rows))
        )
        if len(self._row_index) != self.n_rows:
            raise ConstraintError("attribute vectors must be pairwise distinct")

        dec_uniq = np.unique(decs)
        self.decision_values = dec_uniq
        self.dec_codes = np.searchsorted(dec_uniq, decs).astype(np.int64)

        sizes = np.array([len(vs) for vs in self.value_sets], dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.offset_codes = self.codes + self.offsets[:-1]

        for arr in (self.values, self.decisions, self.codes, self.dec_codes,
                    self.offsets, self.offset_codes, self.decision_values):
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

    The constructor checks a caller's selection.  Views the package derives
    itself (``DecisionTable.all_rows``, ``apply``) are ascending and in range
    by construction and skip the checks through ``_derived``.
    """

    __slots__ = ("base", "selected", "_counts")

    def __init__(self, base: DecisionTable, selected: np.ndarray):
        sel = np.asarray(selected, dtype=np.int64)
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

    def count_decision(self, decision: int) -> int:
        code = int(np.searchsorted(self.base.decision_values, decision))
        if (
            code >= self.base.n_decision_values
            or int(self.base.decision_values[code]) != decision
        ):
            return 0
        return int(self.decision_counts()[code])

    def most_common_decision(self) -> int:
        """Most frequent decision; ties go to the smallest value; empty gives 0."""
        if self.n_rows == 0:
            return 0
        counts = self.decision_counts()
        return int(self.base.decision_values[int(np.argmax(counts))])

    def is_degenerate(self) -> bool:
        """True when empty or when all rows share one decision."""
        if self.n_rows == 0:
            return True
        counts = self.decision_counts()
        return int(counts.max()) == self.n_rows

    def is_constant(self, attribute: int) -> bool:
        """True when the attribute takes exactly one value on this subtable."""
        self.base._check_attribute(attribute)
        if self.n_rows == 0:
            return False
        col = self.base.values[self.selected, attribute]
        return bool((col == col[0]).all())

    def column_values(self, attribute: int) -> np.ndarray:
        self.base._check_attribute(attribute)
        return self.base.values[self.selected, attribute]

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

