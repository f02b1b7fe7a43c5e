"""Uncertainty measures over subtables.

Each measure maps a subtable to a nonnegative float that is zero exactly on
degenerate subtables (empty, or all rows sharing one decision).  Measures are
pure functions of the decision counts, so every one also accepts a matrix of
count rows and evaluates all rows in one vectorized pass; the tree builder
leans on that form heavily.

Misclassification and pair counts (``me``, ``r``) are integer-valued and,
inside float64, exact for any table below 2^26 rows, so comparing their
raw doubles is an exact integer comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .table import SubtableRef

__all__ = [
    "MEASURES",
    "UncertaintyMeasure",
    "get_measure",
]


def _me_rows(counts: np.ndarray) -> np.ndarray:
    n = counts.sum(axis=1)
    return (n - counts.max(axis=1, initial=0)).astype(np.float64)


def _rme_rows(counts: np.ndarray) -> np.ndarray:
    n = counts.sum(axis=1)
    miss = n - counts.max(axis=1, initial=0)
    out = np.zeros(counts.shape[0], dtype=np.float64)
    nz = n > 0
    out[nz] = miss[nz] / n[nz]
    return out


def _ent_rows(counts: np.ndarray) -> np.ndarray:
    n = counts.sum(axis=1).astype(np.float64)
    cf = counts.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = cf / n[:, None]
        terms = np.where(cf > 0, -p * np.log2(p), 0.0)
    out = terms.sum(axis=1) + 0.0  # normalize -0.0 from single-class rows
    out[n == 0] = 0.0
    return out


def _gini_rows(counts: np.ndarray) -> np.ndarray:
    n = counts.sum(axis=1)
    sq = (counts * counts).sum(axis=1)
    out = np.zeros(counts.shape[0], dtype=np.float64)
    nz = n > 0
    nf = n[nz].astype(np.float64)
    out[nz] = 1.0 - sq[nz].astype(np.float64) / (nf * nf)
    return out


def _r_rows(counts: np.ndarray) -> np.ndarray:
    # Number of unordered row pairs with different decisions; n^2 - sum(c^2)
    # is always even, so the integer division is exact.
    n = counts.sum(axis=1)
    sq = (counts * counts).sum(axis=1)
    return ((n * n - sq) // 2).astype(np.float64)


@dataclass(frozen=True)
class UncertaintyMeasure:
    """A named measure with scalar and vectorized evaluation forms."""

    name: str
    _rows_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def evaluate(self, sub: SubtableRef) -> float:
        return self.of_counts(sub.decision_counts())

    __call__ = evaluate

    def of_counts(self, counts) -> float:
        arr = np.asarray(counts, dtype=np.int64).reshape(1, -1)
        if arr.size == 0:
            return 0.0
        return float(self._rows_fn(arr)[0])

    def of_count_matrix(self, counts: np.ndarray) -> np.ndarray:
        """Evaluate one value per row of a (branches x decisions) count matrix."""
        return self._rows_fn(counts)


MEASURES: dict[str, UncertaintyMeasure] = {
    "me": UncertaintyMeasure("me", _me_rows),
    "rme": UncertaintyMeasure("rme", _rme_rows),
    "ent": UncertaintyMeasure("ent", _ent_rows),
    "gini": UncertaintyMeasure("gini", _gini_rows),
    "r": UncertaintyMeasure("r", _r_rows),
}


def get_measure(name: str) -> UncertaintyMeasure:
    try:
        return MEASURES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown uncertainty measure {name!r}; expected one of {sorted(MEASURES)}"
        ) from None

