"""The frozen digest corpus: which trees it covers and what it records of each.

``tests/data/frozen_digests.json`` holds these records as the per-node
builder made them; ``scripts/freeze_digests.py`` writes the file and
``tests/test_frozen.py`` rebuilds every tree and compares, so any rewrite of
the builder must reproduce the old trees byte for byte.

Each tree is recorded by the SHA-256 of ``serialize()``, its depth ``h``,
its realizable-node count ``L`` and SHA-256 digests of the per-row rule
length ``l`` and coverage ``c`` arrays.  The Boolean suites are recorded per
(n, measure, type) as one digest over the 100 functions' records, the same
records the criterion-4 sweep in ``test_acceptance.py`` computes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from hypotree import (
    DecisionTable,
    balance_scale,
    build_tree,
    depth,
    realizable_count,
    rule_stats,
    tic_tac_toe,
)

DATA = Path(__file__).resolve().parent / "data" / "frozen_digests.json"

MEASURES = ("me", "rme", "ent", "gini", "r")
TYPES = (1, 2, 3, 4, 5)
BOOL_NS = (3, 4, 5, 6)
CENTRE = 4  # tic-tac-toe boards encode x 0, o 1, blank 2
CENTRE_VALUES = {"x": 0, "o": 1, "blank": 2}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def ttt_centre(value: int) -> DecisionTable:
    """The tic-tac-toe boards whose centre square holds ``value``."""
    full = tic_tac_toe()
    keep = full.values[:, CENTRE] == value
    return DecisionTable(full.attribute_names, full.values[keep], full.decisions[keep])


def corpus_tables() -> dict[str, DecisionTable]:
    tables = {"balance-scale": balance_scale()}
    for name, value in CENTRE_VALUES.items():
        tables[f"tic-tac-toe/centre={name}"] = ttt_centre(value)
    return tables


def tree_record(table: DecisionTable, tree_type: int, measure: str) -> dict:
    tree = build_tree(table, tree_type, measure)
    stats = rule_stats(table, tree)
    return {
        "serialize": _sha(tree.serialize()),
        "h": depth(tree),
        "L": realizable_count(table, tree),
        "l": _sha(",".join(map(str, stats.row_lengths.tolist()))),
        "c": _sha(",".join(map(str, stats.row_coverages.tolist()))),
    }


def bool_record(table: DecisionTable, tree_type: int, measure: str) -> tuple:
    """(digest, h, L, l, c) of one Boolean tree; ``l``/``c`` are None for type 1."""
    tree = build_tree(table, tree_type, measure)
    if tree_type == 1:
        length = coverage = None
    else:
        stats = rule_stats(table, tree)
        length = stats.average_length
        coverage = stats.average_coverage
    return (
        _sha(tree.serialize()),
        depth(tree),
        realizable_count(table, tree),
        length,
        coverage,
    )


def bool_suite_digest(records) -> str:
    """One digest over a suite's records, in function order."""
    return _sha("\n".join(repr(record) for record in records))


def key(name: str, measure: str, tree_type: int) -> str:
    return f"{name}/{measure}/t{tree_type}"


def load() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))
