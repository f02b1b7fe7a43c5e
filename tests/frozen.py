"""The frozen digest corpus: which trees it covers and what it records of each.

``tests/data/frozen_digests.json`` holds these records as the builder made
them before the rewrites they guard (the per-node builder for the first
corpus, the level-batched one for the whole tic-tac-toe and Boolean n=7, 8
cases); ``scripts/freeze_digests.py`` writes the file and
``tests/test_frozen.py`` rebuilds every tree and compares, so any rewrite of
the builder must reproduce the old trees byte for byte.

The corpus is every (table, measure, type) of balance-scale and the three
tic-tac-toe sub-tables by the centre square, plus the proper-hypothesis
types on tables they alone exercise: the whole tic-tac-toe table (t4 under
me, t5 under me and ent) and functions 0-1 of the Boolean suites n=7 and
n=8 (seed 42), x me/ent x t4/t5, whose 128 and 256 rows fill exactly two
and four 64-row words where the centre sub-tables end mid-word.

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
    random_function,
    realizable_count,
    rule_stats,
    table_of,
    tic_tac_toe,
)

DATA = Path(__file__).resolve().parent / "data" / "frozen_digests.json"

MEASURES = ("me", "rme", "ent", "gini", "r")
TYPES = (1, 2, 3, 4, 5)
BOOL_NS = (3, 4, 5, 6)
CENTRE = 4  # tic-tac-toe boards encode x 0, o 1, blank 2
CENTRE_VALUES = {"x": 0, "o": 1, "blank": 2}
PROPER_SEED = 42
PROPER_NS = (7, 8)
PROPER_FUNCTIONS = (0, 1)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def ttt_centre(value: int) -> DecisionTable:
    """The tic-tac-toe boards whose centre square holds ``value``."""
    full = tic_tac_toe()
    keep = full.values[:, CENTRE] == value
    return DecisionTable(full.attribute_names, full.values[keep], full.decisions[keep])


def _bool_name(n: int, index: int) -> str:
    return f"bool n={n} #{index}"


def corpus_tables() -> dict[str, DecisionTable]:
    tables = {"balance-scale": balance_scale()}
    for name, value in CENTRE_VALUES.items():
        tables[f"tic-tac-toe/centre={name}"] = ttt_centre(value)
    tables["tic-tac-toe"] = tic_tac_toe()
    for n in PROPER_NS:
        for index in PROPER_FUNCTIONS:
            tables[_bool_name(n, index)] = table_of(random_function(n, PROPER_SEED, index))
    return tables


def cases() -> list[tuple[str, str, int]]:
    """Every (table name, measure, type) the corpus records."""
    names = ["balance-scale"] + [f"tic-tac-toe/centre={name}" for name in CENTRE_VALUES]
    out = [(name, m, k) for name in names for m in MEASURES for k in TYPES]
    out += [("tic-tac-toe", "me", 4), ("tic-tac-toe", "me", 5), ("tic-tac-toe", "ent", 5)]
    out += [
        (_bool_name(n, index), m, k)
        for n in PROPER_NS
        for index in PROPER_FUNCTIONS
        for m in ("me", "ent")
        for k in (4, 5)
    ]
    return out


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
