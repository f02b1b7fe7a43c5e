"""The benchmark's workloads: how each makes its tables and which cells it runs.

A cell is one table x measure x tree type, the unit ``hypotree experiment``
runs and the benchmark counts as one operation.  ``prepare`` makes any raw
input the benchmark generates itself (untimed); ``setup`` turns it into
decision tables through the package and is what ``setup_s`` times.  Each
workload also names checks of its own, made from the independent checker's
results, never from stored output.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import checker

TIC_TAC_TOE_DEPTH = 7  # the paper's depth for tic-tac-toe, types 2 and 3, me
BOOL_N, BOOL_SEED, BOOL_FUNCTIONS = 8, 42, 2


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[], object]
    setup: Callable  # (hypotree, call, raw) -> {key: DecisionTable}
    cells: Callable  # (tables) -> [(key, measure, tree_type)]
    greedy_nodes: int  # internal nodes per tree given the exhaustive check
    check: Callable  # (tables, cells, check results, texts) -> [problem]
    extra_check: Callable | None = None  # (hypotree, tables, seed) -> [problem], untimed


def _nothing():
    return None


# --- ttt-hyp -----------------------------------------------------------------

CENTRE = 4  # index of the centre square; boards encode x 0, o 1, blank 2
CENTRE_VALUES = {"x": 0, "o": 1, "blank": 2}


def _ttt_setup(hypotree, call, raw):
    """The full table and its three sub-tables by the centre square."""
    generate = hypotree.datasets.tic_tac_toe
    clear = getattr(generate, "cache_clear", None)
    if clear is not None:
        clear()  # set up for real on every repeat, as a fresh process would
    full = call("datasets.generate", generate)
    rows, decisions = full.values.tolist(), full.decisions.tolist()
    tables = {"tic-tac-toe": full}
    for name, value in CENTRE_VALUES.items():
        keep = [i for i, row in enumerate(rows) if row[CENTRE] == value]
        tables[f"tic-tac-toe/centre={name}"] = hypotree.DecisionTable(
            full.attribute_names, [rows[i] for i in keep], [decisions[i] for i in keep])
    return tables


def _ttt_cells(tables):
    return [(f"tic-tac-toe/centre={name}", "me", k) for name in CENTRE_VALUES for k in (2, 3)]


def _x_wins(board) -> bool:
    lines = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8),
             (0, 4, 8), (2, 4, 6)]
    return any(board[a] == board[b] == board[c] == 0 for a, b, c in lines)


def _ttt_check(tables, cells, results, texts):
    table = tables["tic-tac-toe"]
    problems = []
    rows = table.values.tolist()
    if len(rows) != 958 or table.n != 9:
        problems.append(f"tic-tac-toe has {len(rows)} rows x {table.n} attributes")
    # Encoding x 0, o 1, blank 2; decision 0 exactly when x has a line.
    for row, decision in zip(rows, table.decisions.tolist()):
        if (decision == 0) != _x_wins(row):
            problems.append(f"tic-tac-toe board {row} has decision {decision}")
            break
    parts = [tables[f"tic-tac-toe/centre={name}"] for name in CENTRE_VALUES]
    if sorted(r for t in parts for r in map(tuple, t.values.tolist())) != sorted(map(tuple, rows)):
        problems.append("the centre sub-tables do not partition the tic-tac-toe boards")
    return problems


def _ttt_full_table_depth(hypotree, tables, seed):
    """The paper's depth on the full table, type 3, checked untimed each run."""
    table = tables["tic-tac-toe"]
    tree = hypotree.build_tree(table, 3, "me")
    result = checker.check_tree(
        tree.serialize(),
        checker.Table(table.attribute_names, table.values.tolist(), table.decisions.tolist()),
        3, "me", greedy_nodes=8, rng=random.Random(f"{seed}/full"))
    problems = [f"tic-tac-toe t3/me: {v}" for v in result.violations[:3]]
    if result.ok and abs(result.h - TIC_TAC_TOE_DEPTH) > 1:
        problems.append(f"tic-tac-toe t3/me depth {result.h}, paper {TIC_TAC_TOE_DEPTH} +-1")
    if result.ok and hypotree.depth(tree) != result.h:
        problems.append(f"tic-tac-toe t3/me: program depth {hypotree.depth(tree)}, "
                        f"checker {result.h}")
    return problems


# --- bool-proper -------------------------------------------------------------


def _bool_setup(hypotree, call, raw):
    boolgen = hypotree.boolgen
    tables = {}
    for index in range(BOOL_FUNCTIONS):
        f = call("boolgen.generate", boolgen.random_function, BOOL_N, BOOL_SEED, index)
        tables[f"bool{BOOL_N}#{index}"] = call("boolgen.generate", boolgen.table_of, f)
    return tables


def _bool_cells(tables):
    return [(key, m, k) for key in tables for m in ("me", "ent") for k in (3, 5)]


def _bool_check(tables, cells, results, texts):
    problems = []
    grid = [list(bits) for bits in itertools.product((0, 1), repeat=BOOL_N)]
    for key, table in tables.items():
        if table.values.tolist() != grid:
            problems.append(f"{key}: rows are not {{0,1}}^{BOOL_N} in order")
    # On complete tables every measure gives the same tree, and types 3 and
    # 5 coincide: all four trees of one function must be byte-identical.
    by_table: dict[str, set[str]] = {}
    for (key, _, _), text in zip(cells, texts):
        by_table.setdefault(key, set()).add(text)
    for key, variants in by_table.items():
        if len(variants) != 1:
            problems.append(f"{key}: me/ent x t3/t5 trees differ ({len(variants)} variants)")
    return problems


# --- tiny-corpus -------------------------------------------------------------


def _tiny_prepare():
    """All 5368 tables with <=3 binary attributes, <=6 rows, binary decisions."""
    corpus = []
    for n in range(1, 4):
        grid = list(itertools.product((0, 1), repeat=n))
        for size in range(1, min(6, len(grid)) + 1):
            for rows in itertools.combinations(grid, size):
                for decisions in itertools.product((0, 1), repeat=size):
                    corpus.append((n, rows, decisions))
    return corpus


def _tiny_setup(hypotree, call, raw):
    names = ("f1", "f2", "f3")
    return {
        f"tiny#{i}": hypotree.DecisionTable(names[:n], rows, decisions)
        for i, (n, rows, decisions) in enumerate(raw)
    }


def _tiny_cells(tables):
    return [(key, "me", k) for key in tables for k in (1, 2, 3, 4, 5)]


def _tiny_check(tables, cells, results, texts):
    if len(tables) != 5368:
        return [f"corpus has {len(tables)} tables, expected 5368"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ttt-hyp", _nothing, _ttt_setup, _ttt_cells, 12, _ttt_check,
                 _ttt_full_table_depth),
        Workload("bool-proper", _nothing, _bool_setup, _bool_cells, 8, _bool_check),
        Workload("tiny-corpus", _tiny_prepare, _tiny_setup, _tiny_cells, 1, _tiny_check),
    )
}
