#!/usr/bin/env python3
"""Print the CPU time of building and of routing trees, per table size.

Each tree pass has a node-by-node or plain-Python form for small work and a
NumPy form for wide work; ``_WIDE_FRONTIER`` and ``_WIDE_ROUTING`` in
``src/hypotree/builder.py`` pick between them.  This script times both
passes under three settings each, on the package under ``src/``:

* build (``build_tree``): every level node by node, every level batched,
  and as shipped;
* routing (``DecisionTree.route_rows``' pass and the readers over it,
  ``rules._row_optima`` and ``metrics.validate``, which ``_WIDE_ROUTING``
  switches with it): every tree in plain Python, every tree in NumPy, and
  as shipped.  A tree keeps its routing, so each round times fresh trees
  over the same arena.

The inputs are seeded random tables of 4-63 rows and 2-9 attributes of 2-4
values, with two or three decision values, and the Boolean suites n=3..6
(100 functions each, seed 42), each built as t1-t5 under ``me``.  The
settings take turns within each round; a group's figure is its trees' mean
CPU microseconds in the best round, and a total is the sum of a round's
times, given as the median and the range over the rounds.  The routing
report ends with the threshold, in table rows, that the best-round figures
favour: every group below it routed in Python, every group from it in
NumPy.  It is a measurement, not a test:

    python3 scripts/crossover.py [--rounds 3] [--passes build,routing]

The defaults take about four minutes on a 2-core host, most of it building
the larger tables node by node; ``--passes routing`` takes about one.
"""

from __future__ import annotations

import argparse
import gc
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hypotree.builder as builder  # noqa: E402
from hypotree import BoolSuiteSpec, DecisionTable, build_tree, table_of, validate  # noqa: E402
from hypotree.rules import _row_optima  # noqa: E402

TYPES = (1, 2, 3, 4, 5)
MEASURE = "me"
BOOL_NS = (3, 4, 5, 6)
SEED = 1
TABLES_PER_SIZE = 12  # random tables of each size from 4 to 63 rows
EVERY, NEVER = 0, 1 << 62
BUILD_SETTINGS = {"node by node": NEVER, "batched": 1, "shipped": builder._WIDE_FRONTIER}
ROUTE_SETTINGS = {"python": NEVER, "numpy": EVERY, "shipped": builder._WIDE_ROUTING}


def random_table(rng: random.Random, n_rows: int) -> DecisionTable:
    """Distinct random rows over 2-9 attributes of 2-4 values; two decisions at least."""
    while True:
        sizes = [rng.randint(2, 4) for _ in range(rng.randint(2, 9))]
        if np.prod(sizes) >= n_rows:
            break
    picked = rng.sample(range(int(np.prod(sizes))), n_rows)
    values = []
    for index in picked:  # mixed-radix digits, last attribute lowest
        row = []
        for size in reversed(sizes):
            index, digit = divmod(index, size)
            row.append(digit)
        values.append(row[::-1])
    labels = rng.randint(2, 3)
    decisions = [rng.randrange(labels) for _ in range(n_rows)]
    if len(set(decisions)) == 1:
        decisions[0] = (decisions[0] + 1) % labels
    names = [f"f{i + 1}" for i in range(len(sizes))]
    return DecisionTable(names, np.array(values), np.array(decisions))


def groups() -> dict[str, list[DecisionTable]]:
    """The input tables by group: one per random table size, one per Boolean suite.

    Every table of a group has the same number of rows.
    """
    rng = random.Random(SEED)
    out = {
        f"{m:>2} rows": [random_table(rng, m) for _ in range(TABLES_PER_SIZE)]
        for m in range(4, 64)
    }
    for n in BOOL_NS:
        out[f"bool n={n}"] = [table_of(f) for f in BoolSuiteSpec(n).functions]
    return out


def timed(work) -> int:
    """CPU nanoseconds of ``work()``, with the garbage collector off."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time_ns()
        work()
        return time.process_time_ns() - start
    finally:
        gc.enable()


def fresh(tree: builder.DecisionTree) -> builder.DecisionTree:
    """A tree over the same arena that has neither routing nor views yet."""
    return builder.DecisionTree(tree.base, tree.tree_type, tree.measure_name, tree._kind,
                                tree._label, tree._first, tree._nrows, tree._hyp_codes,
                                tree._starts)


def route_and_read(tree: builder.DecisionTree) -> None:
    """The routing pass and the readers that share its form, as a grid cell calls them."""
    _row_optima(tree.base, tree, tree.route_rows())
    validate(tree.base, tree)


def time_settings(jobs: dict[str, list], constant: str, settings: dict[str, int], run,
                  rounds: int, prepare=list):
    """``ns[setting][group]``: one CPU time per round of running every job of the group.

    ``prepare`` makes each round's items from a group's jobs, untimed.
    """
    ns = {s: {g: [] for g in jobs} for s in settings}
    names = list(settings)
    for round_ in range(rounds):
        turn = names[round_ % len(names):] + names[: round_ % len(names)]
        for setting in turn:
            setattr(builder, constant, settings[setting])
            for group, items in jobs.items():
                items = prepare(items)
                ns[setting][group].append(timed(lambda: [run(item) for item in items]))
    return ns


def report(title: str, jobs: dict[str, list], ns) -> None:
    settings = list(ns)
    print(f"{title}: CPU µs per tree, best round")
    print(f"{'group':<10} {'trees':>5}" + "".join(f" {s:>13}" for s in settings))
    for group, items in jobs.items():
        cells = [min(ns[s][group]) / 1000 / len(items) for s in settings]
        print(f"{group:<10} {len(items):>5}" + "".join(f" {c:>13.1f}" for c in cells))
    for part, pick in (("random", "rows"), ("bool", "bool")):
        picked = [g for g in jobs if pick in g]
        print(f"total {part} (s, median [min-max] of rounds):")
        for s in settings:
            totals = [sum(col) / 1e9 for col in zip(*(ns[s][g] for g in picked))]
            print(
                f"  {s:<13} {statistics.median(totals):.3f} "
                f"[{min(totals):.3f}-{max(totals):.3f}]"
            )


def best_threshold(trees: dict[str, list], ns) -> None:
    """The table size from which NumPy routing costs least in total, by best rounds."""
    rows = {g: trees[g][0].base.n_rows for g in trees}
    in_python = {g: min(ns["python"][g]) for g in trees}
    in_numpy = {g: min(ns["numpy"][g]) for g in trees}
    total = {
        k: sum(in_python[g] if rows[g] < k else in_numpy[g] for g in trees) / 1e9
        for k in sorted(set(rows.values()) | {max(rows.values()) + 1})
    }
    best = min(total, key=total.get)
    print(f"python below k rows, numpy from k (s, best rounds): least at k = {best}")
    for k in sorted({min(total), best, builder._WIDE_ROUTING, max(total)} & set(total)):
        print(f"  k = {k:<3} {total[k]:.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--passes", default="build,routing",
                        help="comma-separated: build, routing or both")
    args = parser.parse_args()
    passes = set(args.passes.split(","))
    if not passes <= {"build", "routing"}:
        parser.error(f"unknown pass in {args.passes!r}")

    tables = groups()
    builds = {g: [(t, k) for t in ts for k in TYPES] for g, ts in tables.items()}
    print(
        f"_WIDE_FRONTIER = {builder._WIDE_FRONTIER}, _WIDE_ROUTING = {builder._WIDE_ROUTING}; "
        f"{args.rounds} rounds\n"
    )
    if "build" in passes:
        ns = time_settings(builds, "_WIDE_FRONTIER", BUILD_SETTINGS,
                           lambda job: build_tree(job[0], job[1], MEASURE), args.rounds)
        builder._WIDE_FRONTIER = BUILD_SETTINGS["shipped"]
        report("build", builds, ns)
        print()
    if "routing" in passes:
        trees = {g: [build_tree(t, k, MEASURE) for t, k in jobs] for g, jobs in builds.items()}
        ns = time_settings(trees, "_WIDE_ROUTING", ROUTE_SETTINGS, route_and_read,
                           args.rounds, prepare=lambda items: [fresh(t) for t in items])
        builder._WIDE_ROUTING = ROUTE_SETTINGS["shipped"]
        report("routing and its readers", trees, ns)
        best_threshold(trees, ns)


if __name__ == "__main__":
    main()
