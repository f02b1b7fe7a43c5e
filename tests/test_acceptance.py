"""Acceptance suite: one recorded pass/fail line per numbered criterion.

Every test funnels its verdict through ``record_criterion`` (see conftest),
so ``pytest -v`` shows one test per criterion and the terminal summary ends
with a ``criterion N: PASS/FAIL/SKIP`` line for each.  Criteria that need
fetched CSV datasets record an explicit SKIP pointing at
``scripts/fetch_uci.py`` rather than failing when the files are absent.

Criteria 4-6 share one cached sweep over the random Boolean suites
(n = 3..6, 100 functions each, seed 42): for every function, measure and
tree type the sweep stores the serialized tree's SHA-256 digest, the depth,
the realizable-node count and - for hypothesis-bearing types - the average
rule length and coverage.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time

import numpy as np
import pytest

import frozen
import oracles
from conftest import UCI_DIR, record_criterion, record_skip, uci_table
from test_queries import random_table

from hypotree import (
    DEFAULT_NODE_BUDGET,
    BoolSuiteSpec,
    DecisionTable,
    EquationSystem,
    ExperimentSpec,
    aggregate_bool,
    balance_scale,
    best_hypothesis,
    build_tree,
    depth,
    derive_rules,
    get_measure,
    realizable_count,
    render_bool_report,
    render_report,
    rule_stats,
    run_matrix,
    table_of,
    tic_tac_toe,
    validate,
)

MEASURES = ("me", "rme", "ent", "gini", "r")
TYPES = (1, 2, 3, 4, 5)
BOOL_NS = (3, 4, 5, 6)
SUITE_SIZE = 100


# --- criterion 1: balance-scale depth --------------------------------------


def test_criterion_1_balance_scale_depth():
    table = balance_scale()
    started = time.perf_counter()
    depths = {
        (m, k): depth(build_tree(table, k, m)) for m in MEASURES for k in TYPES
    }
    elapsed = time.perf_counter() - started
    wrong = {key: d for key, d in depths.items() if d != 4}
    ok = not wrong and elapsed < 10.0
    detail = (
        f"depth 4 in all 25 measure/type combos ({elapsed:.1f}s)"
        if ok
        else f"wrong cells {wrong}, {elapsed:.1f}s (limit 10s)"
    )
    record_criterion(1, ok, detail)


# --- criterion 2: realizable nodes and average rule length -----------------


def test_criterion_2_balance_scale_realizable():
    table = balance_scale()
    counts = {m: realizable_count(table, build_tree(table, 1, m)) for m in MEASURES}
    ok = all(count == 556 for count in counts.values())
    detail = (
        "balance-scale type-1 realizable nodes 556 under all five measures"
        if ok
        else f"balance-scale type-1 realizable nodes {counts} (want 556)"
    )
    record_criterion(2, ok, detail)


def test_criterion_2_soybean_rule_length():
    if not (UCI_DIR / "soybean-small.csv").is_file():
        record_skip(2, "soybean-small.csv not fetched; run scripts/fetch_uci.py")
    table = uci_table("soybean-small")
    stats = rule_stats(table, build_tree(table, 2, "me"))
    got = stats.average_length
    ok = abs(got - 1.00) <= 0.01
    record_criterion(
        2, ok, f"soybean-small type-2 me average rule length {got:.3f} (want 1.00±0.01)"
    )


# --- criterion 3: reference depths on the four larger datasets --------------

# Expected depth per tree type 1..5 for each measure (measure r is out of
# scope for this criterion).  Tic-tac-toe cells carry a ±1 tolerance; the
# other datasets must hit one uniform depth exactly in every combo.
TTT_EXPECTED = {
    "me": (7, 7, 7, 8, 7),
    "rme": (7, 8, 7, 8, 7),
    "ent": (7, 8, 7, 8, 7),
    "gini": (7, 8, 7, 8, 7),
}
UCI_UNIFORM_DEPTH = {"cars": 6, "hayes-roth": 4, "nursery": 8}


def test_criterion_3_tic_tac_toe_depth():
    table = tic_tac_toe()
    bad = []
    for m, expected in TTT_EXPECTED.items():
        got = tuple(depth(build_tree(table, k, m)) for k in TYPES)
        bad.extend(
            f"{m}/type {k}: depth {g} (want {e}±1)"
            for k, (g, e) in enumerate(zip(got, expected), start=1)
            if abs(g - e) > 1
        )
    detail = (
        "tic-tac-toe depths within ±1 of reference in all 20 measure/type combos"
        if not bad
        else "tic-tac-toe: " + "; ".join(bad)
    )
    record_criterion(3, not bad, detail)


@pytest.mark.parametrize("name", sorted(UCI_UNIFORM_DEPTH))
def test_criterion_3_uci_depth(name):
    if not (UCI_DIR / f"{name}.csv").is_file():
        record_skip(3, f"{name}.csv not fetched; run scripts/fetch_uci.py")
    table = uci_table(name)
    expected = UCI_UNIFORM_DEPTH[name]
    got = {
        (m, k): depth(build_tree(table, k, m)) for m in TTT_EXPECTED for k in TYPES
    }
    wrong = {key: d for key, d in got.items() if d != expected}
    detail = (
        f"{name}: depth {expected} in all 20 measure/type combos"
        if not wrong
        else f"{name}: wrong cells {wrong} (want {expected})"
    )
    record_criterion(3, not wrong, detail)


def test_criterion_3_nursery_default_budget():
    if not (UCI_DIR / "nursery.csv").is_file():
        record_skip(3, "nursery.csv not fetched; run scripts/fetch_uci.py")
    table = uci_table("nursery")
    started = time.perf_counter()
    tree = build_tree(table, 2, "me")
    elapsed = time.perf_counter() - started
    ok = tree.node_count <= DEFAULT_NODE_BUDGET and elapsed < 600.0
    record_criterion(
        3,
        ok,
        f"nursery type-2 me build finished: {tree.node_count} nodes in "
        f"{elapsed:.0f}s under the default budget",
    )


# --- criteria 4-6: random Boolean suites ------------------------------------


@pytest.fixture(scope="module")
def bool_results():
    """(digest, h, L, l, c) per (n, index, measure, type) over all suites.

    ``l``/``c`` are None for type 1, which no criterion consults.
    """
    started = time.perf_counter()
    out = {}
    for n in BOOL_NS:
        for idx, fn in enumerate(BoolSuiteSpec(n).functions):
            table = table_of(fn)
            for m in MEASURES:
                for k in TYPES:
                    out[(n, idx, m, k)] = frozen.bool_record(table, k, m)
    return out, time.perf_counter() - started


def test_boolean_suites_match_frozen_digests(bool_results):
    results, _ = bool_results
    expect = frozen.load()["bool_suites"]
    got = {
        frozen.key(f"bool n={n}", m, k): frozen.bool_suite_digest(
            results[(n, idx, m, k)] for idx in range(SUITE_SIZE)
        )
        for n in BOOL_NS
        for m in MEASURES
        for k in TYPES
    }
    assert got == expect


def test_criterion_4_boolean_depth(bool_results):
    results, elapsed = bool_results
    problems = []
    for n in (4, 5, 6):
        hs = [results[(n, idx, "me", 1)][1] for idx in range(SUITE_SIZE)]
        triple = (min(hs), sum(hs) / len(hs), max(hs))
        if triple != (n, float(n), n):
            problems.append(f"n={n} type-1 (min,avg,max)={triple}, want ({n},{n}.00,{n})")
    for n in BOOL_NS:
        avg = {
            k: sum(results[(n, idx, "me", k)][1] for idx in range(SUITE_SIZE))
            / SUITE_SIZE
            for k in (1, 2, 3)
        }
        if not (avg[3] <= avg[1] and avg[2] <= avg[1]):
            problems.append(f"n={n} average depths {avg} violate type ordering")
    if elapsed >= 300.0:
        problems.append(f"suite sweep took {elapsed:.0f}s (limit 300s)")
    detail = (
        f"n=4..6 type-1 depths exactly (n, n.00, n); type-2/3 averages ≤ type-1 "
        f"for n=3..6; sweep {elapsed:.0f}s"
        if not problems
        else "; ".join(problems)
    )
    record_criterion(4, not problems, detail)


def test_criterion_5_measure_independence(bool_results):
    results, _ = bool_results
    combos = mismatches = 0
    for n in BOOL_NS:
        for idx in range(SUITE_SIZE):
            for k in TYPES:
                combos += 1
                base = results[(n, idx, "me", k)][0]
                if any(results[(n, idx, m, k)][0] != base for m in MEASURES[1:]):
                    mismatches += 1
    record_criterion(
        5,
        mismatches == 0,
        f"{mismatches} of {combos} function/type combos differ across the five "
        "measures (serialized trees compared byte-for-byte)",
    )


def test_criterion_6_proper_hypothesis_collapse(bool_results):
    results, _ = bool_results
    combos = mismatches = 0
    for n in BOOL_NS:
        for idx in range(SUITE_SIZE):
            for m in MEASURES:
                for a, b in ((2, 4), (3, 5)):
                    combos += 1
                    if results[(n, idx, m, a)] != results[(n, idx, m, b)]:
                        mismatches += 1
    record_criterion(
        6,
        mismatches == 0,
        f"{mismatches} of {combos} tree pairs differ between types 2/4 or 3/5 "
        "(digests and h, L, l, c all compared)",
    )


# --- criterion 7: exhaustive small-instance checks ---------------------------


def test_criterion_7_exhaustive_small_tables():
    started = time.perf_counter()
    tables = oracles.enumerate_binary_tables()
    assert len(tables) == 5368
    problems: list[str] = []
    trees = 0
    for t in tables:
        full = t.all_rows()
        rows = list(range(t.n_rows))
        if not full.is_degenerate():
            for m in MEASURES:
                _, imp = best_hypothesis(full, get_measure(m))
                brute = oracles.brute_best_hypothesis(t, rows, m)
                if abs(imp - brute) > 1e-12:
                    problems.append(f"best_hypothesis {m}: {imp} vs brute {brute}")
        for m in MEASURES:
            for k in TYPES:
                tree = build_tree(t, k, m)
                trees += 1
                report = validate(t, tree)
                if not report.ok:
                    problems.append(f"validate {m}/{k}: {report.violations[:1]}")
                lib = realizable_count(t, tree)
                orc = oracles.oracle_realizable(t, tree)
                if lib != orc:
                    problems.append(f"realizable {m}/{k}: {lib} vs oracle {orc}")
                for rule in derive_rules(t, tree).rules:
                    sub = t.subtable(rule.premise)
                    sound = bool((t.decisions[sub.selected] == rule.decision).all())
                    if rule.coverage != sub.n_rows or not sound:
                        problems.append(f"rule {m}/{k}: {rule}")
        if len(problems) > 5:
            break
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 120.0
    detail = (
        f"{len(tables)} tables, {trees} trees: validation, realizable counts, "
        f"best-hypothesis optimality and rule soundness all agree ({elapsed:.0f}s)"
        if ok
        else "; ".join(problems[:3]) + f" ({elapsed:.0f}s, limit 120s)"
    )
    record_criterion(7, ok, detail)


# --- criterion 8: measure identities -----------------------------------------


def _random_system(table: DecisionTable, rng: random.Random) -> EquationSystem:
    items = [
        (a, rng.choice(table.value_set(a)))
        for a in range(table.n)
        if rng.random() < 0.4
    ]
    return EquationSystem(items)


def test_criterion_8_measure_identities():
    me, rme, gini, r = (get_measure(name) for name in ("me", "rme", "gini", "r"))
    all_measures = tuple(get_measure(name) for name in MEASURES)
    rng = random.Random(20240815)

    # Degenerate inputs: a constant-decision table and an empty subtable
    # (no row of ``diag`` satisfies f1=0 together with f2=1).
    constant = DecisionTable(
        ("f1", "f2"), np.array([(0, 0), (0, 1), (1, 0)]), np.array([7, 7, 7])
    )
    diag = DecisionTable(("f1", "f2"), np.array([(0, 0), (1, 1)]), np.array([1, 2]))
    empty = diag.subtable(EquationSystem([(0, 0), (1, 1)]))
    assert empty.n_rows == 0
    zero_ok = all(
        u(sub) == 0.0 for sub in (constant.all_rows(), empty) for u in all_measures
    )

    checked = 0
    worst_r = worst_rme = 0.0
    identities_ok = True
    while checked < 1000:
        table = random_table(rng)
        sub = table.subtable(_random_system(table, rng))
        checked += 1
        n_rows = sub.n_rows
        if sub.is_degenerate():
            if any(u(sub) != 0.0 for u in all_measures):
                zero_ok = False
            continue
        r_v, gini_v, me_v, rme_v = r(sub), gini(sub), me(sub), rme(sub)
        expected_r = n_rows * n_rows * gini_v / 2.0
        expected_rme = me_v / n_rows
        worst_r = max(worst_r, abs(r_v - expected_r) / abs(expected_r))
        worst_rme = max(worst_rme, abs(rme_v - expected_rme) / abs(expected_rme))
        if not (
            math.isclose(r_v, expected_r, rel_tol=1e-9)
            and math.isclose(rme_v, expected_rme, rel_tol=1e-9)
        ):
            identities_ok = False
    ok = zero_ok and identities_ok
    record_criterion(
        8,
        ok,
        f"r = N²·gini/2 and rme = me/N on {checked} random subtables "
        f"(worst rel errors {worst_r:.1e}, {worst_rme:.1e}); degenerate inputs "
        "all exactly 0.0",
    )


# --- criterion 9: deterministic experiment reports ---------------------------


def test_criterion_9_deterministic_reports():
    spec = ExperimentSpec(
        datasets=("gen:balance-scale", "bool:n=3,count=5,seed=7"),
        measures=("me", "gini"),
        tree_types=(1, 2, 3),
        metrics=("h", "L", "l", "c"),
        workers=1,
    )

    def render(s: ExperimentSpec) -> str:
        cells = run_matrix(s)
        return render_report(cells, "markdown") + "\n" + render_report(cells, "csv")

    first = render(spec)
    second = render(spec)
    eight = render(dataclasses.replace(spec, workers=8))

    bool_spec = ExperimentSpec(
        datasets=("bool:n=3,count=5,seed=7",),
        measures=("me",),
        tree_types=(1, 2),
        metrics=("h", "L"),
        workers=1,
    )
    bool_one = render_bool_report(aggregate_bool(run_matrix(bool_spec)), "markdown")
    bool_eight = render_bool_report(
        aggregate_bool(run_matrix(dataclasses.replace(bool_spec, workers=8))),
        "markdown",
    )

    ok = first == second == eight and bool_one == bool_eight
    record_criterion(
        9,
        ok,
        "repeated runs and worker counts 1 vs 8 render byte-identical reports "
        "(grid and Boolean-suite formats)",
    )
