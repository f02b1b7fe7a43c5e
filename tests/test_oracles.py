"""The reference implementations: independent of the package they check, and well defined."""

import ast
import random
from pathlib import Path

from hypotree import EquationSystem, build_tree, get_measure, select_query

import oracles
from test_properties import SHARED_TIE

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_only_decision_table_from_the_package():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    from_package = [name for name in imported if name.split(".")[0] == "hypotree"]
    assert from_package == ["hypotree.DecisionTable"]



def test_one_multiset_of_labels_has_one_value():
    rng = random.Random(3)
    labels = [1, 2, 3, 3, 4, 4, 4, 5, 6, 6]
    for name in ("me", "rme", "ent", "gini", "r"):
        values = {oracles.measure_value(name, [3, 3, 4, 4, 1, 2])}
        values.add(oracles.measure_value(name, [1, 2, 3, 3, 4, 4]))
        assert len(values) == 1, name
        values = set()
        for _ in range(200):
            rng.shuffle(labels)
            values.add(oracles.measure_value(name, labels))
        assert len(values) == 1, name


def test_worst_branches_with_one_multiset_follow_the_tie_rules():
    # The worst branch of every attribute and proper row of least ``ent``
    # impurity has the decision counts {1, 1, 2, 2}, in different decision
    # orders: the lowest attribute and the earliest row must win, as in the tree.
    table = SHARED_TIE
    rows = range(table.n_rows)
    assert oracles.brute_best_attribute(table, rows, "ent")[0] == 1
    assert oracles.brute_proper_row(table, rows, "ent") == 4
    whole = table.subtable(EquationSystem([]))
    assert select_query(whole, get_measure("ent"), 1)[0].attribute == 1
    assert build_tree(table, 4, "ent").query(0).hypothesis.values == (1, 1, 5, 4)
