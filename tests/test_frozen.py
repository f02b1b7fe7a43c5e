"""Every tree and rule set of the frozen digest corpus, rebuilt and compared.

The Boolean suites are compared in ``test_acceptance.py``, which reuses the
criterion-4 sweep instead of building them again.
"""

import pytest

import frozen

CORPUS = frozen.load()
RECORDS = CORPUS["trees"]
RULES = CORPUS["rules"]
TABLES = frozen.corpus_tables()


@pytest.mark.parametrize(
    "name, measure, tree_type",
    [pytest.param(*case, id=frozen.key(*case)) for case in frozen.cases()],
)
def test_tree_matches_frozen_record(name, measure, tree_type):
    expect = RECORDS[frozen.key(name, measure, tree_type)]
    assert frozen.tree_record(TABLES[name], tree_type, measure) == expect


def test_corpus_covers_every_case():
    assert sorted(RECORDS) == sorted(frozen.key(*case) for case in frozen.cases())


@pytest.mark.parametrize(
    "name, measure, tree_type",
    [pytest.param(*case, id=frozen.key(*case)) for case in frozen.rule_cases()],
)
def test_rules_match_frozen_record(name, measure, tree_type):
    expect = RULES[frozen.key(name, measure, tree_type)]
    assert frozen.rules_record(TABLES[name], tree_type, measure) == expect


def test_rules_corpus_covers_every_case():
    assert sorted(RULES) == sorted(frozen.key(*case) for case in frozen.rule_cases())
