"""Query answers, admissibility, impurity, and greedy selection."""

import itertools
import random

import numpy as np
import pytest

from hypotree import (
    AttributeQuery,
    ConstraintError,
    DecisionTable,
    EquationSystem,
    Hypothesis,
    HypothesisQuery,
    MEASURES,
    SubtableRef,
    answers,
    get_measure,
    impurity,
    is_admissible_attribute,
    is_admissible_hypothesis,
    is_proper,
    select_query,
)

from hypotree.queries import branch_stats

import oracles

ME = get_measure("me")
GINI = get_measure("gini")


class TestAnswers:
    def test_attribute_answers_ascending(self, t0):
        assert answers(AttributeQuery(0), t0) == [
            EquationSystem([(0, 0)]),
            EquationSystem([(0, 1)]),
        ]

    def test_attribute_answers_with_value_gaps(self):
        t = DecisionTable(
            ("a", "b"),
            np.array([(5, 0), (0, 0), (2, 1)]),
            np.array([0, 1, 1]),
        )
        assert answers(AttributeQuery(0), t) == [
            EquationSystem([(0, 0)]),
            EquationSystem([(0, 2)]),
            EquationSystem([(0, 5)]),
        ]

    def test_hypothesis_answers_canonical_order(self, t0):
        got = answers(HypothesisQuery(Hypothesis((0, 1, 0))), t0)
        assert got == [
            EquationSystem([(0, 0), (1, 1), (2, 0)]),
            EquationSystem([(0, 1)]),
            EquationSystem([(1, 0)]),
            EquationSystem([(2, 1)]),
        ]

    def test_answer_count_is_one_plus_branches_minus_n(self, t0):
        got = answers(HypothesisQuery(Hypothesis((1, 1, 1))), t0)
        assert len(got) == 1 + t0.total_branches - t0.n

    def test_answers_match_oracle_row_sets(self, t0):
        rows = list(range(t0.n_rows))
        for a, expect in zip(
            answers(AttributeQuery(2), t0),
            oracles.attribute_answer_rows(t0, rows, 2),
        ):
            assert list(t0.subtable(a).selected) == expect
        h = (0, 0, 0)
        for a, expect in zip(
            answers(HypothesisQuery(Hypothesis(h)), t0),
            oracles.hypothesis_answer_rows(t0, rows, h),
        ):
            assert list(t0.subtable(a).selected) == expect

    def test_invalid_hypotheses_rejected(self, t0):
        with pytest.raises(ConstraintError):
            answers(HypothesisQuery(Hypothesis((0, 0))), t0)  # wrong arity
        with pytest.raises(ConstraintError):
            answers(HypothesisQuery(Hypothesis((0, 0, 7))), t0)  # bad value


class TestAdmissibility:
    def test_proper_iff_row(self, t0):
        assert is_proper(Hypothesis((0, 0, 0)), t0)
        assert is_proper(Hypothesis((1, 1, 0)), t0)
        assert not is_proper(Hypothesis((0, 1, 0)), t0)
        # On a gapped alphabet the row (0, 7) has codes (0, 1), which are
        # also values of the table but not a row of it.
        gapped = DecisionTable(("a", "b"), np.array([(0, 7), (1, 1)]), np.array([0, 1]))
        assert is_proper(Hypothesis((0, 7)), gapped)
        assert not is_proper(Hypothesis((0, 1)), gapped)

    def test_attribute_admissible_iff_nonconstant(self, t0):
        sub = t0.subtable(EquationSystem([(0, 0)]))
        assert not is_admissible_attribute(0, sub)
        assert is_admissible_attribute(1, sub)
        assert is_admissible_attribute(0, t0.all_rows())

    def test_hypothesis_pinned_to_constants(self, t0):
        sub = t0.subtable(EquationSystem([(0, 0)]))
        assert is_admissible_hypothesis(Hypothesis((0, 1, 0)), sub)
        assert not is_admissible_hypothesis(Hypothesis((1, 0, 0)), sub)
        assert is_admissible_hypothesis(Hypothesis((1, 0, 0)), t0.all_rows())

    def test_admissibility_on_an_empty_subtable(self, t0):
        empty = t0.subtable(EquationSystem([(0, 0), (2, 0), (1, 1)]))
        assert empty.n_rows == 0
        assert all(is_admissible_attribute(i, empty) for i in range(t0.n))
        assert is_admissible_hypothesis(Hypothesis((1, 0, 0)), empty)
        with pytest.raises(ConstraintError):
            is_admissible_attribute(3, empty)
        with pytest.raises(ConstraintError):
            is_admissible_attribute(-1, t0.all_rows())


class TestImpurityAndSelection:
    def test_t0_attribute_impurities(self, t0):
        full = t0.all_rows()
        assert impurity(AttributeQuery(0), full, ME) == 0.0
        assert impurity(AttributeQuery(1), full, ME) == 1.0
        assert impurity(AttributeQuery(2), full, ME) == 1.0

    def test_best_attribute(self, t0):
        q, imp = select_query(t0.all_rows(), ME, 1)
        assert (q.attribute, imp) == (0, 0.0)

    def test_best_hypothesis_canonical(self, t0):
        q, imp = select_query(t0.all_rows(), ME, 2)
        assert q.hypothesis.values == (0, 0, 0)
        assert imp == 1.0
        q, imp = select_query(t0.all_rows(), GINI, 2)
        assert q.hypothesis.values == (0, 0, 0)
        assert imp == 0.5

    def test_best_hypothesis_forced_and_pinned(self, t0):
        # On {f2=1} the f2 branch must be dodged and f1, f3 stay free.
        sub = t0.subtable(EquationSystem([(1, 1)]))
        q, imp = select_query(sub, ME, 2)
        assert q.hypothesis.values == (0, 1, 0)
        assert imp == 0.0

    def test_best_proper(self, t0):
        q, imp = select_query(t0.all_rows(), ME, 4)
        assert q.hypothesis.values == (0, 0, 0)
        assert is_proper(q.hypothesis, t0)
        assert imp == 1.0

    def test_select_query_dispatch(self, t0):
        full = t0.all_rows()
        q1, i1 = select_query(full, ME, 1)
        assert isinstance(q1, AttributeQuery) and (q1.attribute, i1) == (0, 0.0)
        q2, i2 = select_query(full, ME, 2)
        assert isinstance(q2, HypothesisQuery) and i2 == 1.0
        q3, i3 = select_query(full, ME, 3)
        assert isinstance(q3, AttributeQuery) and i3 == 0.0
        q4, i4 = select_query(full, ME, 4)
        assert isinstance(q4, HypothesisQuery) and i4 == 1.0
        q5, i5 = select_query(full, ME, 5)
        assert isinstance(q5, AttributeQuery) and i5 == 0.0

    def test_equal_impurity_prefers_attribute(self, xor):
        q, imp = select_query(xor.all_rows(), ME, 3)
        assert isinstance(q, AttributeQuery)
        assert q.attribute == 0  # lowest index on the attribute tie as well
        assert imp == 1.0

    def test_degenerate_subtable_rejected(self, t0):
        sub = t0.subtable(EquationSystem([(0, 1)]))
        for tree_type in (1, 2, 3, 4, 5):
            with pytest.raises(ConstraintError):
                select_query(sub, ME, tree_type)

    def test_bad_tree_type_rejected(self, t0):
        with pytest.raises(ConstraintError):
            select_query(t0.all_rows(), ME, 6)

    @pytest.mark.parametrize("bad", [0, 2.0, True, "3", None])
    def test_tree_type_must_be_an_integer(self, t0, bad):
        with pytest.raises(ConstraintError, match="tree type must be an integer"):
            select_query(t0.all_rows(), ME, bad)


def random_table(rng: random.Random) -> DecisionTable:
    na = rng.randint(1, 3)
    grid = list(itertools.product(range(3), repeat=na))
    rows = rng.sample(grid, rng.randint(2, min(8, len(grid))))
    decisions = [rng.randint(0, 2) for _ in rows]
    if len(set(decisions)) == 1:
        decisions[0] = (decisions[0] + 1) % 3  # keep the table nondegenerate
    names = ("f1", "f2", "f3")[:na]
    return DecisionTable(names, np.array(rows), np.array(decisions))


class TestBruteForceAgreement:
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_selection_matches_exhaustive_search(self, name):
        rng = random.Random(1234)
        u = get_measure(name)
        for _ in range(40):
            t = random_table(rng)
            rows = list(range(t.n_rows))
            full = t.all_rows()

            got = select_query(full, u, 1)
            expect = oracles.brute_best_attribute(t, rows, name)
            assert got[0].attribute == expect[0]
            assert got[1] == pytest.approx(expect[1], abs=1e-12)

            q, imp = select_query(full, u, 2)
            h = q.hypothesis.values
            assert is_admissible_hypothesis(q.hypothesis, full)
            best = oracles.brute_best_hypothesis(t, rows, name)
            assert imp == pytest.approx(best, abs=1e-12)
            assert oracles.hypothesis_impurity(t, rows, h, name) == pytest.approx(
                best, abs=1e-12
            )

            q, imp = select_query(full, u, 4)
            assert is_proper(q.hypothesis, t)
            best = oracles.brute_best_proper_hypothesis(t, rows, name)
            assert imp == pytest.approx(best, abs=1e-12)
            assert oracles.hypothesis_impurity(
                t, rows, q.hypothesis.values, name
            ) == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_selection_on_subtables(self, name):
        rng = random.Random(99)
        u = get_measure(name)
        for _ in range(25):
            t = random_table(rng)
            attr = rng.randrange(t.n)
            value = rng.choice(t.value_set(attr))
            sub = t.subtable(EquationSystem([(attr, value)]))
            if sub.is_degenerate():
                continue
            rows = list(sub.selected)

            q, imp = select_query(sub, u, 2)
            assert is_admissible_hypothesis(q.hypothesis, sub)
            assert imp == pytest.approx(
                oracles.brute_best_hypothesis(t, rows, name), abs=1e-12
            )

            q, imp = select_query(sub, u, 4)
            assert is_proper(q.hypothesis, t)
            assert is_admissible_hypothesis(q.hypothesis, sub)
            assert imp == pytest.approx(
                oracles.brute_best_proper_hypothesis(t, rows, name), abs=1e-12
            )

            got = select_query(sub, u, 1)
            expect = oracles.brute_best_attribute(t, rows, name)
            assert got[0].attribute == expect[0]
            assert got[1] == pytest.approx(expect[1], abs=1e-12)


def varied_table(rng: random.Random) -> DecisionTable:
    """A table with gapped, often non-binary and sometimes single-valued columns."""
    n = rng.randint(1, 4)
    alphabets = [sorted(rng.sample(range(9), rng.randint(1, 4))) for _ in range(n)]
    grid = list(itertools.product(*alphabets))
    rows = rng.sample(grid, rng.randint(1, min(12, len(grid))))
    decision_values = rng.sample(range(10), rng.randint(1, 4))
    decisions = [rng.choice(decision_values) for _ in rows]
    names = tuple(f"f{i + 1}" for i in range(n))
    return DecisionTable(names, np.array(rows), np.array(decisions))


class TestBranchStats:
    """``branch_stats`` against each branch subtable, made from its definition."""

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_every_branch_matches_its_subtable(self, name):
        rng = random.Random(2027)
        measure = get_measure(name)
        shapes = set()
        for _ in range(60):
            table = varied_table(rng)
            widths = [len(value_set) for value_set in table.value_sets]
            shapes.add((table.n_decision_values, min(widths), max(widths)))
            for _ in range(3):
                size = rng.randint(0, table.n_rows)
                rows = np.array(sorted(rng.sample(range(table.n_rows), size)), dtype=np.int64)
                theta = SubtableRef(table, rows)
                stats = branch_stats(table, rows, measure)
                expected = {key: [] for key in ("u", "n", "mx", "am")}
                for i, value_set in enumerate(table.value_sets):
                    for v in value_set:
                        branch = theta.apply(EquationSystem([(i, v)]))
                        counts = branch.decision_counts()
                        expected["u"].append(measure.evaluate(branch))
                        expected["n"].append(branch.n_rows)
                        expected["mx"].append(int(counts.max()))
                        expected["am"].append(int(np.argmax(counts)))
                assert {key: getattr(stats, key) for key in expected} == expected
        # The draw covers one to four decision values, single-valued columns
        # and columns of more than two values.
        assert {d for d, _, _ in shapes} == {1, 2, 3, 4}
        assert any(low == 1 for _, low, _ in shapes)
        assert any(high > 2 for _, _, high in shapes)
