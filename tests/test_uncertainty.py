"""Uncertainty measures: pinned values, identities, and oracle agreement."""

import itertools
import math
import pickle
import random

import numpy as np
import pytest

from hypotree import DecisionTable, EquationSystem, MEASURES, UncertaintyMeasure, get_measure

from oracles import measure_value


me, rme, ent, gini, r = (get_measure(name) for name in ("me", "rme", "ent", "gini", "r"))


def table_of_labels(labels):
    """A one-attribute table whose rows carry the given decisions."""
    values = np.arange(len(labels)).reshape(-1, 1)
    return DecisionTable(("a",), values, np.array(labels))


class TestPinnedValues:
    def test_two_one_split(self):
        sub = table_of_labels([1, 1, 2]).all_rows()
        assert me(sub) == 1.0
        assert rme(sub) == pytest.approx(1 / 3)
        assert ent(sub) == pytest.approx(0.9182958340544896)
        assert gini(sub) == pytest.approx(4 / 9)
        assert r(sub) == 2.0

    def test_uniform_four_way(self):
        sub = table_of_labels([0, 1, 2, 3]).all_rows()
        assert me(sub) == 3.0
        assert rme(sub) == 0.75
        assert ent(sub) == pytest.approx(2.0)
        assert gini(sub) == 0.75
        assert r(sub) == 6.0

    def test_t0_full_table(self, t0):
        sub = t0.all_rows()
        assert me(sub) == 2.0
        assert rme(sub) == 0.5
        assert ent(sub) == pytest.approx(1.0)
        assert gini(sub) == 0.5
        assert r(sub) == 4.0

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_zero_iff_degenerate(self, name, t0):
        m = get_measure(name)
        empty = t0.subtable(EquationSystem([(0, 0), (1, 1), (2, 0)]))
        pure = t0.subtable(EquationSystem([(0, 1)]))
        assert m.evaluate(empty) == 0.0
        assert m.evaluate(pure) == 0.0
        assert m.evaluate(t0.all_rows()) > 0.0


class TestOracleAgreement:
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_random_label_multisets(self, name):
        rng = random.Random(20_240_815)
        m = get_measure(name)
        for _ in range(300):
            n = rng.randint(1, 40)
            labels = [rng.randint(0, 5) for _ in range(n)]
            sub = table_of_labels(labels).all_rows()
            assert m.evaluate(sub) == pytest.approx(
                measure_value(name, labels), rel=1e-12, abs=1e-12
            )

    def test_r_is_exact_integer_arithmetic(self):
        counts = [10**6, 10**6 - 1, 3]
        n = sum(counts)
        expected = (n * n - sum(c * c for c in counts)) // 2
        m = get_measure("r")
        assert m.of_counts(np.array(counts)) == expected
        assert float(expected) == m.of_counts(np.array(counts))


class TestIdentities:
    def test_r_gini_and_rme_me_relations(self):
        rng = random.Random(7)
        for _ in range(200):
            labels = [rng.randint(0, 4) for _ in range(rng.randint(1, 30))]
            sub = table_of_labels(labels).all_rows()
            n = len(labels)
            assert r(sub) == pytest.approx(n * n * gini(sub) / 2, rel=1e-9)
            assert rme(sub) == pytest.approx(me(sub) / n, rel=1e-12)

    def test_entropy_upper_bound(self):
        # ent <= log2(number of distinct decisions)
        rng = random.Random(11)
        for _ in range(100):
            labels = [rng.randint(0, 7) for _ in range(rng.randint(1, 50))]
            sub = table_of_labels(labels).all_rows()
            k = len(set(labels))
            assert ent(sub) <= math.log2(k) + 1e-12


class TestCountInterfaces:
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_of_counts_matches_evaluate(self, name, t0):
        m = get_measure(name)
        sub = t0.all_rows()
        assert m.of_counts(sub.decision_counts()) == pytest.approx(m.evaluate(sub))

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_of_count_matrix_rows(self, name):
        m = get_measure(name)
        mat = np.array([[2, 1, 0], [0, 0, 0], [3, 3, 3]])
        got = m.of_count_matrix(mat)
        for i in range(3):
            assert got[i] == pytest.approx(m.of_counts(mat[i]))

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_permuted_count_rows_tie_exactly(self, name):
        # A measure sees only the multiset of counts, so greedy ties between
        # branches must not depend on the order of their decision columns.
        rows = np.array(list(itertools.permutations([2, 4, 3, 0, 7])))
        got = get_measure(name).of_count_matrix(rows)
        assert (got == got[0]).all()

    def test_unknown_measure_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            get_measure("nope")


def cold(name):
    """A measure equal to ``name``'s with an empty memo of its own."""
    return UncertaintyMeasure(name, get_measure(name)._rows_fn)


def count_rows(rng, width):
    """Seeded distinct count rows of one width: all-zero, single-class and mixed ones."""
    rows = {(0,) * width}
    for at in range(width):
        rows.add(tuple(3 if i == at else 0 for i in range(width)))
    for _ in range(40):
        rows.add(tuple(rng.choice((0, 0, 1, 2, 3, 5, 11)) for _ in range(width)))
    return sorted(rows)


class TestMemo:
    """``of_count_matrix`` on a list of count tuples, read from the memo."""

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_same_doubles_as_the_array_form(self, name):
        rng = random.Random(2303)
        warm = cold(name)  # filled by every width and batch size before it
        for width in range(1, 12):
            rows = count_rows(rng, width)
            want = dict(zip(rows, map(float.hex, warm.of_count_matrix(np.array(rows)))))
            for size in (1, 3, 7, len(rows)):
                fresh = cold(name)
                for measure in (fresh, warm, fresh):  # cold, warm, then warm again
                    rng.shuffle(rows)
                    for at in range(0, len(rows), size):
                        batch = rows[at : at + size]
                        got = measure.of_count_matrix(batch)
                        assert type(got) is list and all(type(v) is float for v in got)
                        assert list(map(float.hex, got)) == [want[row] for row in batch]
                assert fresh._memo.keys() == set(rows)

    def test_permuted_rows_tie_exactly_under_ent(self):
        rows = list(itertools.permutations([2, 4, 3, 0, 7]))
        one_call = cold("ent").of_count_matrix(rows)
        measure = cold("ent")
        one_by_one = [v for row in rows for v in measure.of_count_matrix([row])]
        assert len(set(one_call + one_by_one)) == 1

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_the_memo_is_not_part_of_the_measure(self, name):
        filled = cold(name)
        filled.of_count_matrix([(1, 2), (0, 3), (4, 4)])
        assert len(filled._memo) == 3
        clone = pickle.loads(pickle.dumps(filled))
        for measure in (filled, clone, cold(name)):
            assert measure == get_measure(name)
            assert hash(measure) == hash(get_measure(name))
            assert repr(measure) == repr(get_measure(name)) == f"UncertaintyMeasure(name={name!r})"
        assert clone.of_count_matrix([(1, 2)]) == filled.of_count_matrix([(1, 2)])
