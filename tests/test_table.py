"""Decision-table core: construction, subtables, statistics, equation systems."""

import numpy as np
import pytest

from hypotree import (
    ConstraintError,
    DecisionTable,
    EquationSystem,
    Hypothesis,
    is_admissible_attribute,
    is_proper,
)
from hypotree.table import SubtableRef


class TestEquationSystem:
    def test_items_sorted_and_deduplicated(self):
        s = EquationSystem([(2, 5), (0, 1), (2, 5)])
        assert s.items() == ((0, 1), (2, 5))
        assert len(s) == 2
        assert list(s) == [(0, 1), (2, 5)]
        assert (2, 5) in s and (2, 4) not in s

    def test_conflicting_values_rejected(self):
        with pytest.raises(ConstraintError):
            EquationSystem([(1, 0), (1, 2)])

    def test_union(self):
        a = EquationSystem([(0, 1)])
        b = EquationSystem([(2, 3), (0, 1)])
        assert a.union(b).items() == ((0, 1), (2, 3))
        with pytest.raises(ConstraintError):
            a.union(EquationSystem([(0, 2)]))

    def test_equality_and_hash(self):
        a = EquationSystem([(0, 1), (2, 3)])
        b = EquationSystem([(2, 3), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != EquationSystem([(0, 1)])

    def test_integral_entries_only(self):
        s = EquationSystem([(np.int64(0), 1.0), (2.0, np.int8(3)), (True, 4)])
        assert s.items() == ((0, 1), (1, 4), (2, 3))
        assert all(type(x) is int for pair in s for x in pair)

    @pytest.mark.parametrize(
        "pair",
        [(0, 1.5), (0.5, 1), (0, np.float64(2.5)), (0, "1"), ("0", 1),
         (0, float("nan")), (0, float("inf")), (0, None)],
    )
    def test_a_value_an_int_cast_would_change_is_rejected(self, pair):
        with pytest.raises(ConstraintError, match="must be integers"):
            EquationSystem([pair])


class TestConstruction:
    def test_basic_properties(self, t0):
        assert t0.n == 3
        assert t0.n_rows == 4
        assert t0.attribute_names == ("f1", "f2", "f3")
        assert t0.value_set(0) == (0, 1)
        assert t0.total_branches == 6
        assert t0.n_decision_values == 2
        assert t0.row_values(2) == (1, 0, 1)
        assert is_proper(Hypothesis((0, 1, 1)), t0)

    def test_value_sets_ascending_with_gaps(self):
        t = DecisionTable(
            ("a",), np.array([(5,), (0,), (2,)]), np.array([1, 1, 0])
        )
        assert t.value_set(0) == (0, 2, 5)

    @pytest.mark.parametrize(
        "names,values,decisions",
        [
            ((), np.zeros((1, 0), dtype=int), [0]),  # no attributes
            (("a", "a"), [(0, 1)], [0]),  # duplicate names
            (("a", "b"), [(0, 1)], [0, 1]),  # row/decision length mismatch
            (("a",), [(0,), (0,)], [0, 1]),  # duplicate attribute vectors
            (("a", "b"), [(5, 0), (2, 7), (5, 0)], [0, 1, 0]),  # apart, gapped alphabet
            (("a",), [(-1,)], [0]),  # negative value
            (("a",), [(0,)], [-1]),  # negative decision
            (("a",), [(1.5,), (2.7,)], [0, 1]),  # fractional values
            (("a",), [(0,), (1,)], [0.9, 1.2]),  # fractional decisions
            (("a",), [(1,), (1.2,)], [0, 1]),  # would truncate to equal rows
            (("a",), [(float("nan"),)], [0]),  # not a number
            (("a\nb", "c"), [(0, 0), (0, 1)], [0, 1]),  # a line break in a name
            (("a", "b\rc"), [(0, 0), (0, 1)], [0, 1]),
        ],
    )
    def test_invalid_tables_rejected(self, names, values, decisions):
        with pytest.raises(ConstraintError):
            DecisionTable(names, np.array(values), np.array(decisions))

    def test_integral_input_only(self):
        t = DecisionTable(("a",), np.array([(1.0,), (2.0,)]), np.array([0.0, 1.0]))
        assert t.values.dtype == t.decisions.dtype == np.int64
        assert t.values.tolist() == [[1], [2]] and t.decisions.tolist() == [0, 1]
        with pytest.raises(ConstraintError, match="attribute values must be integers"):
            DecisionTable(("a",), np.array([(1,), (1.2,)]), np.array([0, 1]))

    @pytest.mark.parametrize(
        "values, decisions, what",
        [
            ([(2**70,)], [0], "attribute values"),  # a Python int past uint64
            ([(0,)], [2**70], "decisions"),
            ([(-(2**63) - 1,)], [0], "attribute values"),  # below int64
            ([(2**63,)], [0], "attribute values"),  # a uint64 the cast would wrap
            (np.array([(2**63,)], dtype=np.uint64), [0], "attribute values"),
            ([(0,)], np.array([2**64 - 1], dtype=np.uint64), "decisions"),
            ([(2.0**70,)], [0], "attribute values"),  # a whole float past int64
            ([("x",)], [0], "attribute values"),  # neither an int nor a float
            ([(0,)], [None], "decisions"),
        ],
    )
    def test_entries_that_are_not_int64_rejected(self, values, decisions, what):
        with pytest.raises(ConstraintError, match=f"^{what} must be integers in the int64 range$"):
            DecisionTable(("a",), values, decisions)

    def test_uint64_entries_within_int64_accepted(self):
        top = np.array([(2**63 - 1,), (0,)], dtype=np.uint64)
        t = DecisionTable(("a",), top, np.array([1, 2**63 - 1], dtype=np.uint64))
        assert t.values.tolist() == [[2**63 - 1], [0]]
        assert t.decisions.tolist() == [1, 2**63 - 1]

    def test_branch_keys(self):
        t = DecisionTable(
            ("a", "b", "c"),
            np.array([(5, 0, 4), (2, 7, 4), (9, 7, 4), (2, 0, 4)]),
            np.array([3, 8, 3, 1]),
        )
        d = t.n_decision_values
        keys = t.branch_keys
        assert keys.dtype == np.int64 and keys.shape == (4, 3)
        assert not keys.flags.writeable
        assert np.array_equal(keys // d, t.codes + t.offsets[:-1])
        assert np.array_equal(keys % d, np.repeat(t.dec_codes[:, None], 3, axis=1))
        assert keys.tolist() == [[4, 10, 16], [2, 14, 17], [7, 13, 16], [0, 9, 15]]

    def test_branch_keys_of_one_decision(self):
        t = DecisionTable(("a",), np.array([(4,), (1,)]), np.array([6, 6]))
        assert t.branch_keys.tolist() == [[1], [0]]

    def test_single_row_table_allowed(self):
        t = DecisionTable(("a",), np.array([(7,)]), np.array([3]))
        assert t.n_rows == 1
        assert t.all_rows().is_degenerate()

    def test_encoding_matches_the_numpy_reference(self):
        rng = np.random.default_rng(2024)
        forms = {
            "tuple": lambda a: tuple(map(tuple, a.tolist())) if a.ndim == 2 else tuple(a.tolist()),
            "int64": lambda a: a.astype(np.int64),
            "uint64": lambda a: a.astype(np.uint64),
            "float": lambda a: a.astype(np.float64),
            "bool": lambda a: a.astype(bool),
        }
        for _ in range(400):
            n = int(rng.integers(1, 6))
            form = list(forms)[int(rng.integers(len(forms)))]
            if form == "bool":
                alphabets = [np.array([0, 1])] * n
                outcomes = np.array([0, 1])
            else:  # gapped, with decisions up to 2**40
                alphabets = [np.sort(rng.choice(60, size=int(rng.integers(1, 5)), replace=False))
                             for _ in range(n)]
                outcomes = rng.choice(np.array([0, 3, 7, 2**33, 2**40]),
                                      size=int(rng.integers(1, 4)), replace=False)
            drawn = [tuple(int(rng.choice(alphabet)) for alphabet in alphabets)
                     for _ in range(int(rng.integers(0, 31)))]
            rows = np.array(list(dict.fromkeys(drawn)), dtype=np.int64).reshape(-1, n)
            decisions = rng.choice(outcomes, size=len(rows))
            table = DecisionTable(tuple(f"a{j}" for j in range(n)),
                                  forms[form](rows), forms[form](decisions))
            expected = _reference_encoding(rows, decisions)
            for name, want in expected.items():
                got = getattr(table, name)
                if name == "_row_index":  # its keys, values and order
                    got = list(got.items())
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype == np.int64, name
                    assert got.shape == want.shape, name
                    assert np.array_equal(got, want), name
                    assert got.flags.c_contiguous and not got.flags.writeable, name
                else:
                    assert got == want, name
            assert all(type(v) is int for vs in table.value_sets for v in vs)
            assert all(type(c) is int for key in table._row_index for c in key)

    def test_negative_entries_are_reported_before_a_repeated_row(self):
        with pytest.raises(ConstraintError, match="^attribute values must be nonnegative$"):
            DecisionTable(("a", "b"), [(0, -1), (0, -1), (2, 3)], [-1, 0, 4])
        with pytest.raises(ConstraintError, match="^decisions must be nonnegative$"):
            DecisionTable(("a", "b"), [(0, 1), (0, 1), (2, 3)], [-1, 0, 4])


def _reference_encoding(values: np.ndarray, decisions: np.ndarray) -> dict:
    """The table's encoding by per-column ``np.unique`` and ``searchsorted``."""
    vals = values.astype(np.int64)
    decs = decisions.astype(np.int64)
    uniques = [np.unique(vals[:, j]) for j in range(vals.shape[1])]
    codes = np.zeros(vals.shape, np.int64)
    for j, uniq in enumerate(uniques):
        codes[:, j] = np.searchsorted(uniq, vals[:, j])
    dec_uniq = np.unique(decs)
    dec_codes = np.searchsorted(dec_uniq, decs).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum([len(u) for u in uniques])]).astype(np.int64)
    keys = (codes + offsets[:-1]) * max(len(dec_uniq), 1) + dec_codes[:, None]
    return {
        "values": vals,
        "decisions": decs,
        "value_sets": tuple(tuple(u.tolist()) for u in uniques),
        "codes": codes,
        "_row_index": list(zip(map(tuple, codes.tolist()), range(len(vals)))),
        "decision_values": dec_uniq,
        "dec_codes": dec_codes,
        "offsets": offsets,
        "branch_keys": keys,
    }


class TestSubtables:
    def test_selection_by_system(self, t0):
        sub = t0.subtable(EquationSystem([(0, 0)]))
        assert list(sub.selected) == [0, 1]
        sub2 = t0.subtable(EquationSystem([(0, 0), (2, 1)]))
        assert list(sub2.selected) == [1]
        assert t0.subtable(EquationSystem()).n_rows == 4

    def test_apply_chains_constraints(self, t0):
        sub = t0.all_rows().apply(EquationSystem([(0, 0)]))
        sub = sub.apply(EquationSystem([(2, 1)]))
        assert list(sub.selected) == [1]
        assert t0.all_rows().apply(EquationSystem([(0, 0)])).n_rows == 2

    def test_decision_statistics(self, t0):
        full = t0.all_rows()
        # counts are indexed by decision code: decision values (1, 2)
        assert list(full.decision_counts()) == [2, 2]
        assert list(t0.decision_values) == [1, 2]
        assert full.n_rows == 4
        branch = t0.subtable(EquationSystem([(0, 1)]))
        assert list(branch.decision_counts()) == [0, 2]

    def test_empty_subtable_is_degenerate(self, t0):
        empty = t0.subtable(EquationSystem([(0, 0), (2, 0), (1, 1)]))
        assert empty.n_rows == 0
        assert list(empty.decision_counts()) == [0, 0]
        assert empty.is_degenerate()

    def test_degenerate_and_constant(self, t0):
        branch = t0.subtable(EquationSystem([(0, 1)]))  # decisions 2,2
        assert branch.is_degenerate()
        assert not t0.all_rows().is_degenerate()
        # f1 is constant on the branch, f2 is not
        assert not is_admissible_attribute(0, branch)
        assert is_admissible_attribute(1, branch)

    def test_value_set_helper(self, t0):
        assert t0.value_set(1) == (0, 1)
        with pytest.raises(ConstraintError):
            t0.value_set(3)

    def test_selected_indices_validated(self, t0):
        with pytest.raises(ConstraintError):
            SubtableRef(t0, np.array([1, 0]))  # not increasing
        with pytest.raises(ConstraintError):
            SubtableRef(t0, np.array([0, 9]))  # out of range
        with pytest.raises(ConstraintError):
            SubtableRef(t0, np.array([-1, 0]))  # negative
        with pytest.raises(ConstraintError):
            SubtableRef(t0, np.array([2, 2]))  # repeated
        with pytest.raises(ConstraintError):
            SubtableRef(t0, np.array([[0, 1]]))  # not one-dimensional
        assert SubtableRef(t0, [0, 3]) == t0.all_rows().apply(EquationSystem([(2, 0)]))

    @pytest.mark.parametrize(
        "selected", [[0.9, 2.5], [0, 1.5], np.array([0.5]), ["0", "2"], [float("nan")]]
    )
    def test_selected_indices_must_be_integers(self, t0, selected):
        with pytest.raises(ConstraintError, match="row indices must be integers"):
            SubtableRef(t0, selected)

    @pytest.mark.parametrize(
        "selected",
        [[2**70], [0, 2**63], np.array([2**63], dtype=np.uint64), [-(2**63) - 1], ["a"], [None]],
    )
    def test_selected_indices_that_are_not_int64_rejected(self, t0, selected):
        with pytest.raises(ConstraintError, match="^row indices must be integers in the int64 range$"):
            SubtableRef(t0, selected)

    def test_integral_selections_accepted(self, t0):
        expect = t0.all_rows().apply(EquationSystem([(2, 0)]))
        assert SubtableRef(t0, [0.0, 3.0]) == expect
        assert SubtableRef(t0, np.array([0, 3], dtype=np.int8)) == expect
        assert SubtableRef(t0, []).n_rows == 0

    def test_subtable_equality(self, t0):
        a = t0.subtable(EquationSystem([(0, 0)]))
        b = t0.all_rows().apply(EquationSystem([(0, 0)]))
        assert a == b
