"""Decision-table core: construction, subtables, statistics, equation systems."""

import numpy as np
import pytest

from hypotree import ConstraintError, DecisionTable, EquationSystem, Hypothesis, is_proper


class TestEquationSystem:
    def test_items_sorted_and_deduplicated(self):
        s = EquationSystem([(2, 5), (0, 1), (2, 5)])
        assert s.items() == ((0, 1), (2, 5))
        assert s.attributes == (0, 2)
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

    def test_value_for(self):
        s = EquationSystem([(1, 4)])
        assert s.value_for(1) == 4
        assert s.value_for(0) is None

    def test_equality_and_hash(self):
        a = EquationSystem([(0, 1), (2, 3)])
        b = EquationSystem([(2, 3), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != EquationSystem([(0, 1)])

    def test_render(self):
        s = EquationSystem([(2, 1), (0, 0)])
        assert s.render(("f1", "f2", "f3")) == "f1=0,f3=1"
        assert EquationSystem().render(("f1",)) == ""


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

    def test_single_row_table_allowed(self):
        t = DecisionTable(("a",), np.array([(7,)]), np.array([3]))
        assert t.n_rows == 1
        assert t.all_rows().is_degenerate()


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
        assert full.count_decision(1) == 2
        assert full.count_decision(2) == 2
        assert full.count_decision(3) == 0  # not a decision of the table
        assert full.n_rows == 4
        # tie between decisions 1 and 2 -> smallest wins
        assert full.most_common_decision() == 1

    def test_most_common_of_empty_is_zero(self, t0):
        empty = t0.subtable(EquationSystem([(0, 0), (2, 0), (1, 1)]))
        assert empty.n_rows == 0
        assert empty.most_common_decision() == 0
        assert empty.is_degenerate()

    def test_degenerate_and_constant(self, t0):
        branch = t0.subtable(EquationSystem([(0, 1)]))  # decisions 2,2
        assert branch.is_degenerate()
        assert not t0.all_rows().is_degenerate()
        assert branch.is_constant(0)
        assert not branch.is_constant(1)
        assert list(branch.column_values(2)) == [1, 0]

    def test_value_set_helper(self, t0):
        assert t0.value_set(1) == (0, 1)
        with pytest.raises(ConstraintError):
            t0.value_set(3)

    def test_selected_indices_validated(self, t0):
        from hypotree.table import SubtableRef

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

    def test_subtable_equality(self, t0):
        a = t0.subtable(EquationSystem([(0, 0)]))
        b = t0.all_rows().apply(EquationSystem([(0, 0)]))
        assert a == b
