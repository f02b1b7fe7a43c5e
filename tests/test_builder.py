"""Greedy tree construction: goldens, ordering, budget, determinism."""

import functools
import itertools
import random

import numpy as np
import pytest

from hypotree import (
    AttributeQuery,
    ConstraintError,
    DecisionTable,
    HypothesisQuery,
    NodeBudgetExceeded,
    UncertaintyMeasure,
    answers,
    build_tree,
    get_measure,
    select_query,
)
import hypotree.builder as builder
from hypotree.builder import TERMINAL, WORKING_ATTR, WORKING_HYP

import oracles
from frozen import ttt_centre
from test_queries import random_table

T0_K1 = """\
0 W f1 [f1=0]:1 [f1=1]:2
1 T 1
2 T 2
"""

T0_K2 = """\
0 W H[f1=0,f2=0,f3=0] [H[f1=0,f2=0,f3=0]]:1 [f1=1]:2 [f2=1]:3 [f3=1]:4
1 T 1
2 T 2
3 W H[f1=0,f2=1,f3=0] [H[f1=0,f2=1,f3=0]]:5 [f1=1]:6 [f2=0]:7 [f3=1]:8
4 W H[f1=0,f2=0,f3=1] [H[f1=0,f2=0,f3=1]]:9 [f1=1]:10 [f2=1]:11 [f3=0]:12
5 T 0
6 T 2
7 T 0
8 T 1
9 T 0
10 T 2
11 T 1
12 T 0
"""

XOR_K1 = """\
0 W f1 [f1=0]:1 [f1=1]:2
1 W f2 [f2=0]:3 [f2=1]:4
2 W f2 [f2=0]:5 [f2=1]:6
3 T 0
4 T 1
5 T 1
6 T 0
"""


class TestGoldens:
    def test_t0_attribute_tree(self, t0):
        tree = build_tree(t0, 1, "me")
        assert tree.serialize() == T0_K1
        assert tree.node_count == 3
        assert isinstance(tree.query(0), AttributeQuery)

    def test_t0_hypothesis_tree(self, t0):
        tree = build_tree(t0, 2, "me")
        assert tree.serialize() == T0_K2
        assert tree.node_count == 13
        assert [tree.query(v).hypothesis.values for v in (0, 3, 4)] == [
            (0, 0, 0), (0, 1, 0), (0, 0, 1)
        ]
        assert isinstance(tree.query(0), HypothesisQuery)
        # hypothesis-holds child of the root is the matching base row
        assert tree.path_row_counts[1] == 1 and tree.decision(1) == 1
        # unrealized hypothesis branch: empty terminal labeled 0
        assert tree.path_row_counts[5] == 0 and tree.decision(5) == 0

    def test_xor_attribute_tree(self, xor):
        tree = build_tree(xor, 1, "me")
        assert tree.serialize() == XOR_K1

    def test_degenerate_roots(self):
        one = DecisionTable(("a",), np.array([(0,)]), np.array([7]))
        tree = build_tree(one, 3, "ent")
        assert tree.serialize() == "0 T 7\n"
        assert tree.path_row_counts[0] == 1

        same = DecisionTable(
            ("a",), np.array([(0,), (1,), (2,)]), np.array([4, 4, 4])
        )
        tree = build_tree(same, 2, "gini")
        assert tree.serialize() == "0 T 4\n"
        assert tree.path_row_counts[0] == 3


class TestStructure:
    @pytest.mark.parametrize("tree_type", [1, 2, 3, 4, 5])
    def test_children_consecutive_and_after_parent(self, t0, tree_type):
        tree = build_tree(t0, tree_type, "me")
        seen = {0}
        for node in range(tree.node_count):
            kids = tree.children(node)
            if tree.is_terminal(node):
                assert len(kids) == 0
                continue
            assert list(kids) == list(range(kids.start, kids.stop))
            for child in kids:
                assert child > node
                assert child not in seen  # every node has exactly one parent
                seen.add(child)
        assert seen == set(range(tree.node_count))

    def test_hypothesis_child_count_is_constant(self, t0):
        tree = build_tree(t0, 2, "me")
        expect = 1 + t0.total_branches - t0.n
        for node in range(tree.node_count):
            if not tree.is_terminal(node):
                assert len(tree.children(node)) == expect

    def test_array_views(self, t0):
        tree = build_tree(t0, 2, "me")
        assert tree.kinds.dtype == np.int8
        assert tree.path_row_counts.dtype == np.int64
        assert tree.first_children.dtype == np.int64
        assert not tree.kinds.flags.writeable
        assert tree.kinds[0] == WORKING_HYP
        assert tree.kinds[2] == TERMINAL
        assert build_tree(t0, 1, "me").kinds[0] == WORKING_ATTR
        assert tree.path_row_counts[0] == 4
        assert len(tree.children(0)) == 4
        assert tree.first_children[1] == -1

    def test_each_view_is_made_alone_on_its_first_read(self, t0):
        tree = build_tree(t0, 2, "me")
        columns = {"kinds": "_kind", "labels": "_label", "path_row_counts": "_nrows",
                   "first_children": "_first", "level_starts": "_starts"}
        made = set()
        for name, column in columns.items():
            view = getattr(tree, name)
            made.add(column)
            assert set(tree._views) == made
            assert getattr(tree, name) is view
            assert not view.flags.writeable
            assert view.tolist() == getattr(tree, column).tolist()
        tree._label[2] = 5  # a view follows later writes to its column
        tree._nrows[8] = 3
        assert tree.labels[2] == 5 and tree.path_row_counts[8] == 3

    def test_accessor_errors(self, t0):
        tree = build_tree(t0, 1, "me")
        with pytest.raises(ConstraintError):
            tree.decision(0)  # working node has no decision
        with pytest.raises(ConstraintError):
            tree.query(1)  # terminal has no query
        assert len(tree.children(1)) == 0


class TestLevelStarts:
    """Each level's id range against a breadth-first walk of the oracle's edges."""

    @staticmethod
    def check(tree):
        starts = tree.level_starts
        assert starts.dtype == np.int64 and not starts.flags.writeable
        assert starts[0] == 0 and starts[-1] == tree.node_count
        assert np.all(np.diff(starts) > 0)
        expected = oracles.oracle_levels(tree)
        assert len(starts) - 2 == max(expected)
        levels = np.searchsorted(starts, np.arange(tree.node_count), "right") - 1
        assert levels.tolist() == expected

    @pytest.mark.parametrize("wide_from", [1, 1 << 30])  # levels batched: always, never
    @pytest.mark.parametrize("tree_type", [1, 2, 3, 4, 5])
    def test_matches_breadth_first_oracle(self, tree_type, wide_from, monkeypatch):
        monkeypatch.setattr(builder, "_WIDE_FRONTIER", wide_from)
        rng = random.Random(2718)
        for _ in range(15):
            table = random_table(rng)
            for measure in ("me", "ent"):
                self.check(build_tree(table, tree_type, measure))

    def test_one_node_tree(self):
        one = DecisionTable(("a",), np.array([(0,)]), np.array([5]))
        tree = build_tree(one, 2, "me")
        assert tree.level_starts.tolist() == [0, 1]
        self.check(tree)


class TestBudget:
    def test_budget_zero(self, t0):
        with pytest.raises(NodeBudgetExceeded) as info:
            build_tree(t0, 1, "me", node_budget=0)
        assert info.value.budget == 0 and info.value.nodes == 0

    def test_budget_checked_before_each_batch(self, t0):
        with pytest.raises(NodeBudgetExceeded) as info:
            build_tree(t0, 1, "me", node_budget=2)
        assert info.value.budget == 2 and info.value.nodes == 1
        assert "node budget exceeded" in str(info.value)
        assert build_tree(t0, 1, "me", node_budget=3).node_count == 3

    def test_hypothesis_tree_budget_boundary(self, t0):
        with pytest.raises(NodeBudgetExceeded) as info:
            build_tree(t0, 2, "me", node_budget=12)
        assert info.value.nodes == 9  # root batch + first expansion fit
        assert build_tree(t0, 2, "me", node_budget=13).node_count == 13


class TestInputs:
    def test_measure_by_name_or_instance(self, t0):
        by_name = build_tree(t0, 3, "gini")
        by_instance = build_tree(t0, 3, get_measure("gini"))
        assert by_name.serialize() == by_instance.serialize()
        assert by_name.measure_name == "gini"

    @pytest.mark.parametrize("bad", [0, 6, -1])
    def test_invalid_tree_type(self, t0, bad):
        with pytest.raises(ConstraintError):
            build_tree(t0, bad, "me")

    @pytest.mark.parametrize("bad", [1.9, 2.0, np.float64(2.5), "3", True, np.bool_(True), None])
    def test_tree_type_must_be_an_integer(self, t0, bad):
        with pytest.raises(ConstraintError, match="tree type must be an integer"):
            build_tree(t0, bad, "me")

    @pytest.mark.parametrize("bad", [2.5, 100.0, True, False, "100", None])
    def test_node_budget_must_be_an_integer(self, t0, bad):
        with pytest.raises(ConstraintError, match="node budget must be an integer"):
            build_tree(t0, 1, "me", node_budget=bad)

    def test_numpy_integers_are_accepted(self, t0):
        got = build_tree(t0, np.int64(2), "me", node_budget=np.int32(13))
        assert type(got.tree_type) is int and got.tree_type == 2
        assert got.serialize() == build_tree(t0, 2, "me").serialize()

    def test_empty_table_rejected(self):
        empty = DecisionTable(
            ("a",), np.zeros((0, 1), dtype=int), np.array([], dtype=int)
        )
        with pytest.raises(ConstraintError):
            build_tree(empty, 1, "me")

    def test_deterministic_rebuild(self, t0):
        for k in (1, 2, 3, 4, 5):
            a = build_tree(t0, k, "ent").serialize()
            b = build_tree(t0, k, "ent").serialize()
            assert a == b

    def test_repr(self, t0):
        text = repr(build_tree(t0, 2, "me"))
        assert "type=2" in text and "measure=me" in text and "13 nodes" in text


class TestBudgetReport:
    def test_level_and_frontier_named(self, t0):
        with pytest.raises(NodeBudgetExceeded) as info:
            build_tree(t0, 2, "me", node_budget=12)
        # The root's level fits; level 1 holds the two working children 3, 4.
        assert (info.value.level, info.value.frontier) == (1, 2)
        assert "at level 1 with a frontier of 2 nodes" in str(info.value)

    def test_budget_zero_names_level_zero(self, t0):
        with pytest.raises(NodeBudgetExceeded) as info:
            build_tree(t0, 1, "me", node_budget=0)
        assert (info.value.level, info.value.frontier) == (0, 0)


def _with_constant_column(table):
    """The table with one more attribute that takes a single value."""
    names = table.attribute_names + ("k",)
    values = np.hstack([table.values, np.full((table.n_rows, 1), 5)])
    return DecisionTable(names, values, table.decisions)


def _with_copied_column(table):
    """The table with its first attribute repeated, so the two tie in every statistic."""
    names = table.attribute_names + ("copy",)
    return DecisionTable(names, np.hstack([table.values, table.values[:, :1]]), table.decisions)


def _word_edge_table(n_rows, measure, winner_at):
    """A table whose root's first proper winner under ``measure`` is row ``winner_at``.

    Rows are packed 64 to a word, so ``winner_at`` picks a side of a word
    edge.  Random tables are drawn until the root has few enough rows of
    least impurity; those rows go from ``winner_at`` on, the others around
    them in drawn order.
    """
    grid = list(itertools.product(range(3), range(3), range(4), range(4)))
    names = ("f1", "f2", "f3", "f4")
    rng = random.Random(n_rows * 1000 + winner_at)
    while True:
        rows = rng.sample(grid, n_rows)
        decisions = [rng.randint(0, 2) for _ in rows]
        table = DecisionTable(names, np.array(rows), np.array(decisions))
        every = range(n_rows)
        imp = [oracles.hypothesis_impurity(table, every, rows[r], measure) for r in every]
        best = [r for r in every if imp[r] == min(imp)]
        if winner_at + len(best) <= n_rows:
            break
    rest = [r for r in every if imp[r] != min(imp)]
    order = rest[:winner_at] + best + rest[winner_at:]
    return DecisionTable(names, table.values[order], table.decisions[order])


@functools.cache
def expansion_tables():
    rng = random.Random(4242)
    tables = [random_table(rng) for _ in range(24)]
    for n_attrs in (3, 4, 5):  # wider and deeper trees than random_table's
        grid = list(itertools.product(range(4), repeat=n_attrs))
        rows = rng.sample(grid, 40)
        decisions = [rng.randint(0, 3) for _ in rows]
        names = tuple(f"f{i + 1}" for i in range(n_attrs))
        tables.append(DecisionTable(names, np.array(rows), np.array(decisions)))
    tables += [_with_constant_column(t) for t in tables[::4]]
    tables.append(_with_copied_column(tables[24]))
    # The proper winner at the root on either side of a 64-row word edge:
    # last row of a part word, last and first bit of a word, alone in the
    # last word, and a tie set that straddles an edge under me.
    for n_rows, measure, winner_at in (
        (63, "ent", 62), (64, "ent", 63), (65, "ent", 64), (129, "ent", 128), (129, "me", 60)
    ):
        tables.append(_word_edge_table(n_rows, measure, winner_at))
    return tuple(tables)


def _build(table, tree_type, measure, wide_from, monkeypatch, budget=None,
           limit=builder.DEFAULT_NODE_BUDGET):
    monkeypatch.setattr(builder, "_WIDE_FRONTIER", wide_from)
    monkeypatch.setattr(builder, "_CHUNK_CELLS", 40)
    if budget is None:
        return build_tree(table, tree_type, measure, node_budget=limit)
    with pytest.raises(NodeBudgetExceeded) as info:
        build_tree(table, tree_type, measure, node_budget=budget)
    return info.value.nodes, info.value.level, info.value.frontier


PER_NODE, BATCHED = 1 << 30, 1  # widths from which a level is batched: never, always


class TestExpansionPaths:
    """Level-batched expansion against the per-node reference, in small chunks."""

    @pytest.mark.parametrize("measure", ["me", "rme", "ent", "gini", "r"])
    @pytest.mark.parametrize("tree_type", [1, 2, 3, 4, 5])
    def test_same_trees_and_budget_aborts(self, tree_type, measure, monkeypatch):
        for table in expansion_tables():
            ref = _build(table, tree_type, measure, PER_NODE, monkeypatch)
            # A wrong query can leave a subtable whole and grow the tree
            # without end; the reference's size stops it at once.
            got = _build(table, tree_type, measure, BATCHED, monkeypatch, limit=ref.node_count)
            assert got.serialize() == ref.serialize()
            assert np.array_equal(got.path_row_counts, ref.path_row_counts)
            assert got._hyp_codes == ref._hyp_codes
            for budget in range(1, ref.node_count, max(1, ref.node_count // 7)):
                assert _build(table, tree_type, measure, BATCHED, monkeypatch, budget) \
                    == _build(table, tree_type, measure, PER_NODE, monkeypatch, budget)

    @pytest.mark.parametrize("tree_type", [2, 4, 5])
    def test_wide_levels_of_a_real_table(self, tree_type, monkeypatch):
        table = ttt_centre(1)
        ref = _build(table, tree_type, "ent", PER_NODE, monkeypatch)
        monkeypatch.undo()  # the default width and cap: the build turns batched once wide
        got = build_tree(table, tree_type, "ent")
        assert got.serialize() == ref.serialize()
        assert got._hyp_codes == ref._hyp_codes

    def test_a_batched_build_stays_batched(self, monkeypatch):
        table = ttt_centre(2)
        ref = _build(table, 3, "me", PER_NODE, monkeypatch)
        monkeypatch.undo()
        calls = []
        for name in ("_expand", "_expand_level"):
            def recorded(self, *args, _name=name, _method=getattr(builder._Builder, name)):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(builder._Builder, name, recorded)
        got = build_tree(table, 3, "me")
        starts = got.level_starts.tolist()
        working = [int(np.count_nonzero(got.kinds[lo:hi])) for lo, hi in zip(starts, starts[1:])]
        assert working == [1, 16, 140, 196, 7, 0]
        # The root alone is expanded node by node; the last level, narrower
        # than the batched width, stays batched like the levels above it.
        assert builder._WIDE_FRONTIER > 7
        assert calls == ["_expand"] + ["_expand_level"] * 4
        assert got.serialize() == ref.serialize()
        assert got._hyp_codes == ref._hyp_codes
        assert np.array_equal(got.path_row_counts, ref.path_row_counts)


class TestProperHypotheses:
    """Each proper hypothesis a tree asks, against the definition on its node's rows."""

    @pytest.mark.parametrize("wide_from", [PER_NODE, BATCHED], ids=["per-node", "batched"])
    @pytest.mark.parametrize("measure", ["me", "rme", "ent"])
    @pytest.mark.parametrize("tree_type", [4, 5])
    def test_the_earliest_row_of_least_impurity(self, tree_type, measure, wide_from,
                                                monkeypatch):
        asked = 0
        for table in expansion_tables():
            tree = _build(table, tree_type, measure, wide_from, monkeypatch)
            values = [tuple(row) for row in table.values.tolist()]
            # Each node's subtable, recomputed from the root along its edges.
            stack = [(0, list(range(table.n_rows)))]
            while stack:
                node, rows = stack.pop()
                if tree.is_terminal(node):
                    continue
                edges = oracles.edges(tree, node)
                if edges[0][1] is None:  # a hypothesis, which type 4 asks at every node
                    assert edges[0][2] == values[oracles.brute_proper_row(table, rows, measure)]
                    asked += 1
                else:
                    assert tree_type == 5
                for child, attr, value in edges:
                    if attr is None:
                        stack.append((child, [r for r in rows if values[r] == value]))
                    else:
                        stack.append((child, [r for r in rows if values[r][attr] == value]))
        assert asked > 0


@functools.cache
def serialize_tables():
    """Random tables over awkward alphabets, plus a one-row and a larger one.

    Value sets skip codes ({0, 7, 12}), run to several digits or hold a
    single value; decisions reach 10 and beyond; names carry the ``%``,
    ``{`` and ``=`` characters a formatter might trip on.
    """
    rng = random.Random(606)
    alphabets = ((0, 7, 12), (3,), (10, 250, 4096), (0, 1), (5, 6, 7, 99))
    names = ("f1", "a%d", "{b}", "c=d", "e%")
    decisions = (0, 10, 11, 256)
    tables = []
    for _ in range(30):
        n = rng.randint(1, 4)
        sets = [rng.choice(alphabets) for _ in range(n)]
        grid = list(itertools.product(*sets))
        rows = rng.sample(grid, rng.randint(1, min(12, len(grid))))
        tables.append(
            DecisionTable(names[:n], np.array(rows), [rng.choice(decisions) for _ in rows])
        )
    grid = list(itertools.product(*alphabets[:1] + alphabets[2:] + alphabets[:1]))
    rows = rng.sample(grid, 120)
    tables.append(DecisionTable(names, np.array(rows), [rng.choice(decisions) for _ in rows]))
    tables.append(DecisionTable(("only",), np.array([(12,)]), [13]))
    return tuple(tables)


class TestSerialize:
    """``serialize`` against the oracle's node-by-node formatting."""

    @pytest.mark.parametrize("measure", ["me", "ent"])
    @pytest.mark.parametrize("tree_type", [1, 2, 3, 4, 5])
    def test_matches_per_node_oracle(self, tree_type, measure):
        sizes = []
        for table in serialize_tables():
            tree = build_tree(table, tree_type, measure)
            assert tree.serialize() == oracles.oracle_serialize(tree)
            sizes.append(tree.node_count)
        assert min(sizes) == 1 and max(sizes) >= 100  # one terminal; multi-digit ids

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_blocks_do_not_change_the_text(self, block, monkeypatch):
        # 10,422 nodes, a multiple of 3; the default block splits it in three.
        big = build_tree(ttt_centre(2), 2, "me")
        single = build_tree(serialize_tables()[-1], 2, "me")
        assert single.node_count == 1
        expected = [big.serialize(), single.serialize()]
        monkeypatch.setattr(builder, "_SERIALIZE_BLOCK", block)
        assert [big.serialize(), single.serialize()] == expected

    @pytest.mark.parametrize("block", [1, 13])
    def test_whole_blocks_end_in_one_newline(self, t0, block, monkeypatch):
        tree = build_tree(t0, 2, "me")
        assert tree.node_count % block == 0
        monkeypatch.setattr(builder, "_SERIALIZE_BLOCK", block)
        text = tree.serialize()
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text == T0_K2


class TestHypothesisValues:
    """Hypotheses are kept as value codes; every reader turns them into the same values."""

    @pytest.mark.parametrize("wide_from", [PER_NODE, BATCHED], ids=["per-node", "batched"])
    @pytest.mark.parametrize("measure", ["me", "ent"])
    @pytest.mark.parametrize("tree_type", [2, 3, 4, 5])
    def test_readers_agree_on_gapped_alphabets(self, tree_type, measure, wide_from,
                                               monkeypatch):
        n_hypotheses = 0
        for table in serialize_tables():
            tree = _build(table, tree_type, measure, wide_from, monkeypatch)
            lines = tree.serialize().splitlines()
            codes = np.frombuffer(tree._hyp_codes, tree._hyp_codes.typecode)
            codes = codes.reshape(-1, table.n)
            for v in np.flatnonzero(tree.kinds == WORKING_HYP).tolist():
                values = tree.query(v).hypothesis.values
                row = codes[tree.labels[v]]
                assert tuple(vs[c] for vs, c in zip(table.value_sets, row)) == values
                h = "H[" + ",".join(
                    f"{name}={x}" for name, x in zip(table.attribute_names, values)
                ) + "]"
                assert lines[v].startswith(f"{v} W {h} [{h}]:")
                n_hypotheses += 1
            # Child counts are derived from each query; every reader agrees.
            for v in np.flatnonzero(tree.kinds != TERMINAL).tolist():
                n = len(tree.children(v))
                assert n == len(answers(tree.query(v), table)) == lines[v].count("]:")
            if tree.node_count > 1:
                chosen, _ = select_query(table.all_rows(), get_measure(measure), tree_type)
                assert chosen == tree.query(0)
        assert n_hypotheses > 0


class TestTracedNames:
    def test_a_small_table_calls_each_traced_name(self, monkeypatch):
        # perfbench's traced runs replace these attributes to time the build
        # layers; a tiny-corpus table reaches them only on nodes expanded alone.
        calls = []
        for owner, name in (
            (DecisionTable, "__init__"),
            (builder, "branch_stats"),
            (builder, "select_query_from_stats"),
            (UncertaintyMeasure, "of_count_matrix"),
        ):
            def traced(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, traced)
        table = DecisionTable(("f1", "f2", "f3"),
                              [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 0, 1)],
                              [0, 0, 1, 1, 0, 1])
        assert calls == ["__init__"]
        for tree_type in (1, 2, 3, 4, 5):
            calls.clear()
            build_tree(table, tree_type, "me")
            assert {"branch_stats", "select_query_from_stats", "of_count_matrix"} <= set(calls)
