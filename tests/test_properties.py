"""Property-based checks over generated tables: both expansion paths build one tree.

``hypothesis`` draws small tables with gapped, often non-binary alphabets,
single-valued attributes, one to four decision values and, now and then, a
copied column that ties its original in every statistic.  Each table is
built for tree types 1-5 under ``me`` and ``ent`` twice: with every level
expanded node by node and with every level batched, in small chunks.  The
two trees must serialize identically and pass ``validate``.  The draw is
derandomized, so every run checks the same tables.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import hypotree.builder as builder
from hypotree import DecisionTable, build_tree, validate

NARROW_ONLY, WIDE_ALWAYS = 1 << 30, 1  # widths from which a level is batched


@st.composite
def tables(draw) -> DecisionTable:
    n = draw(st.integers(1, 4))
    alphabet = st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True)
    grid = list(itertools.product(*(sorted(draw(alphabet)) for _ in range(n))))
    picked = draw(
        st.lists(st.integers(0, len(grid) - 1), min_size=1,
                 max_size=min(20, len(grid)), unique=True)
    )
    values = np.array([grid[i] for i in picked])
    decision_values = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    decisions = draw(
        st.lists(st.sampled_from(decision_values), min_size=len(picked), max_size=len(picked))
    )
    names = [f"f{i + 1}" for i in range(n)]
    if draw(st.booleans()):  # a copy of the first column ties with it everywhere
        values = np.hstack([values, values[:, :1]])
        names.append("copy")
    return DecisionTable(names, values, np.array(decisions))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(tables())
def test_narrow_and_batched_levels_build_the_same_tree(table):
    for tree_type, measure in itertools.product((1, 2, 3, 4, 5), ("me", "ent")):
        with mock.patch.object(builder, "_WIDE_FRONTIER", NARROW_ONLY):
            narrow = build_tree(table, tree_type, measure)
        # A wrong query can leave a subtable whole and grow the tree without
        # end; the node-by-node tree's size stops it at once.
        with mock.patch.object(builder, "_WIDE_FRONTIER", WIDE_ALWAYS), \
                mock.patch.object(builder, "_CHUNK_CELLS", 40):
            batched = build_tree(table, tree_type, measure, node_budget=narrow.node_count)
        assert batched.serialize() == narrow.serialize()
        assert batched._hyp_codes == narrow._hyp_codes
        assert np.array_equal(batched.path_row_counts, narrow.path_row_counts)
        assert validate(table, narrow).ok and validate(table, batched).ok
