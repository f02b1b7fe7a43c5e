"""Generated benchmark tables: balance-scale and tic-tac-toe endgames."""

import itertools

import numpy as np
import pytest

from hypotree import balance_scale, generated_table, tic_tac_toe
from hypotree.datasets import GENERATED_TABLES

LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
)
X, O, BLANK = 0, 1, 2


def winners(board):
    """Set of players holding a completed line (independent recomputation)."""
    out = set()
    for a, b, c in LINES:
        if board[a] != BLANK and board[a] == board[b] == board[c]:
            out.add(board[a])
    return out


class TestBalanceScale:
    def test_shape_and_names(self):
        t = balance_scale()
        assert t.n_rows == 625
        assert t.attribute_names == (
            "left-weight",
            "left-distance",
            "right-weight",
            "right-distance",
        )
        assert all(t.value_set(i) == (1, 2, 3, 4, 5) for i in range(4))

    def test_class_sizes(self):
        t = balance_scale()
        counts = dict(
            zip(map(int, t.decision_values), map(int, t.all_rows().decision_counts()))
        )
        assert counts == {0: 49, 1: 288, 2: 288}

    def test_decisions_recomputed_arithmetically(self):
        t = balance_scale()
        for row in range(t.n_rows):
            lw, ld, rw, rd = t.row_values(row)
            left, right = lw * ld, rw * rd
            expect = 0 if left == right else (1 if right > left else 2)
            assert int(t.decisions[row]) == expect

    def test_enumeration_order(self):
        t = balance_scale()
        expect = list(itertools.product(range(1, 6), repeat=4))
        assert [t.row_values(r) for r in range(t.n_rows)] == expect

    def test_cached(self):
        assert balance_scale() is balance_scale()


class TestTicTacToe:
    def test_shape_and_names(self):
        t = tic_tac_toe()
        assert t.n_rows == 958
        assert t.n == 9
        assert t.attribute_names[:4] == (
            "top-left",
            "top-middle",
            "top-right",
            "middle-left",
        )
        assert t.attribute_names[-1] == "bottom-right"

    def test_class_sizes(self):
        t = tic_tac_toe()
        assert t.decision_values.tolist() == [0, 1]
        assert t.all_rows().decision_counts().tolist() == [626, 332]

    def test_decision_matches_recomputed_winner(self):
        t = tic_tac_toe()
        o_wins = draws = 0
        for row in range(t.n_rows):
            board = t.row_values(row)
            won = winners(board)
            assert len(won) <= 1  # legal play never yields two winners
            if won == {X}:
                assert int(t.decisions[row]) == 0
            else:
                assert int(t.decisions[row]) == 1
                if won == {O}:
                    o_wins += 1
                else:
                    draws += 1
                    assert BLANK not in board  # non-wins are full boards
        assert o_wins == 316
        assert draws == 16

    def test_boards_are_legal_endgames(self):
        t = tic_tac_toe()
        for row in range(t.n_rows):
            board = t.row_values(row)
            xs = board.count(X)
            os = board.count(O)
            won = winners(board)
            if won == {X}:
                assert xs - os == 1  # x made the last move
            elif won == {O}:
                assert xs - os == 0
            else:
                assert xs == 5 and os == 4

    def test_positive_block_first_each_sorted(self):
        t = tic_tac_toe()
        rows = [t.row_values(r) for r in range(t.n_rows)]
        decs = [int(d) for d in t.decisions]
        split = decs.index(1)
        assert decs[:split] == [0] * split
        assert decs[split:] == [1] * (t.n_rows - split)
        assert rows[:split] == sorted(rows[:split])
        assert rows[split:] == sorted(rows[split:])


class TestRegistry:
    def test_lookup(self):
        assert set(GENERATED_TABLES) == {"balance-scale", "tic-tac-toe"}
        assert generated_table("balance-scale") is balance_scale()
        assert generated_table("tic-tac-toe") is tic_tac_toe()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="balance-scale"):
            generated_table("nope")
