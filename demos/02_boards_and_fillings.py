#!/usr/bin/env python3
"""
Ferrers boards and their transversal fillings.

A Ferrers board is a bottom-left-justified stack of unit squares, stored
here as weakly decreasing column heights.  A filling puts exactly one 1 in
every row and column, so it is a permutation constrained to the board.
Pattern containment inside a board is stricter than in the permutation:
the whole submatrix spanned by an occurrence must fit inside the board.
"""
from shapewilf import (
    board_from_row_lengths,
    count_fillings,
    enumerate_boards,
    filling_contains,
    fillings,
    format_board,
    format_filling,
    make_filling,
    parse_perm,
    parse_pattern_set,
    transversal_count_formula,
)


def draw(f):
    m = len(f.board)
    rows = []
    for r in range(f.board[0] if f.board else 0, 0, -1):
        cells = []
        for c in range(1, m + 1):
            if f.board[c - 1] >= r:
                cells.append("1" if f.rows[c - 1] == r else ".")
        rows.append(" ".join(cells))
    return "\n".join(rows)


# the running example: rows of lengths 2,3,4,6,6,6 from the top
board = board_from_row_lengths((6, 6, 6, 4, 3, 2))
f = make_filling(board, parse_perm("561423"))
print(f"filling {format_filling(f)}:")
print(draw(f))
print(f"in-board occurrence of 312? {filling_contains(f, parse_perm('312'))}")
print(f"in-board occurrence of 123? {filling_contains(f, parse_perm('123'))}")
print("(the permutation 561423 itself contains 312 nine times, but every")
print(" occurrence sticks out of the board, e.g. the corner cell of 5,1,4)")

print(f"\nboards with 4 columns admitting a filling: {len(enumerate_boards(4))}")
for b in enumerate_boards(3):
    print(f"  {format_board(b)}: {count_fillings(b)} fillings "
          f"(closed form {transversal_count_formula(b)})")

avoid = parse_pattern_set("{123,213}")
print(f"\nfillings of the 3x3 square avoiding {{123,213}}:")
for g in fillings((3, 3, 3), avoid):
    print(f"  {format_filling(g)}")
