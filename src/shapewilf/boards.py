"""
Ferrers boards and their transversal fillings.

A board is a tuple of weakly decreasing column heights (bottom-left
justified), e.g. ``(6, 6, 5, 4, 3, 3)``.  A filling places exactly one 1
in every row and every column of the board; with m columns it is encoded
by a permutation w of {1..m} where w_i is the row of the 1 in column i.

A filling contains a pattern p in-board when some columns c_1 < ... < c_k
carry 1's order-isomorphic to p and the top-right corner cell
(c_k, max chosen row) lies inside the board; for a Ferrers board this
single corner test is equivalent to requiring the whole k x k submatrix
grid to sit inside the board.

In-board containment has one test.  ``corner_profile`` lists a row
sequence's occurrences once with the reference walker
``perms.occurrences`` and gives, per column, the least height at which
that column closes one; ``profile_contains`` decides every board the
rows fill by one comparison per column, and ``filling_avoids_all`` and
``filling_contains`` are that test on one filling, validated first.

One walk over the trie of column heights generates every filling, so
boards that share a prefix of heights share each partial filling over
it; listing, counting and one board's fillings are views of that walk.

Text notation: board "[6,6,5,4,3,3]", filling "[6,6,5,4,3,3]/561423".
"""
from __future__ import annotations

from operator import le
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .perms import (
    Perm, PrefixTable, anchored_intervals, format_perm, inverse, make_perm,
    occurrences, parse_perm, prefix_table,
)

Board = tuple[int, ...]


class OutOfBoardError(ValueError):
    """A requested 1 falls outside the board; ``column`` is 1-based."""

    def __init__(self, column: int, row: int, height: int):
        self.column = column
        super().__init__(
            f"column {column}: row {row} exceeds column height {height}"
        )


def make_board(heights: Iterable[int]) -> Board:
    """
    Validate weakly decreasing positive column heights.

    >>> make_board([3, 2, 2])
    (3, 2, 2)
    >>> make_board([2, 3])
    Traceback (most recent call last):
        ...
    ValueError: column heights must be weakly decreasing: (2, 3)
    """
    b = tuple(heights)
    if any(h < 1 for h in b):
        raise ValueError(f"column heights must be positive: {b}")
    if any(b[i] < b[i + 1] for i in range(len(b) - 1)):
        raise ValueError(f"column heights must be weakly decreasing: {b}")
    return b


def parse_board(text: str) -> Board:
    """
    >>> parse_board("[6,6,5,4,3,3]")
    (6, 6, 5, 4, 3, 3)
    >>> parse_board("[]")
    ()
    """
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad board notation: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return make_board(int(tok) for tok in inner.split(","))


def format_board(board: Board) -> str:
    return "[" + ",".join(str(h) for h in board) + "]"


def board_from_row_lengths(lengths: Iterable[int]) -> Board:
    """
    Convert bottom-up row lengths to column heights.

    >>> board_from_row_lengths([6, 6, 6, 4, 3, 2])
    (6, 6, 5, 4, 3, 3)
    """
    rows = make_board(lengths)  # same weakly-decreasing shape constraint
    if not rows:
        return ()
    return tuple(sum(1 for r in rows if r >= i) for i in range(1, rows[0] + 1))


def cell_in_board(board: Board, column: int, row: int) -> bool:
    """Is the unit square with 1-based coordinates (column, row) in the board?"""
    return 1 <= column <= len(board) and 1 <= row <= board[column - 1]


def square_board(n: int) -> Board:
    return (n,) * n


def admits_filling(board: Board) -> bool:
    """
    True iff the board has a transversal: as many rows as columns and
    every column tall enough to contain the staircase.

    >>> admits_filling((3, 2, 1))
    True
    >>> admits_filling((2, 2, 2))
    False
    >>> admits_filling((3, 1, 1))
    False
    """
    m = len(board)
    if m == 0:
        return True
    return board[0] == m and all(board[i] >= m - i for i in range(m))


def enumerate_boards(n: int) -> list[Board]:
    """
    All boards with n columns admitting at least one filling, in
    descending lexicographic order of heights; there are Catalan(n),
    and for n = 0 the one empty board.

    >>> enumerate_boards(3)
    [(3, 3, 3), (3, 3, 2), (3, 3, 1), (3, 2, 2), (3, 2, 1)]
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return [()]
    out: list[Board] = []
    heights = [n]

    def grow(i: int) -> None:
        if i == n:
            out.append(tuple(heights))
            return
        # column i+1 (1-based) needs height >= n - i to keep the staircase
        for h in range(heights[-1], n - i - 1, -1):
            heights.append(h)
            grow(i + 1)
            heights.pop()

    grow(1)
    return out


# ---------------------------------------------------------------------------
# fillings

class Filling(NamedTuple):
    board: Board
    rows: Perm

    def __str__(self) -> str:
        return format_filling(self)


def make_filling(board: Board, rows: Iterable[int]) -> Filling:
    """
    Validate that rows is a transversal of the board; a 1 outside the
    board raises OutOfBoardError naming the first such column.

    >>> make_filling((3, 2, 1), (1, 2, 3))
    Traceback (most recent call last):
        ...
    shapewilf.boards.OutOfBoardError: column 3: row 3 exceeds column height 1
    """
    b = tuple(board)
    r = make_perm(rows)
    if len(r) != len(b):
        raise ValueError(f"{len(r)} rows for {len(b)} columns")
    if b and b[0] != len(b):
        raise ValueError(f"board {b} has {b[0]} rows but {len(b)} columns")
    for i, row in enumerate(r):
        if row > b[i]:
            raise OutOfBoardError(i + 1, row, b[i])
    return Filling(b, r)


def parse_filling(text: str) -> Filling:
    """
    >>> parse_filling("[3,2,1]/321").rows
    (3, 2, 1)
    """
    left, sep, right = text.partition("/")
    if not sep:
        raise ValueError(f"bad filling notation (missing '/'): {text!r}")
    return make_filling(parse_board(left), parse_perm(right))


def format_filling(f: Filling) -> str:
    return f"{format_board(f.board)}/{format_perm(f.rows)}"


def transpose_filling(f: Filling) -> Filling:
    """
    Reflect the filling in the diagonal: column heights become row
    lengths, and the 1 in column c and row r moves to column r and row c.
    A pattern p occurs in-board in f iff its inverse occurs in the result.

    >>> transpose_filling(parse_filling("[3,3,1]/231"))
    Filling(board=(3, 2, 2), rows=(3, 1, 2))
    """
    return Filling(board_from_row_lengths(f.board), inverse(f.rows))


def corner_profile(rows: Sequence[int], patterns: Iterable[Perm]) -> list[int]:
    """
    In-board containment of a pattern set on every board a row sequence
    fills, from one listing of its occurrences by the reference walker
    ``perms.occurrences``.
    Entry c, for a 1-based column c, is the least highest row among the
    occurrences whose last entry is in column c, and len(rows) + 1 if
    there is none.  Entry 0 is the column of the empty pattern's one
    occurrence, with highest row 0.

    >>> corner_profile((2, 1, 3), {(1, 2)})
    [4, 4, 4, 3]
    """
    m = len(rows)
    need = [m + 1] * (m + 1)
    for p in patterns:
        if not p:
            need[0] = 0
            continue
        top = p.index(len(p))  # an occurrence's highest row is at p's k
        for occ in occurrences(p, rows):
            high = rows[occ[top] - 1]
            if high < need[occ[-1]]:
                need[occ[-1]] = high
    return need


def profile_contains(need: Sequence[int], board: Board) -> bool:
    """
    The corner test: an occurrence is in-board iff its highest row is at
    most its last column's height.  So the filling of ``board`` by rows
    with the corner profile ``need`` contains the profile's set in-board
    iff some entry is at most its column's height in ``(0,) + board``.
    The rows must fill the board, so no height reaches len(rows) + 1.

    >>> profile_contains(corner_profile((2, 1, 3), {(1, 2)}), (3, 3, 2))
    False
    """
    return any(map(le, need, (0,) + board))


def filling_contains(f: Filling, p: Perm) -> bool:
    """
    In-board containment of the classical pattern p.

    >>> fig = make_filling(board_from_row_lengths((6, 6, 6, 4, 3, 2)), parse_perm("561423"))
    >>> filling_contains(fig, (3, 1, 2))
    False
    >>> filling_contains(fig, (1, 2, 3))
    True
    """
    return not filling_avoids_all(f, (p,))


def filling_avoids_all(f: Filling, patterns: Iterable[Perm]) -> bool:
    """No pattern occurs in-board.  ``Filling`` is a plain tuple, so a
    malformed one raises ``ValueError`` here, before the corner test."""
    make_filling(make_board(f.board), f.rows)
    return not profile_contains(corner_profile(f.rows, patterns), f.board)


def child_blocks(table: PrefixTable, blocks: list[int], rows: Sequence[int]) -> list[int]:
    """
    The frontier of a partial filling in the board walks: entry r is the
    least highest row of an occurrence of a prefix of the table whose
    open interval (A, B) holds r, and the top row n + 1 (the last index)
    when there is none.  Rows never shift, so a new column's occurrences
    only lower the parent's entries; ``blocks`` is the parent's frontier
    and ``rows`` the partial filling with the new column last.  The root
    is ``child_blocks(table, [n + 1] * (n + 2), ())``.

    A pattern then occurs in-board with its last entry in a next column
    holding row r exactly when that column's height is at least
    max(blocks[r], r), the highest row of the cheapest occurrence.

    >>> table = prefix_table({(1, 2)})
    >>> child_blocks(table, child_blocks(table, [4] * 5, ()), (2,))
    [4, 4, 4, 2, 4]
    """
    top = len(blocks) - 1
    blocks = blocks[:]
    for a, b, high in anchored_intervals(table, rows, top):
        for r in range(a + 1, b):
            if high < blocks[r]:
                blocks[r] = high
    return blocks


def _walk(n: int, avoid: Iterable[Perm], board: Optional[Board]
          ) -> Iterator[tuple[Board, list[Perm]]]:
    """The board walk of ``fillings_by_board``; ``board`` pins each
    column's height to its own."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        yield (), [] if () in avoid else [()]  # the empty board's one filling
        return
    table = prefix_table(avoid)

    def descend(prefix: Board, cap: int, partials: list):
        c = len(prefix)
        # column c+1 needs height >= n - c to keep the staircase
        lo, hi = (max(n - c, board[c]), min(cap, board[c])) if board else (n - c, cap)
        below: list[list] = [[] for _ in range(hi + 1)]
        for rows, free, blocks in partials:
            for r in range(1, hi + 1):
                if not free >> r & 1:
                    continue
                left = free ^ 1 << r
                floor = max(r, left.bit_length() - 1, lo)
                top = min(hi, max(blocks[r], r) - 1)
                if floor <= top:
                    grown = rows + (r,)
                    child = (grown, left, child_blocks(table, blocks, grown)) if left else grown
                    for h in range(floor, top + 1):
                        below[h].append(child)
        for h in range(hi, lo - 1, -1):
            if c == n - 1:
                yield prefix + (h,), below[h]
            else:
                yield from descend(prefix + (h,), h, below[h])

    yield from descend((), n, [((), (1 << n + 1) - 2, child_blocks(table, [n + 1] * (n + 2), ()))])


def fillings(board: Board, avoid: Iterable[Perm] = ()) -> Iterator[Filling]:
    """
    All fillings of the board avoiding every pattern in ``avoid``, rows
    ascending: the board walk with every height pinned to the board's.

    >>> [f.rows for f in fillings((3, 2, 1))]
    [(3, 2, 1)]
    >>> sum(1 for _ in fillings((3, 3, 3), {(1, 2, 3), (2, 1, 3)}))
    4
    """
    for _, listed in _walk(len(board), avoid, board):
        yield from (Filling(board, rows) for rows in listed)


def count_fillings(board: Board, avoid: Iterable[Perm] = ()) -> int:
    """
    >>> count_fillings((3, 3, 1))
    2
    >>> count_fillings((3, 3, 3), {(1, 2, 3), (2, 1, 3)})
    4
    """
    return sum(len(listed) for _, listed in _walk(len(board), avoid, board))


def fillings_by_board(n: int, avoid: Iterable[Perm] = ()) -> Iterator[tuple[Board, list[Perm]]]:
    """
    Every board with n columns in ``enumerate_boards(n)`` order, with the
    rows of its fillings avoiding ``avoid``, ascending (an empty list for
    a board with none), from one depth-first walk over the trie of column
    heights.  A node of the walk holds the partial fillings that fit its
    prefix of heights, in lexicographic order, as (rows, free rows as a
    bitmask, frontier).  It extends each once by every free row r at most
    its height (n at the root), builds that child's frontier once (see
    ``child_blocks``; none in the last column) and hands the child to
    every next height from a floor to a top:

    - the floor is r, or the largest row still free if that is higher
      (no later column is taller); so the i-th column from the right is
      at least i tall, and every board reached is in ``enumerate_boards``;
    - the top is the node's height, or one below max(blocks[r], r) if
      that is lower: the least height at which a pattern occurs in-board.

    >>> list(fillings_by_board(2, {(1, 2)}))
    [((2, 2), [(2, 1)]), ((2, 1), [(2, 1)])]
    """
    return _walk(n, avoid, None)


def filling_counts(n: int, avoid: Iterable[Perm] = ()) -> dict[Board, int]:
    """
    Avoiding-filling counts on every board with n columns, keyed in
    ``enumerate_boards(n)`` order; boards with no avoider map to 0.

    >>> filling_counts(3)
    {(3, 3, 3): 6, (3, 3, 2): 4, (3, 3, 1): 2, (3, 2, 2): 2, (3, 2, 1): 1}
    >>> list(filling_counts(3, {(1, 2, 3), (2, 1, 3)}).values())
    [4, 4, 2, 2, 1]
    """
    return {board: len(listed) for board, listed in fillings_by_board(n, avoid)}


def transversal_count_formula(board: Board) -> int:
    """
    Closed-form transversal count for boards with no patterns forbidden:
    the product over i of (height of column m+1-i, minus i-1).

    >>> transversal_count_formula((3, 2, 1))
    1
    >>> transversal_count_formula((3, 3, 3))
    6
    """
    m = len(board)
    total = 1
    for i in range(1, m + 1):
        factor = board[m - i] - (i - 1)
        if factor <= 0:
            return 0
        total *= factor
    return total
