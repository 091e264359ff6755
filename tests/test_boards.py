"""Ferrers boards, transversal fillings, in-board containment."""
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapewilf.perms import all_perms, parse_perm, parse_pattern_set
from shapewilf.boards import (
    Filling,
    OutOfBoardError,
    board_from_row_lengths,
    corner_profile,
    count_fillings,
    enumerate_boards,
    filling_avoids_all,
    filling_contains,
    filling_counts,
    fillings,
    fillings_by_board,
    format_board,
    format_filling,
    make_board,
    make_filling,
    parse_board,
    parse_filling,
    profile_contains,
    square_board,
    transversal_count_formula,
)

FIG_BOARD = board_from_row_lengths((6, 6, 6, 4, 3, 2))  # rows top-down: 2,3,4,6,6,6

TARGETS = [
    parse_pattern_set("{12}"),
    parse_pattern_set("{123,213}"),
    parse_pattern_set("{213,312}"),
    parse_pattern_set("{132,4321}"),
]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def brute_force_fillings(board):
    """All transversals by filtering every permutation (independent oracle)."""
    m = len(board)
    if board and board[0] != m:
        return []
    return [w for w in permutations(range(1, m + 1)) if all(w[i] <= board[i] for i in range(m))]


def brute_force_contains(f, p):
    """Complete definition: every cell of the k x k submatrix grid in-board."""
    board, rows = f.board, f.rows
    k = len(p)
    for cols in combinations(range(1, len(board) + 1), k):
        vals = [rows[c - 1] for c in cols]
        if not all(
            (vals[a] < vals[b]) == (p[a] < p[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            continue
        if all(r <= board[c - 1] for c in cols for r in vals):
            return True
    return False


def test_board_validation_and_notation():
    assert parse_board("[6,6,5,4,3,3]") == (6, 6, 5, 4, 3, 3)
    assert format_board((3, 2, 1)) == "[3,2,1]"
    with pytest.raises(ValueError):
        make_board([2, 3])
    with pytest.raises(ValueError):
        make_board([1, 0])
    with pytest.raises(ValueError):
        parse_board("6,6,5")


def test_fig_board_conversion():
    assert FIG_BOARD == (6, 6, 5, 4, 3, 3)


def test_every_height_vector_matches_brute_force():
    # every weakly decreasing height vector with entries <= 5, m <= 5,
    # including boards admitting no transversal at all
    def boards_all(m, cap):
        if m == 0:
            yield ()
            return
        for rest in boards_all(m - 1, cap):
            lo = rest[0] if rest else 1
            for h in range(lo, cap + 1):
                yield (h,) + rest

    for m in range(0, 6):
        for board in boards_all(m, 5):
            expected = brute_force_fillings(board)
            assert [f.rows for f in fillings(board)] == expected, board
            assert count_fillings(board) == len(expected), board
            assert transversal_count_formula(board) == len(expected), board


def test_enumerate_boards_small():
    assert enumerate_boards(1) == [(1,)]
    assert enumerate_boards(3) == [
        (3, 3, 3),
        (3, 3, 2),
        (3, 3, 1),
        (3, 2, 2),
        (3, 2, 1),
    ]
    for n in range(0, 9):
        assert len(enumerate_boards(n)) == catalan(n)


def test_enumerate_boards_all_admit():
    for n in range(1, 7):
        for board in enumerate_boards(n):
            assert brute_force_fillings(board), board


def test_make_filling():
    f = make_filling(FIG_BOARD, parse_perm("561423"))
    assert f.rows == (5, 6, 1, 4, 2, 3)
    with pytest.raises(OutOfBoardError) as err:
        make_filling((3, 2, 1), (1, 2, 3))
    assert err.value.column == 3
    # any permutation fits the full square
    make_filling(square_board(4), parse_perm("3142"))


def test_filling_notation_roundtrip():
    f = parse_filling("[6,6,5,4,3,3]/561423")
    assert format_filling(f) == "[6,6,5,4,3,3]/561423"
    with pytest.raises(ValueError):
        parse_filling("[3,2,1] 321")


def test_fig_filling_containment():
    f = make_filling(FIG_BOARD, parse_perm("561423"))
    assert not filling_contains(f, parse_perm("312"))
    assert filling_contains(f, parse_perm("123"))


def test_in_board_entry_points_reject_malformed_fillings():
    from shapewilf.bijections import fan_oracle

    oracle = fan_oracle(3, 1, 3)
    for f, message in [
        # one column cannot hold 12, but its height reaches the profile's sentinel
        (Filling((2,), (1,)), r"board \(2,\) has 2 rows but 1 columns"),
        (Filling((2, 3), (1, 2)), r"column heights must be weakly decreasing: \(2, 3\)"),
        (Filling((3, 3, 3), (1, 1, 2)), r"not a permutation of 1\.\.3: \(1, 1, 2\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            filling_contains(f, (1, 2))
        with pytest.raises(ValueError, match=message):
            filling_avoids_all(f, {(1, 2)})
        with pytest.raises(ValueError, match=message):
            oracle(f)


def test_containment_on_full_square_is_plain_containment():
    from shapewilf.perms import contains

    for w in all_perms(4):
        f = make_filling(square_board(4), w)
        for k in (2, 3):
            for p in all_perms(k):
                assert filling_contains(f, p) == contains(p, w)


def test_corner_test_equals_complete_submatrix_check():
    patterns = [p for k in (1, 2, 3) for p in all_perms(k)]
    for n in range(1, 7):
        for board in enumerate_boards(n):
            for f in fillings(board):
                for p in patterns:
                    assert filling_contains(f, p) == brute_force_contains(f, p), (f, p)


# every filling of every board with at most five columns, the empty one too
SMALL_FILLINGS = [
    Filling(board, w)
    for n in range(0, 6)
    for board in enumerate_boards(n)
    for w in brute_force_fillings(board)
]


@given(st.frozensets(
    st.integers(min_value=0, max_value=6).flatmap(
        lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
    ),
    max_size=3,
))
@example(frozenset({()}))
@example(frozenset({(1,)}))
@example(frozenset({(1, 2, 3, 4, 5, 6)}))
@example(frozenset({(), (2, 1)}))
@example(frozenset({(1,), (3, 1, 2), (2, 1, 4, 3, 6, 5)}))
@settings(max_examples=40, deadline=None)
def test_corner_profile_decides_in_board_avoidance(patterns):
    # one profile per row tuple decides every board it fits, exactly as
    # the complete submatrix check does; the empty pattern occurs in every
    # filling, the empty one included
    profiles = {}
    for f in SMALL_FILLINGS:
        if f.rows not in profiles:
            profiles[f.rows] = corner_profile(f.rows, patterns)
        need = profiles[f.rows]
        assert len(need) == len(f.rows) + 1
        contained = profile_contains(need, f.board)
        assert contained == any(brute_force_contains(f, p) for p in patterns), (f, patterns)


def test_staircase_has_unique_filling():
    assert [f.rows for f in fillings(tuple(range(3, 0, -1)))] == [(3, 2, 1)]
    assert count_fillings(tuple(range(5, 0, -1))) == 1


def test_count_fillings_examples():
    assert count_fillings((3, 3, 1)) == 2
    assert count_fillings(square_board(3), parse_pattern_set("{123,213}")) == 4
    assert {f.rows for f in fillings(square_board(3), parse_pattern_set("{123,213}"))} == {
        (1, 3, 2),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    }


def test_enumeration_matches_brute_force_with_avoidance():
    for n in range(1, 6):
        for board in enumerate_boards(n):
            all_transversals = brute_force_fillings(board)
            for patterns in TARGETS:
                expected = [
                    w
                    for w in all_transversals
                    if filling_avoids_all(Filling(board, w), patterns)
                ]
                got = [f.rows for f in fillings(board, patterns)]
                assert got == expected, (board, patterns)


def test_count_formula_matches_enumeration():
    for n in range(1, 7):
        for board in enumerate_boards(n):
            assert count_fillings(board) == transversal_count_formula(board)


def test_fillings_of_non_transversal_board():
    assert list(fillings((2, 2, 2))) == []
    assert list(fillings((4, 4, 4))) == []
    assert list(fillings((3, 1, 1))) == []
    assert count_fillings((3, 1, 1)) == 0
    assert transversal_count_formula((3, 1, 1)) == 0


def test_empty_board():
    assert [f for f in fillings(())] == [((), ())]
    assert count_fillings(()) == 1
    assert list(fillings_by_board(0, {(1,)})) == [((), [()])]


def test_filling_counts_match_brute_force():
    for n in range(1, 6):
        for patterns in TARGETS:
            counts = filling_counts(n, patterns)
            for board in enumerate_boards(n):
                expected = sum(
                    1
                    for w in brute_force_fillings(board)
                    if filling_avoids_all(Filling(board, w), patterns)
                )
                assert counts[board] == expected, (board, patterns)


pattern_sets = st.lists(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
    ),
    min_size=1,
    max_size=3,
)


@given(pattern_sets, st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_filling_counts_match_per_board_enumeration(patterns, n):
    # listing and counts against all transversals filtered by the
    # reference walker, every board kept, rows ascending
    expected = [
        (board, [w for w in brute_force_fillings(board)
                 if filling_avoids_all(Filling(board, w), patterns)])
        for board in enumerate_boards(n)
    ]
    assert list(fillings_by_board(n, patterns)) == expected
    assert list(filling_counts(n, patterns).items()) == [
        (board, len(rows)) for board, rows in expected
    ]


def test_filling_counts_without_patterns_match_the_formula():
    for n in range(1, 8):
        for board, count in filling_counts(n).items():
            assert count == transversal_count_formula(board), board


def test_filling_counts_keys_are_the_boards_in_order():
    # the empty board's one filling is empty, so it avoids every pattern
    assert filling_counts(0, {(1,)}) == {(): 1}
    for n in range(0, 7):
        assert list(filling_counts(n, {(1, 2)})) == enumerate_boards(n)
    for n in range(1, 7):
        # every nonempty filling contains the pattern 1: each board is kept with 0
        zeros = filling_counts(n, {(1,)})
        assert list(zeros) == enumerate_boards(n)
        assert set(zeros.values()) <= {0}
    with pytest.raises(ValueError):
        filling_counts(-1)
    with pytest.raises(ValueError):
        list(fillings_by_board(-1))
    with pytest.raises(ValueError):
        enumerate_boards(-1)


# Counting folds the last two columns into ranges of heights; these sets
# have patterns of every length 0-5.  At n = 2 the fold runs at the root,
# where {21,123} is decided by 21 alone.
FOLD_SETS = [
    frozenset(),
    frozenset({()}),
    parse_pattern_set("{1}"),
    parse_pattern_set("{12}"),
    parse_pattern_set("{21}"),
    parse_pattern_set("{21,123}"),
    parse_pattern_set("{132,4321}"),
    parse_pattern_set("{2413,3142}"),
    parse_pattern_set("{12345,12354}"),
    parse_pattern_set("{31245,32145}"),
]


@pytest.mark.parametrize("patterns", FOLD_SETS, ids=lambda s: "{" + ",".join(
    "".join(map(str, p)) or "()" for p in sorted(s)) + "}")
def test_folded_counts_match_brute_force(patterns):
    for n in range(0, 6):
        expected = {
            board: sum(1 for w in brute_force_fillings(board)
                       if filling_avoids_all(Filling(board, w), patterns))
            for board in enumerate_boards(n)
        }
        assert list(filling_counts(n, patterns).items()) == list(expected.items()), n
        for board, count in expected.items():
            assert count_fillings(board, patterns) == count, board


def test_count_fillings_equals_the_listing_on_every_board():
    for patterns in [*TARGETS, parse_pattern_set("{1}")]:
        for n in range(0, 7):
            for board in enumerate_boards(n):
                listed = list(fillings(board, patterns))
                assert count_fillings(board, patterns) == len(listed), (board, patterns)
