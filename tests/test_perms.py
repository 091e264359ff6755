"""Permutation operations, pattern containment, symmetry invariances."""
import gc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapewilf.perms import (
    all_perms,
    anchored_intervals,
    apply_ops,
    avoids_all,
    complement,
    contains,
    direct_sum,
    format_pattern_set,
    format_perm,
    inverse,
    make_perm,
    occurrences,
    parse_pattern_set,
    parse_perm,
    pattern_occurrences,
    prefix_table,
    reverse,
    set_apply_ops,
    set_direct_sum,
)
from shapewilf.equivalence import child_forbidden
from shapewilf.boards import Filling, child_blocks, corner_profile, filling_avoids_all
from shapewilf.pops import fan_pop, pop_occurrences

perms = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)
patterns = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)
pattern_sets = st.frozensets(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
    ),
    min_size=1,
    max_size=3,
)
# a filling w of 1..n and per-column slack: see board_over
fillings_with_slack = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.permutations(list(range(1, n + 1))).map(tuple),
        st.lists(st.integers(min_value=0, max_value=n), min_size=n, max_size=n),
    )
)


def board_over(w, slack):
    """Column heights of a Ferrers board holding the filling w; every such
    board arises from some slack (take slack = board - w)."""
    n = len(w)
    return tuple(min(n, max(w[j] + slack[j] for j in range(i, n))) for i in range(n))


def brute_occurrences(p, w):
    """Independent oracle: filter every index subset."""
    k = len(p)
    hits = []
    for idxs in combinations(range(len(w)), k):
        vals = [w[i] for i in idxs]
        if all(
            (vals[a] < vals[b]) == (p[a] < p[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            hits.append(tuple(i + 1 for i in idxs))
    return hits


def test_parse_format_roundtrip():
    for text in ["", "1", "45213", "134257986"]:
        assert format_perm(parse_perm(text)) == text
    long = tuple(range(10, 0, -1))
    assert parse_perm(format_perm(long)) == long


def test_make_perm_rejects_non_permutations():
    with pytest.raises(ValueError):
        make_perm([1, 1])
    with pytest.raises(ValueError):
        make_perm([0, 1])
    with pytest.raises(ValueError):
        parse_perm("1x2")


def test_occurrences_of_123_in_31425():
    w = parse_perm("31425")
    occs = list(occurrences(parse_perm("123"), w))
    assert len(occs) == 3
    # the three occurrences as value subsequences: 345, 145, 125
    assert sorted(tuple(w[i - 1] for i in occ) for occ in occs) == [
        (1, 2, 5),
        (1, 4, 5),
        (3, 4, 5),
    ]


def test_occurrences_of_312_in_561423():
    # exhaustive enumeration gives nine occurrences (see the brute oracle)
    w = parse_perm("561423")
    p = parse_perm("312")
    assert pattern_occurrences(p, w) == 9
    assert list(occurrences(p, w)) == brute_occurrences(p, w)


def test_pattern_longer_than_word():
    assert pattern_occurrences(parse_perm("12"), parse_perm("1")) == 0
    assert not contains(parse_perm("12"), parse_perm("1"))


@given(
    st.integers(min_value=0, max_value=4).flatmap(
        lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
    ),
    perms,
)
@settings(max_examples=200)
def test_occurrence_count_matches_brute_force(p, w):
    # both entry points of the reference walker, the empty pattern and
    # patterns longer than the word included
    expected = brute_occurrences(p, w)
    assert occurrences(p, w) == expected
    assert contains(p, w) == bool(expected)
    assert pattern_occurrences(p, w) == len(expected)


@given(patterns, perms)
@settings(max_examples=150)
def test_symmetries_preserve_occurrence_counts(p, w):
    base = pattern_occurrences(p, w)
    assert pattern_occurrences(reverse(p), reverse(w)) == base
    assert pattern_occurrences(complement(p), complement(w)) == base
    assert pattern_occurrences(inverse(p), inverse(w)) == base


def standardize(u):
    return tuple(sorted(u).index(v) + 1 for v in u)


@given(pattern_sets, fillings_with_slack, st.integers(min_value=1, max_value=7))
@settings(max_examples=300)
def test_engine_kernel_matches_brute_force_in_board(patterns, filling, column):
    # the board walk's frontier, replayed from the root over the first
    # column - 1 columns of w, against every next row r and every height
    w, slack = filling
    n = len(w)
    heights = board_over(w, slack)
    column = min(column, n)
    prefix = w[: column - 1]
    table = prefix_table(patterns)
    blocks = child_blocks(table, [n + 1] * (n + 2), ())
    for c in range(1, column):
        blocks = child_blocks(table, blocks, w[:c])
    # a later column is no taller than the one before it
    tallest = heights[column - 2] if column > 1 else n
    for r in sorted(set(range(1, n + 1)) - set(prefix)):
        rows = prefix + (r,)
        for cap in range(r, tallest + 1):
            board = heights[: column - 1] + (cap,)
            # in-board: every cell of the k x k submatrix grid lies in the board
            expected = any(
                occ[-1] == column
                and all(rows[i - 1] <= board[j - 1] for i in occ for j in occ)
                for p in patterns
                for occ in brute_occurrences(p, rows)
            )
            assert (max(blocks[r], r) <= cap) == expected
            # the reference walker's listing and the corner test: an
            # occurrence ending in the last column is in-board iff its
            # highest row is at most that column's height
            found = []
            for p in patterns:
                found.extend(occurrences(p, rows))
            assert expected == any(
                occ[-1] == column and max(rows[i - 1] for i in occ) <= cap
                for occ in found
            )


@given(pattern_sets, perms)
@settings(max_examples=150)
def test_engine_kernel_on_an_appended_last_entry(patterns, w):
    # the avoider tree's frontier, replayed from the root along w's
    # prefixes, forbids r exactly when appending r completes a pattern
    table = prefix_table(patterns)
    forbidden = child_forbidden(table, 0, ())
    for i in range(1, len(w) + 1):
        forbidden = child_forbidden(table, forbidden, standardize(w[:i]))
    n = len(w) + 1
    assert forbidden >> n + 1 == 0
    w_avoids = not any(contains(p, w) for p in patterns)
    for r in range(1, n + 1):
        child = tuple(v + 1 if v >= r else v for v in w) + (r,)
        expected = any(
            occ[-1] == n for p in patterns for occ in brute_occurrences(p, child)
        )
        assert bool(forbidden >> r & 1) == expected
        if w_avoids:
            assert expected == any(contains(p, child) for p in patterns)


def test_occurrence_searches_leave_no_reference_cycles():
    # every search frees its state by reference counting when it returns,
    # so the hot kernels leave nothing for the cyclic collector; the
    # recursive closures made once per walk (boards._walk.descend,
    # equivalence._extension_walk.grow, boards.enumerate_boards.grow) are
    # not called here and may stay
    patterns = [(1, 3, 2), (2, 1, 3), (1, 2)]
    table = prefix_table(patterns)
    fan = fan_pop(3, 2)
    words = list(all_perms(5))
    square = (5,) * 5
    gc.collect()
    gc.disable()
    try:
        for w in words:
            for p in patterns:
                contains(p, w)
                occurrences(p, w)
            corner_profile(w, patterns)
            filling_avoids_all(Filling(square, w), patterns)
            anchored_intervals(table, w, 6)
            child_blocks(table, [6] * 7, w)
            child_forbidden(table, 0, w)
            pop_occurrences(fan, w)
        leaked = gc.collect()
    finally:
        gc.enable()
    assert leaked == 0


def test_direct_sum_worked_example():
    assert format_perm(direct_sum(parse_perm("13425"), parse_perm("2431"))) == "134257986"


def test_direct_sum_identity_and_associativity():
    w = parse_perm("2431")
    assert direct_sum((), w) == w == direct_sum(w, ())
    a, b, c = parse_perm("21"), parse_perm("132"), parse_perm("1")
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))


def test_direct_sum_reverse_complement_antihomomorphism():
    # (a + b)^rc == b^rc + a^rc, the identity behind the decomposition
    # rewrites; exhaustive over all |a|, |b| <= 4
    small = [w for n in range(0, 5) for w in all_perms(n)]
    for a in small:
        for b in small:
            assert apply_ops(direct_sum(a, b), "rc") == direct_sum(
                apply_ops(b, "rc"), apply_ops(a, "rc")
            )


def test_set_symmetries_worked_examples():
    assert set_apply_ops(parse_pattern_set("{45123,45213}"), "r") == parse_pattern_set(
        "{32154,31254}"
    )
    assert set_apply_ops(parse_pattern_set("{12345,12354}"), "rc") == parse_pattern_set(
        "{12345,21345}"
    )
    assert inverse(make_perm(range(1, 6))) == make_perm(range(1, 6))


def test_set_direct_sum_worked_example():
    assert set_direct_sum(
        parse_pattern_set("{123,213}"), parse_pattern_set("{12}")
    ) == parse_pattern_set("{12345,21345}")


def test_avoids_all():
    s = parse_pattern_set("{12345,12354}")
    assert avoids_all(s, parse_perm("4321"))
    assert not avoids_all(s, parse_perm("12345"))
    assert not avoids_all(parse_pattern_set("{312,321,231}"), parse_perm("41523"))


def test_pattern_set_notation():
    s = parse_pattern_set("12345,12354")
    assert format_pattern_set(s) == "{12345,12354}"
    with pytest.raises(ValueError):
        parse_pattern_set("{}")
    for text in ("{21,12,}", "{,12}", "21,,12"):
        with pytest.raises(ValueError, match="empty member"):
            parse_pattern_set(text)
