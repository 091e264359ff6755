"""Counting engines, equivalence tables, symmetry machinery."""
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapewilf.perms import parse_pattern_set
from shapewilf.boards import square_board, count_fillings
from shapewilf import equivalence
from shapewilf.equivalence import (
    BUDGET_CAP,
    ExpressionError,
    avoider_counts,
    avoiders,
    count_avoiders,
    count_avoiders_naive,
    counts_within_budget,
    evaluate_set_expression,
    find_shape_wilf_divergence,
    shape_wilf_table,
    symmetry_identity_check,
    symmetry_orbit,
    trivial_symmetry_class,
    wilf_table,
)

HUB = parse_pattern_set("{12345,12354}")


def test_trivial_counts():
    assert count_avoiders(HUB, 4) == 24
    assert count_avoiders(HUB, 5) == 118
    assert count_avoiders(parse_pattern_set("{12}"), 3) == 1
    assert count_avoiders(HUB, 0) == 1


def test_avoiders_listing():
    assert sorted(avoiders(parse_pattern_set("{123}"), 3)) == [
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]


@pytest.mark.parametrize(
    "set_text",
    [
        "{12345,12354}",
        "{45123,45213}",
        "{123}",
        "{312,321,231}",
        "{132,4321}",
    ],
)
def test_extension_tree_matches_naive(set_text):
    patterns = parse_pattern_set(set_text)
    for n in range(0, 7):
        assert count_avoiders(patterns, n) == count_avoiders_naive(patterns, n), n


pattern_sets = st.lists(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
    ),
    min_size=1,
    max_size=3,
).map(frozenset)


@given(pattern_sets)
@settings(max_examples=30, deadline=None)
def test_counting_walk_matches_naive_and_square_fillings(patterns):
    counts = avoider_counts(patterns, 6)
    for n in range(1, 7):
        assert counts[n - 1] == count_avoiders_naive(patterns, n), n
        assert counts[n - 1] == count_fillings(square_board(n), patterns), n


def test_mixed_length_sets():
    patterns = parse_pattern_set("{12,321}")
    for n in range(0, 7):
        assert count_avoiders(patterns, n) == count_avoiders_naive(patterns, n)


def test_count_fillings_on_square_equals_avoider_count():
    for set_text in ["{12345,12354}", "{123,213}"]:
        patterns = parse_pattern_set(set_text)
        for n in range(1, 6):
            assert count_fillings(square_board(n), patterns) == count_avoiders(
                patterns, n
            )


def test_wilf_table_divergence():
    report = wilf_table(parse_pattern_set("{123}"), parse_pattern_set("{12}"), 3)
    assert not report.equal
    assert report.first_divergence == 2


def test_wilf_table_symmetry_always_equal():
    from shapewilf.perms import set_reverse

    s = parse_pattern_set("{132,4321}")
    report = wilf_table(s, set_reverse(s), 6)
    assert report.equal
    assert [r.n for r in report.rows] == list(range(1, 7))


def test_shape_wilf_table_equal_pair():
    report = shape_wilf_table(
        parse_pattern_set("{123,213}"), parse_pattern_set("{312,321}"), 4
    )
    assert report.equal
    # rows cover every board of every n with no gaps
    assert len(report.rows) == 1 + 2 + 5 + 14


def test_shape_wilf_divergence_witness():
    row = find_shape_wilf_divergence(
        parse_pattern_set("{213,312}"), parse_pattern_set("{123,132}"), 6
    )
    assert row is not None
    assert row.board == (4, 4, 4, 3)
    assert {row.left_count, row.right_count} == {8, 10}
    # and the full-table variant agrees
    report = shape_wilf_table(
        parse_pattern_set("{213,312}"), parse_pattern_set("{123,132}"), 4
    )
    assert report.first_divergence == (4, (4, 4, 4, 3))


def test_shape_wilf_implies_wilf():
    left = parse_pattern_set("{123,213}")
    right = parse_pattern_set("{132,231}")
    assert shape_wilf_table(left, right, 5).equal
    assert wilf_table(left, right, 5).equal


def test_symmetry_orbit_and_canonical():
    orbit = symmetry_orbit(parse_pattern_set("{12}"))
    assert orbit == [frozenset({(1, 2)}), frozenset({(2, 1)})]
    assert trivial_symmetry_class(parse_pattern_set("{21}")) == frozenset({(1, 2)})
    # idempotent
    s = parse_pattern_set("{12345,12354}")
    assert trivial_symmetry_class(trivial_symmetry_class(s)) == trivial_symmetry_class(s)


def test_equivalence_of_main_sets_is_not_a_trivial_symmetry():
    left = symmetry_orbit(parse_pattern_set("{12345,12354}"))
    right = symmetry_orbit(parse_pattern_set("{45123,45213}"))
    assert not set(left) & set(right)


def test_expression_evaluation():
    assert evaluate_set_expression("12+{132,213}") == parse_pattern_set(
        "{12354,12435}"
    )
    assert evaluate_set_expression("({132,231}+12)^irc") == parse_pattern_set(
        "{12435,12453}"
    )
    assert evaluate_set_expression("(12+12)^c") == evaluate_set_expression("1234^c")


def test_symmetry_identity_examples():
    assert symmetry_identity_check(parse_pattern_set("{12354,12435}"), "12+{132,213}")
    assert symmetry_identity_check(
        parse_pattern_set("{12435,12453}"), "({132,231}+12)^irc"
    )
    assert symmetry_identity_check(
        evaluate_set_expression("{12,21}+321"), "(321+{12,21})^rc"
    )
    assert not symmetry_identity_check(parse_pattern_set("{12}"), "21")


def test_malformed_expressions():
    for text in ["", "{12,21", "12+", "12^x", "(12", "12 21", "^rc"]:
        with pytest.raises(ExpressionError):
            evaluate_set_expression(text)


def test_shape_wilf_full_table_no_fail_fast():
    report = shape_wilf_table(
        parse_pattern_set("{213,312}"),
        parse_pattern_set("{123,132}"),
        4,
        fail_fast=False,
    )
    assert not report.equal
    assert len(report.rows) == 1 + 2 + 5 + 14


def test_budget_starts_a_level_only_if_its_projection_fits(monkeypatch):
    # a stub clock and a stub count whose level n costs 2^n ms, so the
    # growth of the counts (2^(n-1)) projects the next level exactly
    clock = [0.0]
    calls = []

    def counts(patterns, n):
        calls.append(n)
        clock[0] += 2 ** n / 1000
        return [2 ** i for i in range(n)]

    monkeypatch.setattr(equivalence, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(equivalence, "avoider_counts", counts)

    def run(n, budget):
        calls.clear()
        clock[0] = 0.0
        return counts_within_budget(HUB, n, budget)

    assert len(run(3, None)) == 3 and calls == [3]
    assert len(run(3, 0)) == 3 and calls == [3]
    # level 4 alone costs 16 ms
    assert len(run(3, 0.015)) == 3 and calls == [3]
    # the levels 4 and 5 cost 16 + 32 ms; level 6 would end 112 ms after
    # the budget started
    assert len(run(3, 0.1)) == 5 and calls == [3, 4, 5]
    assert clock[0] - 2 ** 3 / 1000 <= 0.1
    assert len(run(3, 0.113)) == 6 and calls == [3, 4, 5, 6]
    assert len(run(3, 1e9)) == BUDGET_CAP and calls == list(range(3, BUDGET_CAP + 1))
