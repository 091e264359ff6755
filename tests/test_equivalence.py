"""Counting engines, equivalence tables, symmetry machinery."""
import unittest.mock
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapewilf.perms import (
    anchored_kernel, format_pattern_set, parse_pattern_set,
    prefix_table, set_apply_ops,
)
from shapewilf.boards import (
    Filling,
    count_fillings,
    filling_avoids_all,
    filling_counts,
    fillings,
    fillings_by_board,
    square_board,
)
from shapewilf import bijections, boards, equivalence
from shapewilf.equivalence import (
    BUDGET_CAP,
    ExpressionError,
    avoider_counts,
    child_forbidden,
    count_avoiders,
    count_avoiders_naive,
    counts_within_budget,
    evaluate_oracle_expression,
    evaluate_set_expression,
    find_shape_wilf_divergence,
    shape_wilf_table,
    symmetry_identity_check,
    symmetry_orbit,
    trivial_symmetry_class,
    wilf_table,
)

HUB = parse_pattern_set("{12345,12354}")


@pytest.fixture(autouse=True)
def cold_count_cache(monkeypatch):
    """The avoider-count cache lives as long as the process; each test
    here starts from an empty one, and the process's cache is restored."""
    monkeypatch.setattr(equivalence, "_class_counts", {})


def test_trivial_counts():
    assert count_avoiders(HUB, 4) == 24
    assert count_avoiders(HUB, 5) == 118
    assert count_avoiders(parse_pattern_set("{12}"), 3) == 1
    assert count_avoiders(HUB, 0) == 1


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


@given(st.lists(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
    ),
    min_size=1,
    max_size=3,
).map(frozenset))
@settings(max_examples=25, deadline=None)
def test_counts_match_naive_for_patterns_of_length_1_to_5(patterns):
    naive = [count_avoiders_naive(patterns, n) for n in range(7)]
    assert equivalence._extension_walk(patterns, 6) == naive[1:]
    for n in range(7):
        assert count_avoiders(patterns, n) == naive[n], n


@given(pattern_sets)
@settings(max_examples=30, deadline=None)
def test_counting_walk_matches_naive_and_square_fillings(patterns):
    counts = avoider_counts(patterns, 6)
    for n in range(1, 7):
        assert counts[n - 1] == count_avoiders_naive(patterns, n), n
        assert counts[n - 1] == count_fillings(square_board(n), patterns), n


@given(pattern_sets)
@settings(max_examples=20, deadline=None)
def test_cached_counts_match_naive_on_every_orbit_member(patterns):
    for member in symmetry_orbit(patterns):
        counts = avoider_counts(member, 6)
        assert counts == [count_avoiders_naive(member, n) for n in range(1, 7)], member
        # an uncached walk of this orientation agrees with its class's list
        assert equivalence._extension_walk(member, 6) == counts, member


@given(
    st.frozensets(
        st.integers(min_value=0, max_value=5).flatmap(
            lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=0, max_value=7).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    ),
)
@settings(max_examples=150)
def test_the_gate_is_set_exactly_where_the_set_kernel_finds_something(patterns, w):
    # along w's prefixes, bit r of the gate is set iff the set's kernel on
    # the child made by appending r returns a nonempty list
    table = prefix_table(patterns)
    kernel = anchored_kernel(table)
    gate = child_forbidden(equivalence._gate_kernel(table), 0, ())
    for i in range(len(w) + 1):
        prefix = tuple(sorted(w[:i]).index(v) + 1 for v in w[:i])
        if prefix:
            gate = child_forbidden(equivalence._gate_kernel(table), gate, prefix)
        n = i + 1
        assert gate >> n + 1 == 0
        for r in range(1, n + 1):
            child = (*[v + 1 if v >= r else v for v in prefix], r)
            assert bool(gate >> r & 1) == bool(kernel(child, n + 1)), (prefix, r)


@pytest.mark.parametrize(
    "patterns",
    [
        frozenset({(), (1, 2)}),
        frozenset({(1,)}),
        frozenset({(1,), (2, 1, 3)}),
        frozenset({(1, 2), (3, 1, 2, 4)}),
        parse_pattern_set("{2413,3142}"),
        parse_pattern_set("{123,132,213}"),
    ],
)
def test_gated_walk_where_the_gate_holds_the_empty_prefix_or_goes_full(patterns):
    naive = [count_avoiders_naive(patterns, n) for n in range(8)]
    assert equivalence._extension_walk(patterns, 7) == naive[1:]
    for n in range(8):
        assert count_avoiders(patterns, n) == naive[n], n


# the sets and sizes of the benchmark's wilf-count workload
WILF_COUNT_SETS = [
    ("{12345,12354}", 8), ("{45123,45213}", 8), ("{13452,23451}", 7),
    *((text, 7) for text in (
        "{12354,12435}", "{12354,12453}", "{12354,21354}", "{12435,12453}",
        "{12453,12534}", "{12453,12543}", "{12543,21543}", "{13254,21354}",
        "{13254,23154}", "{21354,21453}", "{21453,21534}",
    )),
    ("{1324}", 8),
]


def test_gated_walk_runs_the_set_kernel_only_where_it_finds_something(monkeypatch):
    # one walk of each set: after the root, every set-kernel call finds a
    # prefix occurrence; the ungated walk made 23 459 set-kernel calls
    kinds = {}
    calls = {"set": 0, "gate": 0}
    empty = []
    frontier = equivalence.child_forbidden

    def counted(kernel, forbidden, child):
        kind = kinds[kernel]
        calls[kind] += 1
        if kind == "set" and child and not kernel(child, len(child) + 1):
            empty.append(child)
        return frontier(kernel, forbidden, child)

    monkeypatch.setattr(equivalence, "child_forbidden", counted)
    for text, n in WILF_COUNT_SETS:
        patterns = parse_pattern_set(text)
        table = prefix_table(patterns)
        kinds[anchored_kernel(table)] = "set"
        kinds[equivalence._gate_kernel(table)] = "gate"
        equivalence._extension_walk(patterns, n)
    assert empty == []
    assert calls == {"set": 7628, "gate": 4121}


def test_each_class_walks_its_member_with_the_fewest_prefixes(monkeypatch):
    # the wilf-count classes from a cold cache; walking each set as given
    # makes 7 628 set-kernel calls (above), and no call after the root is empty
    kinds = {}
    calls = {"set": 0, "gate": 0}
    empty = []
    frontier, walk = equivalence.child_forbidden, equivalence._extension_walk

    def counted(kernel, forbidden, child):
        kind = kinds[kernel]
        calls[kind] += 1
        if kind == "set" and child and not kernel(child, len(child) + 1):
            empty.append(child)
        return frontier(kernel, forbidden, child)

    def walked(patterns, n_max):
        table = prefix_table(patterns)
        kinds[anchored_kernel(table)] = "set"
        kinds[equivalence._gate_kernel(table)] = "gate"
        return walk(patterns, n_max)

    monkeypatch.setattr(equivalence, "child_forbidden", counted)
    monkeypatch.setattr(equivalence, "_extension_walk", walked)
    for text, n in WILF_COUNT_SETS:
        avoider_counts(parse_pattern_set(text), n)
    assert empty == []
    assert calls == {"set": 6214, "gate": 4121}


@given(st.frozensets(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.permutations(list(range(1, k + 1))).map(tuple)
    ),
    min_size=1,
    max_size=3,
))
@settings(max_examples=100, deadline=None)
def test_a_miss_walks_the_given_set_unless_a_member_has_fewer_prefixes(patterns):
    walked = []
    walk = equivalence._extension_walk

    def recorded(member, n_max):
        walked.append(member)
        return walk(member, n_max)

    equivalence._class_counts.clear()
    with unittest.mock.patch.object(equivalence, "_extension_walk", recorded):
        avoider_counts(patterns, 3)
    orbit = symmetry_orbit(patterns)
    sizes = {member: len(prefix_table(member)) for member in orbit}
    [member] = walked
    assert member in orbit
    assert sizes[member] == min(sizes.values())
    if sizes[patterns] == sizes[member]:
        assert member == patterns


def test_one_walk_per_symmetry_class(monkeypatch):
    walks = []
    walk = equivalence._extension_walk

    def counted(patterns, n_max):
        walks.append(format_pattern_set(patterns))
        return walk(patterns, n_max)

    monkeypatch.setattr(equivalence, "_extension_walk", counted)
    # two classes, Wilf-equivalent but not by a trivial symmetry; a miss
    # walks the set as given unless a member of its orbit has strictly
    # fewer distinct prefixes, and then the first member with the fewest:
    # the hub has one prefix, {45123,45213} two and {21534,21543} one
    texts = ["{12345,12354}", "{12345,12354}^rc", "{45123,45213}", "{21453,21543}"]
    counts = [avoider_counts(evaluate_set_expression(text), 7) for text in texts]
    assert walks == ["{12345,12354}", "{21534,21543}"]
    assert counts == [[1, 2, 6, 24, 118, 672, 4256]] * 4
    # a hit is a copy of the stored list, and a longer n_max walks again
    counts[0].append(0)
    assert avoider_counts(HUB, 6) == [1, 2, 6, 24, 118, 672]
    assert avoider_counts(HUB, 8)[-1] == count_avoiders(HUB, 8)
    assert walks == ["{12345,12354}", "{21534,21543}", "{12345,12354}"]

    # a miss or a hit builds the orbit first; a negative n builds none
    lookups = []
    monkeypatch.setattr(equivalence, "symmetry_orbit", lookups.append)
    with pytest.raises(ValueError):
        avoider_counts(HUB, -1)
    with pytest.raises(ValueError):
        count_avoiders(HUB, -1)
    assert lookups == [] and len(walks) == 3


def test_avoider_counts_reads_a_generator_once():
    assert avoider_counts((p for p in HUB), 5) == [1, 2, 6, 24, 118]
    assert avoider_counts((p for p in set_apply_ops(HUB, "r")), 6)[-1] == 672
    assert counts_within_budget((p for p in HUB), 4, 0) == [1, 2, 6, 24]
    assert count_avoiders((p for p in {()}), 0) == 0
    assert count_avoiders(iter(HUB), 0) == 1


def test_mixed_length_sets():
    patterns = parse_pattern_set("{12,321}")
    for n in range(0, 7):
        assert count_avoiders(patterns, n) == count_avoiders_naive(patterns, n)


@pytest.mark.parametrize(
    "patterns", [frozenset({()}), frozenset({(), (2, 1)}), frozenset({(1,)})]
)
def test_every_engine_at_size_0_agrees_with_the_naive_oracle(patterns):
    # the empty permutation and the empty filling contain the empty
    # pattern and avoid every other
    expected = count_avoiders_naive(patterns, 0)
    assert expected == filling_avoids_all(Filling((), ()), patterns)
    assert count_avoiders(patterns, 0) == expected
    assert list(fillings_by_board(0, patterns)) == [((), [()] * expected)]
    assert filling_counts(0, patterns) == {(): expected}
    assert len(list(fillings((), patterns))) == expected
    assert count_fillings((), patterns) == expected


# the five operations of one shape-wilf benchmark pass: (left, right, n)
SHAPE_WILF_TABLES = [
    ("{31245,32145}", "{12345,21345}", 6),
    ("{12453,12543}", "{21453,21543}", 6),
    ("{2341,2431,3241,3421,4231,4321}", "{2314,2413,3214,3412,4213,4312}", 5),
    ("{231,321}", "{213,312}", 6),
]
SHAPE_WILF_NEGATIVE_CONTROL = ("{213,312}", "{123,132}", 6)


def test_board_counts_fold_the_last_two_columns_without_their_frontiers(monkeypatch):
    # listing the last column and building each child frontier at column
    # n - 1 made 16 004 child_blocks calls; the fold still runs the set's
    # kernel once per child there, for the one frontier entry it reads
    calls = {"child_blocks": 0, "kernel": 0}
    frontier, compiled = boards.child_blocks, boards.anchored_kernel

    def counted_frontier(kernel, blocks, rows):
        calls["child_blocks"] += 1
        return frontier(kernel, blocks, rows)

    def counted_kernel(table):
        kernel = compiled(table)

        def counted(rows, top):
            calls["kernel"] += 1
            return kernel(rows, top)
        return counted

    monkeypatch.setattr(boards, "child_blocks", counted_frontier)
    monkeypatch.setattr(boards, "anchored_kernel", counted_kernel)
    for left, right, n in SHAPE_WILF_TABLES:
        assert shape_wilf_table(parse_pattern_set(left), parse_pattern_set(right), n).equal
    left, right, n = SHAPE_WILF_NEGATIVE_CONTROL
    assert find_shape_wilf_divergence(parse_pattern_set(left), parse_pattern_set(right), n)
    assert calls == {"child_blocks": 5000, "kernel": 16004}


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
    s = parse_pattern_set("{132,4321}")
    report = wilf_table(s, set_apply_ops(s, "r"), 6)
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


@given(pattern_sets)
@settings(max_examples=100, deadline=None)
def test_symmetry_orbit_is_closed(patterns):
    orbit = symmetry_orbit(patterns)
    assert symmetry_orbit(iter(patterns)) == orbit
    assert patterns in orbit
    assert 8 % len(orbit) == 0
    for member in orbit:
        for op in "rci":
            assert set_apply_ops(member, op) in orbit, (member, op)
        assert symmetry_orbit(member) == orbit, member


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
    for text in ["", "fan", "fan(3,1)", "fan(3,1,3", "fan(3,1,3) 1", "fan(3,-1,3)",
                 "fan(3,1,{3})", "transfer(fan(3,3,1))", "transfer({12},{12})",
                 "wedge-valley({132,213})", "Fan(3,1,3)", "fan (3,,1,3)", "12"]:
        with pytest.raises(ExpressionError):
            evaluate_oracle_expression(text)


def test_oracle_expressions_build_through_the_four_builders():
    fan = bijections.fan_oracle(3, 3, 1)
    valley = bijections.wedge_valley_oracle(
        parse_pattern_set("{132,213}"), parse_pattern_set("{213,312}")
    )
    for text, oracle in [
        ("fan(3,3,1)", fan),
        (" fan-bottom-last ( 4 ) ", bijections.fan_bottom_last_oracle(4)),
        ("wedge-valley({231,312}^r,{213,312})", valley),
        ("transfer(fan(3,3,1),{12})", bijections.transfer_oracle(fan, {(1, 2)})),
        ("transfer(transfer(wedge-valley({132,213},{213,312}),12),1+1)",
         bijections.transfer_oracle(bijections.transfer_oracle(valley, {(1, 2)}), {(1, 2)})),
    ]:
        built = evaluate_oracle_expression(text)
        assert (built.name, built.source, built.target) == (
            oracle.name, oracle.source, oracle.target), text


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
    # a stub clock and a stub walk whose level n costs 2^n ms, so the
    # growth of the counts (2^(n-1)) projects the next level exactly
    clock = [0.0]
    calls = []

    def walk(patterns, n):
        calls.append(n)
        clock[0] += 2 ** n / 1000
        return [2 ** i for i in range(n)]

    monkeypatch.setattr(equivalence, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(equivalence, "_extension_walk", walk)

    def run(n, budget):
        calls.clear()
        equivalence._class_counts.clear()
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


def test_budget_after_a_cache_hit_projects_from_the_stored_walk(monkeypatch):
    # the same stub costs, on the walk behind the real cache: walking to
    # level n costs 2^n ms and the counts grow by 2 per level
    clock = [0.0]
    walks = []

    def walk(patterns, n_max):
        walks.append(n_max)
        clock[0] += 2 ** n_max / 1000
        return [2 ** i for i in range(n_max)]

    monkeypatch.setattr(equivalence, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(equivalence, "_extension_walk", walk)
    avoider_counts(HUB, 5)  # the stored walk took 32 ms
    # the lookup takes no time, but level 6 projects to 64 ms
    assert len(counts_within_budget(HUB, 5, 0.05)) == 5 and walks == [5]
    # levels below the end of the stored list are lookups; then it decides
    assert len(counts_within_budget(set_apply_ops(HUB, "r"), 3, 0.05)) == 5 and walks == [5]
    assert len(counts_within_budget(HUB, 5, 0.07)) == 6 and walks == [5, 6]


def test_a_budget_that_is_not_at_least_0_raises_before_counting(monkeypatch):
    from shapewilf.suites import SuiteOptions

    calls = []
    monkeypatch.setattr(equivalence, "avoider_counts", lambda p, n: calls.append(n) or [1] * n)
    for budget in (float("nan"), -1.0, -1e-9, float("-inf")):
        with pytest.raises(ValueError, match="time budget must be >= 0 seconds"):
            counts_within_budget(HUB, 3, budget)
        with pytest.raises(ValueError, match="time budget must be >= 0 seconds"):
            SuiteOptions(time_budget=budget)
    assert calls == []
    assert counts_within_budget(HUB, 3, float("inf")) == [1] * BUDGET_CAP
    assert SuiteOptions(time_budget=float("inf")).time_budget == float("inf")


def test_full_tables_keep_the_first_divergence():
    # every row from n=2 on differs, and 9 boards differ up to n=5; the
    # full table lists them all but the first stays the divergence
    report = wilf_table(parse_pattern_set("{123}"), parse_pattern_set("{12}"), 4,
                        fail_fast=False)
    assert [r.equal for r in report.rows] == [True, False, False, False]
    assert report.first_divergence == 2 and {r.board for r in report.rows} == {None}
    report = shape_wilf_table(parse_pattern_set("{213,312}"),
                              parse_pattern_set("{123,132}"), 5, fail_fast=False)
    assert sum(not r.equal for r in report.rows) == 9 and len(report.rows) == 64
    assert report.first_divergence == (4, (4, 4, 4, 3))
