"""
Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

All tolerances are exact (integer counts and set equalities).  One pinned
reference value is a verified erratum and is kept as a strict expected
failure rather than silently corrected; see
test_criterion_1_erratum_312_count for the analysis.
"""
from itertools import combinations
from math import comb, factorial

import pytest

from shapewilf.perms import (
    direct_sum,
    format_perm,
    parse_pattern_set,
    parse_perm,
    pattern_occurrences,
)
from shapewilf.pops import below_all_pop, fan_pop, pop, pop_occurrences, pop_to_pattern_set
from shapewilf.boards import (
    board_from_row_lengths,
    count_fillings,
    enumerate_boards,
    filling_contains,
    fillings,
    make_filling,
    square_board,
    transversal_count_formula,
)
from shapewilf.bijections import (
    fan_bijection,
    fan_bottom_last_oracle,
    fan_oracle,
    transfer_oracle,
    verify_bijection,
    wedge_valley_oracle,
)
from shapewilf.equivalence import (
    avoider_counts,
    count_avoiders_naive,
    evaluate_set_expression,
    find_shape_wilf_divergence,
    shape_wilf_table,
    symmetry_identity_check,
)
from shapewilf.oeis import align_and_compare, fetch_sequence
from shapewilf.suites import COROLLARY_DECOMPOSITIONS, EXTRA_IDENTITY

HUB_TEXT = "{12345,12354}"


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_worked_examples():
    assert pattern_occurrences(parse_perm("123"), parse_perm("31425")) == 3
    assert pop_occurrences(pop(3, [(3, 1)]), parse_perm("41523")) == 6
    fig = make_filling(
        board_from_row_lengths((6, 6, 6, 4, 3, 2)), parse_perm("561423")
    )
    assert not filling_contains(fig, parse_perm("312"))
    assert filling_contains(fig, parse_perm("123"))
    assert format_perm(direct_sum(parse_perm("13425"), parse_perm("2431"))) == "134257986"
    report("1", True, "worked examples reproduce (except the known 312-count erratum)")


@pytest.mark.xfail(
    strict=True,
    reason="stated value 7 is an erratum: exhaustive enumeration of all 20 "
    "length-3 subsequences of 561423 yields 9 occurrences of 312 "
    "(cross-checked by an independent brute-force oracle)",
)
def test_criterion_1_erratum_312_count():
    count = pattern_occurrences(parse_perm("312"), parse_perm("561423"))
    report("1(312-count)", count == 7, f"stated 7, computed {count} - verified erratum")
    assert count == 7


def test_criterion_1_erratum_has_true_count_9():
    w = parse_perm("561423")
    brute = sum(
        1
        for idxs in combinations(range(6), 3)
        if (w[idxs[1]] < w[idxs[2]] < w[idxs[0]])
    )
    assert brute == 9
    assert pattern_occurrences(parse_perm("312"), w) == 9


def test_criterion_2_main_equivalence():
    left = avoider_counts(parse_pattern_set(HUB_TEXT), 9)
    right = avoider_counts(parse_pattern_set("{45123,45213}"), 9)
    passed = left == right
    report("2", passed, f"Av_n{HUB_TEXT} = Av_n{{45123,45213}} for n <= 9: {left}")
    assert passed


def test_criterion_3_oeis_crosscheck(tmp_path):
    counts = avoider_counts(parse_pattern_set(HUB_TEXT), 9)
    assert counts[:4] == [factorial(n) for n in range(1, 5)]
    assert counts[4] == 118
    seq = fetch_sequence("A224295", cache_dir=tmp_path, offline=True)
    result = align_and_compare(counts, seq)
    passed = result.aligned and result.matched_prefix_length == 9
    report(
        "3",
        passed,
        f"9 computed terms match A224295 ({seq.provenance}) at offset "
        f"{result.alignment_offset}",
    )
    assert passed


SHAPE_WILF_PAIRS = [
    ("{123,213}", "{312,321}"),
    ("{123,213}", "{132,231}"),
    ("{123,213}", "{213,312}"),
    ("{12}", "{21}"),
    ("{12345,21345}", "{31245,32145}"),
    ("{12453,12543}", "{21453,21543}"),
]


@pytest.mark.parametrize("left,right", SHAPE_WILF_PAIRS)
def test_criterion_4_shape_wilf_suite(left, right):
    rep = shape_wilf_table(parse_pattern_set(left), parse_pattern_set(right), 6)
    report("4", rep.equal, f"{left} ~s {right} on every board up to n=6")
    assert rep.equal, rep.describe()


def test_criterion_5_bijection_verification():
    oracles = []
    for k in (3, 4):
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                if a != b:
                    oracles.append(fan_oracle(k, a, b))
    oracles.append(fan_bottom_last_oracle(3))
    valley = parse_pattern_set("{213,312}")
    for source in ("{123,213}", "{132,213}", "{231,312}"):
        oracles.append(wedge_valley_oracle(parse_pattern_set(source), valley))
    oracles.append(transfer_oracle(fan_oracle(3, 3, 1), parse_pattern_set("{12}")))
    for oracle in oracles:
        rep = verify_bijection(oracle, 5)
        assert rep.ok, rep.describe()
    # round-trip identity
    for n in range(1, 6):
        for board in enumerate_boards(n):
            for f in fillings(board, pop_to_pattern_set(fan_pop(3, 1))):
                assert fan_bijection(fan_bijection(f, 3, 1, 3), 3, 3, 1) == f
    report("5", True, f"{len(oracles)} oracles verified on all boards n <= 5, zero violations")


def test_criterion_6_negative_control():
    row = find_shape_wilf_divergence(
        parse_pattern_set("{213,312}"), parse_pattern_set("{123,132}"), 6
    )
    passed = row is not None
    detail = (
        f"witness board {row.board}: {row.left_count} vs {row.right_count}"
        if passed
        else "no witness found"
    )
    report("6", passed, detail)
    assert passed


def test_criterion_7_corollary():
    hub = avoider_counts(parse_pattern_set(HUB_TEXT), 8)
    identity_count = 0
    for lhs_text, exprs in COROLLARY_DECOMPOSITIONS:
        assert avoider_counts(parse_pattern_set(lhs_text), 8) == hub, lhs_text
        lhs = parse_pattern_set(lhs_text)
        for expr in exprs:
            assert symmetry_identity_check(lhs, expr), (lhs_text, expr)
            identity_count += 1
    assert symmetry_identity_check(
        evaluate_set_expression(EXTRA_IDENTITY[0]), EXTRA_IDENTITY[1]
    )
    identity_count += 1
    report(
        "7",
        True,
        f"13 sets Wilf-equal to {HUB_TEXT} for n <= 8; "
        f"{identity_count} symbolic identities hold exactly",
    )


def test_criterion_8_conjecture_evidence(tmp_path):
    for k in (3, 4):
        left = pop_to_pattern_set(below_all_pop(k, k))
        right = pop_to_pattern_set(below_all_pop(k, k - 1))
        rep = shape_wilf_table(left, right, 6)
        assert rep.equal, rep.describe()
    counts = avoider_counts(parse_pattern_set("{13452,23451}"), 9)
    seq = fetch_sequence("A224295", cache_dir=tmp_path, offline=True)
    result = align_and_compare(counts, seq)
    passed = result.aligned and result.matched_prefix_length == 9
    report(
        "8",
        passed,
        "EVIDENCE: conjectured pairs shape-Wilf-count-equal (k=3,4, n <= 6); "
        "Av{13452,23451} matches A224295 for n <= 9",
    )
    assert passed


def test_criterion_9_engine_oracles():
    engine_sets = [
        HUB_TEXT,
        "{45123,45213}",
        "{123}",
        "{312,321,231}",
        "{132,4321}",
    ]
    for set_text in engine_sets:
        patterns = parse_pattern_set(set_text)
        assert avoider_counts(patterns, 8) == [
            count_avoiders_naive(patterns, n) for n in range(1, 9)
        ]
    for set_text in (HUB_TEXT, "{123}"):
        patterns = parse_pattern_set(set_text)
        counts = avoider_counts(patterns, 7)
        for n in range(1, 8):
            assert count_fillings(square_board(n), patterns) == counts[n - 1]
    for n in range(1, 11):
        assert len(enumerate_boards(n)) == comb(2 * n, n) // (n + 1)
    for n in range(1, 8):
        for board in enumerate_boards(n):
            assert count_fillings(board) == transversal_count_formula(board)
    report(
        "9",
        True,
        "extension tree == naive (5 sets, n <= 8); square fillings == avoider "
        "counts (n <= 7); Catalan board counts (n <= 10); product formula (n <= 7)",
    )
