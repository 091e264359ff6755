"""POP construction, occurrence counting, and the pattern-set expansion."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapewilf.perms import all_perms, format_pattern_set, parse_perm, pattern_occurrences
from shapewilf.pops import (
    below_all_pop,
    fan_pop,
    format_pop,
    parse_pop,
    pop,
    pop_occurrences,
    pop_to_pattern_set,
)

perms = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)
small_pops = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.sets(
        st.tuples(st.integers(1, k), st.integers(1, k)), max_size=4
    ).map(lambda pairs: (k, pairs))
)


def test_intro_pop_occurrence_count():
    # size-3 POP with position 3 below position 1 occurs six times in 41523
    p = pop(3, [(3, 1)])
    w = parse_perm("41523")
    assert pop_occurrences(p, w) == 6
    assert format_pattern_set(pop_to_pattern_set(p)) == "{231,312,321}"


def test_chain_equals_classical_pattern_exhaustively():
    for k in (2, 3):
        chain = pop(k, [(i, i + 1) for i in range(1, k)])
        ident = tuple(range(1, k + 1))
        for n in range(0, 8):
            for w in all_perms(n):
                assert pop_occurrences(chain, w) == pattern_occurrences(ident, w)


def test_antichain_counts_all_subsequences():
    assert pop_occurrences(pop(3, []), (3, 2, 1)) == 1
    assert pop_occurrences(pop(2, []), (1, 2, 3)) == 3


def test_fan_pattern_sets():
    assert format_pattern_set(pop_to_pattern_set(fan_pop(3, 1))) == "{312,321}"
    assert format_pattern_set(pop_to_pattern_set(fan_pop(3, 2))) == "{132,231}"
    assert format_pattern_set(pop_to_pattern_set(fan_pop(3, 3))) == "{123,213}"


def test_below_all_pattern_sets():
    assert format_pattern_set(pop_to_pattern_set(below_all_pop(3, 2))) == "{213,312}"
    assert format_pattern_set(pop_to_pattern_set(below_all_pop(3, 3))) == "{231,321}"
    assert format_pattern_set(pop_to_pattern_set(below_all_pop(3, 1))) == "{123,132}"


def test_chain_expands_to_single_pattern():
    assert pop_to_pattern_set(pop(3, [(1, 2), (2, 3)])) == {(1, 2, 3)}


def test_pop_construction_errors():
    with pytest.raises(ValueError):
        pop(3, [(1, 4)])
    with pytest.raises(ValueError):
        pop(3, [(2, 2)])
    with pytest.raises(ValueError):
        pop(3, [(1, 2), (2, 3), (3, 1)])


def test_pop_relation_is_transitively_closed():
    p = pop(4, [(1, 2), (2, 3)])
    assert (1, 3) in p.relation


def test_pop_notation_roundtrip():
    for text in ["3; 3<1", "5; 1<2, 2<3", "2;"]:
        assert format_pop(parse_pop(text)) == format_pop(parse_pop(format_pop(parse_pop(text))))
    with pytest.raises(ValueError):
        parse_pop("3")
    with pytest.raises(ValueError):
        parse_pop("3; 1-2")


POP_TEXTS = (
    st.tuples(
        st.integers(min_value=-1, max_value=5),
        st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5)), max_size=3),
    ).map(lambda kp: f"{kp[0]}; " + ", ".join(f"{a}<{b}" for a, b in kp[1]))
    | st.text(alphabet="0123456789;<, -", max_size=12)
    | st.text(max_size=8)
)


@given(POP_TEXTS)
@settings(max_examples=300)
def test_fuzzed_pop_text_parses_or_raises_value_error(text):
    # the CLI reads no POP text, so the parser is fuzzed directly
    try:
        p = parse_pop(text)
    except ValueError:
        return
    assert parse_pop(format_pop(p)) == p


@given(small_pops, perms)
@settings(max_examples=150)
def test_pop_count_is_sum_over_pattern_set(kp, w):
    k, pairs = kp
    try:
        p = pop(k, pairs)
    except ValueError:
        return  # cyclic generator set
    total = sum(pattern_occurrences(sigma, w) for sigma in pop_to_pattern_set(p))
    assert pop_occurrences(p, w) == total
