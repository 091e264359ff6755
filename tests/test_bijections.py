"""The four constructive bijections and the verification harness."""
import dataclasses
import hashlib
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shapewilf.perms import inverse, parse_pattern_set, parse_perm
from shapewilf.pops import below_all_pop, fan_pop, pop_to_pattern_set
from shapewilf.boards import (
    Filling,
    enumerate_boards,
    filling_avoids_all,
    filling_contains,
    fillings,
    fillings_by_board,
    format_filling,
    make_filling,
    square_board,
    transpose_filling,
)
from shapewilf import bijections
from shapewilf.bijections import (
    TOP_ROW_PAIRS,
    BijectionError,
    BijectionOracle,
    direct_sum_transfer,
    fan_bijection,
    fan_bottom_last_oracle,
    fan_oracle,
    fan_to_bottom_last,
    transfer_oracle,
    verify_bijection,
    wedge_valley_bijection,
    wedge_valley_oracle,
)

VALLEY = parse_pattern_set("{213,312}")


def test_fan_empty_board():
    empty = Filling((), ())
    assert fan_bijection(empty, 3, 1, 3) == empty
    assert fan_to_bottom_last(empty, 3) == empty


def test_fan_on_full_square_maps_avoiders_onto_avoiders():
    board = square_board(3)
    src = pop_to_pattern_set(fan_pop(3, 1))  # {312,321}
    tgt = pop_to_pattern_set(fan_pop(3, 3))  # {123,213}
    sources = list(fillings(board, src))
    images = [fan_bijection(f, 3, 1, 3) for f in sources]
    assert len(sources) == 4
    assert {g.rows for g in images} == {f.rows for f in fillings(board, tgt)}


def test_fan_precondition_violation():
    f = make_filling(square_board(3), parse_perm("312"))
    with pytest.raises(BijectionError):
        fan_bijection(f, 3, 1, 3)  # 312 contains the source pattern 312


def test_fan_round_trip_identity():
    for n in range(1, 6):
        for board in enumerate_boards(n):
            for f in fillings(board, pop_to_pattern_set(fan_pop(3, 2))):
                g = fan_bijection(f, 3, 2, 1)
                assert fan_bijection(g, 3, 1, 2) == f


def draw_filling(data, avoid=()):
    """A random filling avoiding ``avoid`` on a random board with n <= 6."""
    board = data.draw(st.sampled_from(enumerate_boards(data.draw(st.integers(0, 6)))))
    avoiders = list(fillings(board, avoid))
    assume(avoiders)
    return data.draw(st.sampled_from(avoiders))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fan_maps_with_swapped_apexes_are_mutual_inverses(data):
    k = data.draw(st.integers(2, 4))
    a, b = data.draw(st.integers(1, k)), data.draw(st.integers(1, k))
    f = draw_filling(data, pop_to_pattern_set(fan_pop(k, a)))
    assert fan_bijection(fan_bijection(f, k, a, b), k, b, a) == f


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_transpose_inverts_every_in_board_pattern(data):
    # the lemma behind fan_to_bottom_last, checked with the reference walker
    f = draw_filling(data)
    p = tuple(data.draw(st.permutations(range(1, data.draw(st.integers(1, 4)) + 1))))
    t = transpose_filling(f)
    assert transpose_filling(t) == f
    assert make_filling(*t) == t
    assert filling_contains(t, inverse(p)) == filling_contains(f, p)


@pytest.mark.parametrize("apexes", [(1, 2), (1, 3), (2, 3), (3, 1), (2, 1), (3, 2)])
def test_fan_k3_verifies(apexes):
    report = verify_bijection(fan_oracle(3, *apexes), 4)
    assert report.ok, report.describe()


def test_fan_k4_verifies():
    for a, b in [(1, 4), (4, 1), (2, 3)]:
        report = verify_bijection(fan_oracle(4, a, b), 4)
        assert report.ok, report.describe()


def test_fan_k2_realizes_12_21_equivalence():
    # the k=2 fan sets are the singletons {21} and {12}, so this is a
    # constructive per-board bijection between their avoidance classes
    oracle = fan_oracle(2, 1, 2)
    assert oracle.source == {(2, 1)}
    assert oracle.target == {(1, 2)}
    report = verify_bijection(oracle, 5)
    assert report.ok, report.describe()


def test_fan_per_board_counts_k3_up_to_n6():
    from shapewilf.equivalence import shape_wilf_table

    report = shape_wilf_table(
        pop_to_pattern_set(fan_pop(3, 1)), pop_to_pattern_set(fan_pop(3, 3)), 6
    )
    assert report.equal


def test_fan_bottom_last_verifies():
    report = verify_bijection(fan_bottom_last_oracle(3), 5)
    assert report.ok, report.describe()


def test_fan_bottom_last_staircase_forced():
    # the staircase has a unique filling on both sides, which must map to itself
    for n in (1, 2, 3, 4):
        f = next(iter(fillings(tuple(range(n, 0, -1)))))
        assert fan_to_bottom_last(f, 3) == f


def test_fan_bottom_last_counts_up_to_n6():
    from shapewilf.equivalence import shape_wilf_table

    report = shape_wilf_table(
        pop_to_pattern_set(fan_pop(3, 3)),
        pop_to_pattern_set(below_all_pop(3, 3)),
        6,
    )
    assert report.equal


@pytest.mark.parametrize("source", ["{123,213}", "{132,213}", "{231,312}"])
def test_wedge_valley_variants_verify(source):
    report = verify_bijection(
        wedge_valley_oracle(parse_pattern_set(source), VALLEY), 5
    )
    assert report.ok, report.describe()


def test_count_transport_to_n6_for_every_bijection():
    # per-board count equality up to n=6 for the source/target pairs of all
    # implemented bijections; fan equalities are chained (transitive) so
    # every apex pair for k in {3,4} is covered
    from shapewilf.equivalence import shape_wilf_table
    from shapewilf.perms import set_direct_sum

    pairs = []
    for k in (3, 4):
        for apex in range(1, k):
            pairs.append(
                (pop_to_pattern_set(fan_pop(k, apex)),
                 pop_to_pattern_set(fan_pop(k, apex + 1)))
            )
    pairs.append(
        (pop_to_pattern_set(fan_pop(3, 3)), pop_to_pattern_set(below_all_pop(3, 3)))
    )
    for source in ("{123,213}", "{132,213}", "{231,312}"):
        pairs.append((parse_pattern_set(source), VALLEY))
    tail = parse_pattern_set("{12}")
    pairs.append(
        (set_direct_sum(parse_pattern_set("{123,213}"), tail),
         set_direct_sum(parse_pattern_set("{312,321}"), tail))
    )
    for left, right in pairs:
        report = shape_wilf_table(left, right, 6)
        assert report.equal, report.describe()


def test_wedge_valley_full_square_counts():
    board = square_board(3)
    assert sum(1 for _ in fillings(board, parse_pattern_set("{123,213}"))) == 4
    assert sum(1 for _ in fillings(board, VALLEY)) == 4


def test_wedge_valley_single_slot_trace_flag():
    # on the staircase every level has a top row of length 1
    f = next(iter(fillings(tuple(range(3, 0, -1)))))
    trace = []
    wedge_valley_bijection(f, parse_pattern_set("{123,213}"), VALLEY, trace)
    assert any("no 1 below the top row" in line for line in trace)


def test_wedge_valley_rejects_unknown_pair():
    f = next(iter(fillings(square_board(2))))
    with pytest.raises(BijectionError):
        wedge_valley_bijection(f, parse_pattern_set("{123,321}"), VALLEY)


def test_transfer_identity_when_tail_avoided_everywhere():
    # decreasing filling avoids {12} entirely: all squares blue, map is identity
    f = make_filling(square_board(4), parse_perm("4321"))
    inner = fan_oracle(3, 3, 1)
    assert direct_sum_transfer(f, parse_pattern_set("{12}"), inner) == f


def test_transfer_oracle_sets():
    oracle = transfer_oracle(fan_oracle(3, 3, 1), parse_pattern_set("{12}"))
    assert oracle.source == parse_pattern_set("{12345,21345}")
    assert oracle.target == parse_pattern_set("{31245,32145}")


def test_transfer_verifies():
    oracle = transfer_oracle(fan_oracle(3, 3, 1), parse_pattern_set("{12}"))
    report = verify_bijection(oracle, 5)
    assert report.ok, report.describe()


@pytest.mark.parametrize("inner, tail", [
    (fan_oracle(3, 1, 2), "{21}"),
    (fan_oracle(3, 2, 3), "{132}"),
])
def test_transfer_verifies_with_tails_that_can_leave_the_board(inner, tail):
    # unlike {12}, these tails have occurrences whose top-right corner lies
    # outside the board; those must not colour any cell red
    report = verify_bijection(transfer_oracle(inner, parse_pattern_set(tail)), 5)
    assert report.ok, report.describe()


def test_transfer_with_the_empty_tail_is_the_inner_map():
    # the empty pattern occurs everywhere, so every cell is red
    inner = fan_oracle(3, 3, 1)
    for f in fillings(square_board(4), inner.source):
        assert direct_sum_transfer(f, {()}, inner) == inner.apply(f)


def test_transfer_images_and_traces_are_pinned_up_to_n6():
    # every source filling with n <= 6 of the pinned transfer, for four
    # tails: a filling whose red region holds no 1 is returned without
    # running the inner map, with the same image and the same trace line
    digest = hashlib.sha256()
    count = 0
    for tail in ({(1, 2)}, {(2, 1)}, {(1, 3, 2)}, {()}):
        oracle = transfer_oracle(fan_oracle(3, 3, 1), tail)
        for n in range(1, 7):
            for board, listed in fillings_by_board(n, oracle.source):
                for rows in listed:
                    f = Filling(board, rows)
                    trace = []
                    g = oracle.apply(f, trace)
                    count += 1
                    digest.update(f"{format_filling(f)} {format_filling(g)} {trace}\n".encode())
    assert count == 36946
    assert digest.hexdigest() == (
        "284e7e45500b4d82dbf589bae13c583515162ffa0d1590cb15fb5961b221c798"
    )


def test_rank_matched_images_and_traces_are_pinned_up_to_n5():
    # every source filling with n <= 5 of four top-row maps (the fan map
    # between apexes 3 and 1 both ways, fan-bottom-last and wedge-valley),
    # with their peel and rebuild traces, as the recursion gave them when
    # it still built a Filling at every level
    digest = hashlib.sha256()
    count = 0
    oracles = (
        fan_oracle(3, 3, 1),
        fan_oracle(3, 1, 3),
        fan_bottom_last_oracle(3),
        wedge_valley_oracle(parse_pattern_set("{132,213}"), VALLEY),
    )
    for oracle in oracles:
        for n in range(1, 6):
            for board, listed in fillings_by_board(n, oracle.source):
                for rows in listed:
                    f = Filling(board, rows)
                    trace = []
                    g = oracle.apply(f, trace)
                    count += 1
                    digest.update(f"{format_filling(f)} {format_filling(g)} {trace}\n".encode())
    assert count == 1860
    assert digest.hexdigest() == (
        "7d0dfb0bee0910cb8d5d80732cd6e5d8ff71845818eee19e795cc9ceaca2a82e"
    )


def red_region_map(f, tail, inner):
    """The transfer's trace line and image from the definition of its red
    region: cell (c, r) is red iff some tail pattern occurs among the 1s
    right of column c and above row r with its complete submatrix grid in
    the board, found by brute force over index subsets.  The squashed red
    subfilling is mapped by the inner oracle, and the blue rows and columns
    are put back around it."""
    board, rows = f
    m = len(rows)
    # each in-board tail occurrence as (first column, lowest row); the
    # empty pattern's lies above and right of every cell
    corners = []
    for p in tail:
        k = len(p)
        for cols in combinations(range(1, m + 1), k):
            vals = [rows[c - 1] for c in cols]
            if all(
                (vals[a] < vals[b]) == (p[a] < p[b])
                for a in range(k) for b in range(a + 1, k)
            ) and all(v <= board[c - 1] for v in vals for c in cols):
                corners.append((min(cols, default=m + 1), min(vals, default=m + 1)))

    def red(c, r):
        return r <= board[c - 1] and any(c < c0 and r < r0 for c0, r0 in corners)

    red_cols = [c for c in range(1, m + 1) if red(c, rows[c - 1])]
    blue_rows = sorted(rows[c - 1] for c in range(1, m + 1) if c not in red_cols)
    kept_rows = [r for r in range(1, m + 1) if r not in blue_rows]
    sub = Filling(
        tuple(sum(1 for r in kept_rows if red(c, r)) for c in red_cols),
        tuple(kept_rows.index(rows[c - 1]) + 1 for c in red_cols),
    )
    image = list(rows)
    for c, r in zip(red_cols, inner(sub).rows):
        image[c - 1] = kept_rows[r - 1]
    line = (
        f"transfer: {len(red_cols)} red columns -> inner board "
        f"{format_filling(sub)}; blue rows {blue_rows}"
    )
    return line, Filling(board, tuple(image))


def test_transfer_red_region_matches_its_definition():
    # independent evidence for the map's red region and its image, unlike
    # the pinned hash above, which the engine itself produced
    count = 0
    tails = ({(1, 2)}, {(2, 1)}, {(1, 3, 2)}, {(2, 3, 1)}, {()}, {(1, 2), (2, 1)})
    inner = fan_oracle(3, 3, 1)
    for tail in tails:
        oracle = transfer_oracle(inner, tail)
        for n in range(1, 6):
            for board, listed in fillings_by_board(n, oracle.source):
                for rows in listed:
                    f = Filling(board, rows)
                    trace = []
                    g = oracle.apply(f, trace)
                    line, image = red_region_map(f, tail, inner)
                    assert trace == [line], (f, tail)
                    assert g == image, (f, tail)
                    count += 1
    assert count == 5802


def test_transfer_precondition_violation():
    f = make_filling(square_board(5), parse_perm("12345"))
    with pytest.raises(BijectionError):
        direct_sum_transfer(f, parse_pattern_set("{12}"), fan_oracle(3, 3, 1))


def _clear_transfer_memos():
    bijections._tail_corners.cache_clear()
    bijections._inner_image.cache_clear()


def test_transfer_memos_key_on_everything_the_image_depends_on():
    # one inner map under two tails, and a second inner map under the first
    # tail, interleaved filling by filling in one process: each image must
    # be the one computed right after both memo tables are emptied
    fan = fan_oracle(3, 3, 1)
    oracles = [
        transfer_oracle(fan, {(1, 2)}),
        transfer_oracle(fan, {(2, 1)}),
        transfer_oracle(wedge_valley_oracle(parse_pattern_set("{132,213}"), VALLEY), {(1, 2)}),
    ]
    sources = [
        [Filling(board, rows) for n in range(1, 6)
         for board, listed in fillings_by_board(n, oracle.source) for rows in listed]
        for oracle in oracles
    ]
    _clear_transfer_memos()
    warm = [[] for _ in oracles]
    for i in range(max(map(len, sources))):
        for oracle, listed, images in zip(oracles, sources, warm):
            if i < len(listed):
                images.append(oracle.apply(listed[i]))
    for oracle, listed, images in zip(oracles, sources, warm):
        for f, g in zip(listed, images):
            _clear_transfer_memos()
            assert oracle.apply(f) == g, (oracle.name, f)
    # an inner map that raises caches nothing: a non-avoider raises again
    f = make_filling(square_board(5), parse_perm("12345"))
    for _ in range(2):
        with pytest.raises(BijectionError):
            direct_sum_transfer(f, parse_pattern_set("{12}"), fan)
    # nor does a subfilling that is no transversal of its board
    for _ in range(2):
        with pytest.raises(BijectionError, match="not a Ferrers transversal"):
            bijections._inner_image(fan.apply, (2, 1), (1, 2))


def test_transfer_lists_each_row_tuple_and_maps_each_subfilling_once(monkeypatch):
    # the pinned transfer at n <= 6 maps 11 356 sources with 823 distinct
    # row tuples, and runs its inner map on 24 distinct squashed subfillings;
    # the verifier validates each distinct image row tuple once per level,
    # here 823 of them, so make_filling runs once per distinct image row
    # tuple and once per distinct subfilling
    calls = {"occurrences": 0, "inner": 0, "make_filling": 0}
    listing = bijections.occurrences
    building = bijections.make_filling

    def counted_occurrences(p, rows):
        calls["occurrences"] += 1
        return listing(p, rows)

    def counted_make_filling(board, rows):
        calls["make_filling"] += 1
        return building(board, rows)

    fan = fan_oracle(3, 3, 1)

    def counted_apply(f, trace=None):
        calls["inner"] += 1
        return fan.apply(f, trace)

    monkeypatch.setattr(bijections, "occurrences", counted_occurrences)
    monkeypatch.setattr(bijections, "make_filling", counted_make_filling)
    _clear_transfer_memos()
    inner = dataclasses.replace(fan, apply=counted_apply)
    report = verify_bijection(transfer_oracle(inner, parse_pattern_set("{12}")), 6)
    assert report.describe() == (
        "transfer[fan k=3 apex 3->1] (+) {12}: OK on 196 boards / 11356 fillings (n <= 6)"
    )
    assert calls == {"occurrences": 823, "inner": 24, "make_filling": 823 + 24}
    _clear_transfer_memos()


def test_transfer_accepts_any_inner_oracle():
    # the inner bijection is pluggable: drive the transfer with the
    # wedge-valley map instead of a fan map
    inner = wedge_valley_oracle(parse_pattern_set("{132,213}"), VALLEY)
    oracle = transfer_oracle(inner, parse_pattern_set("{12}"))
    assert oracle.source == parse_pattern_set("{13245,21345}")
    assert oracle.target == parse_pattern_set("{21345,31245}")
    report = verify_bijection(oracle, 5)
    assert report.ok, report.describe()


@pytest.mark.parametrize("source", ["{132,213}", "{231,312}"])
def test_wedge_valley_derived_rules_hold_at_n6(source):
    # the two slot rules flanking the highest 1 were derived, not quoted;
    # push their exhaustive verification one size past the acceptance bound
    report = verify_bijection(
        wedge_valley_oracle(parse_pattern_set(source), VALLEY), 6
    )
    assert report.ok, report.describe()


def test_transfer_with_multi_pattern_tail_counts_only():
    # generalized version, tail a set of two patterns: count comparison only
    from shapewilf.equivalence import shape_wilf_table
    from shapewilf.perms import set_direct_sum

    tail = parse_pattern_set("{231,321}")
    left = set_direct_sum(parse_pattern_set("{12}"), tail)
    right = set_direct_sum(parse_pattern_set("{21}"), tail)
    assert left == parse_pattern_set("{12453,12543}")
    assert right == parse_pattern_set("{21453,21543}")
    report = shape_wilf_table(left, right, 5)
    assert report.equal


def test_corrupted_oracle_is_caught():
    bad = BijectionOracle(
        name="identity posing as a bijection",
        source=parse_pattern_set("{123,213}"),
        target=parse_pattern_set("{312,321}"),
        apply=lambda f: f,
    )
    report = verify_bijection(bad, 3)
    assert not report.ok
    assert report.violation.kind == "codomain"
    witness_in, witness_out = report.violation.witness
    assert filling_avoids_all(witness_in, bad.source)
    assert not filling_avoids_all(witness_out, bad.target)


def test_verify_reports_the_first_violation_in_board_order():
    # identity on {123,213}-avoiders, except that 3412 on the sixth board
    # with four columns collides with 1432: every earlier board passes
    avoid = parse_pattern_set("{123,213}")
    late = Filling((4, 4, 3, 2), (3, 4, 1, 2))
    collide = Filling((4, 4, 3, 2), (1, 4, 3, 2))
    oracle = BijectionOracle(
        "late collision", avoid, avoid, lambda f: collide if f == late else f
    )
    report = verify_bijection(oracle, 5)
    assert (report.boards_checked, report.fillings_checked) == (14, 56)
    v = report.violation
    assert (v.kind, v.board, v.witness) == ("injectivity", (4, 4, 3, 2), (collide, late))
    assert report.describe() == (
        "late collision: injectivity violation on board (4, 4, 3, 2): "
        "[4,4,3,2]/1432 and [4,4,3,2]/3412 both map to [4,4,3,2]/1432"
    )

    # every {1234}-avoider avoids {12345}: the counts first differ on the
    # square board with four columns, after every board with three
    widen = BijectionOracle(
        "identity", parse_pattern_set("{1234}"), parse_pattern_set("{12345}"), lambda f: f
    )
    report = verify_bijection(widen, 5)
    assert (report.boards_checked, report.fillings_checked) == (9, 42)
    v = report.violation
    assert (v.kind, v.board, v.witness) == ("count", (4, 4, 4, 4), None)
    assert report.describe() == (
        "identity: count violation on board (4, 4, 4, 4): "
        "23 source avoiders vs 24 target avoiders"
    )

    # every nonempty filling contains 1: each board is checked with none
    one = parse_pattern_set("{1}")
    report = verify_bijection(BijectionOracle("none", one, one, lambda f: f), 4)
    assert (report.ok, report.boards_checked, report.fillings_checked) == (True, 22, 0)


# 3412 fits the boards (4, 4, 4, 2) and (4, 4, 3, 3), listed in that
# order; 312 occurs in it in-board only on the second, through columns
# 2, 3 and 4 with highest row 3
PER_BOARD_ROWS = (3, 4, 1, 2)
EARLIER, LATER = (4, 4, 4, 2), (4, 4, 3, 3)


def test_verify_decides_the_codomain_per_board_not_per_row_tuple():
    # identity on {312}-avoiders, except that 4321 on the later board maps
    # to 3412, an image the earlier board already had
    avoid = parse_pattern_set("{312}")
    assert filling_avoids_all(Filling(EARLIER, PER_BOARD_ROWS), avoid)
    late, image = Filling(LATER, (4, 3, 2, 1)), Filling(LATER, PER_BOARD_ROWS)
    oracle = BijectionOracle(
        "late image", avoid, avoid, lambda f, trace=None: image if f == late else f
    )
    report = verify_bijection(oracle, 4)
    v = report.violation
    assert (v.kind, v.board, v.witness) == ("codomain", LATER, (late, image))
    assert report.describe() == (
        "late image: codomain violation on board (4, 4, 3, 3): "
        "[4,4,3,3]/4321 -> [4,4,3,3]/3412 contains the target set"
    )


# 4321 fits the later board; each image below is off it, though the same
# rows, as a tuple, were already validated as an image on the square board,
# listed first
LEAVING_IMAGES = {
    "valid on a taller board": Filling(LATER, (1, 2, 3, 4)),
    "rows right, board wrong": Filling((4, 4, 4, 4), (4, 3, 2, 1)),
    "rows a list": Filling(LATER, [4, 3, 2, 1]),
}


@pytest.mark.parametrize("image", LEAVING_IMAGES.values(), ids=LEAVING_IMAGES)
def test_verify_decides_the_shape_per_board_not_per_row_tuple(image):
    # identity on {312}-avoiders, except that 4321 on the later board maps
    # to an image off that board
    avoid = parse_pattern_set("{312}")
    late = Filling(LATER, (4, 3, 2, 1))
    oracle = BijectionOracle(
        "late image", avoid, avoid, lambda f, trace=None: image if f == late else f
    )
    report = verify_bijection(oracle, 4)
    v = report.violation
    assert (v.kind, v.board, v.witness) == ("shape", LATER, (late, image))
    assert report.describe() == (
        "late image: shape violation on board (4, 4, 3, 3): "
        f"[4,4,3,3]/4321 mapped off-board to {format_filling(image)}"
    )


def test_verify_decides_the_domain_per_board_not_per_row_tuple(monkeypatch):
    # a listing that also hands 3412 to the later board, where it does not
    # avoid the source set; the earlier board lists it rightly
    avoid = parse_pattern_set("{312}")
    listing = bijections.fillings_by_board

    def leaky(n, patterns):
        for board, listed in listing(n, patterns):
            yield board, sorted(listed + [PER_BOARD_ROWS]) if board == LATER else listed

    monkeypatch.setattr(bijections, "fillings_by_board", leaky)
    report = verify_bijection(BijectionOracle("identity", avoid, avoid, lambda f: f), 4)
    v = report.violation
    assert (v.kind, v.board, v.witness) == ("domain", LATER, Filling(LATER, PER_BOARD_ROWS))
    assert report.describe() == (
        "identity: domain violation on board (4, 4, 3, 3): "
        "[4,4,3,3]/3412 contains the source set"
    )


def test_verify_zero_boards_is_vacuously_ok():
    report = verify_bijection(fan_oracle(3, 1, 2), 0)
    assert report.ok
    assert report.boards_checked == 0


def test_shape_preservation_everywhere():
    for n in range(1, 5):
        for board in enumerate_boards(n):
            for f in fillings(board, pop_to_pattern_set(fan_pop(3, 3))):
                assert fan_bijection(f, 3, 3, 2).board == board
                assert fan_to_bottom_last(f, 3).board == board


@pytest.mark.parametrize("k", [2, 3, 4])
def test_fan_to_bottom_last_is_the_fan_map_conjugated_by_transposition(k):
    # the map transposes each board once and inverts the rows itself; the
    # definition transposes the whole filling both ways
    count = 0
    for n in range(1, 7):
        for board, listed in fillings_by_board(n, fan_bottom_last_oracle(k).source):
            for rows in listed:
                f = Filling(board, rows)
                trace, expected_trace = [], []
                expected = transpose_filling(
                    fan_bijection(transpose_filling(f), k, k, 1, expected_trace)
                )
                assert fan_to_bottom_last(f, k, trace) == expected, f
                assert trace == expected_trace, f
                count += 1
    assert count == {2: 196, 3: 2772, 4: 7390}[k]


def test_fan_trace_has_one_line_per_level():
    f = make_filling(square_board(4), parse_perm("1234"))
    trace = []
    fan_bijection(f, 3, 1, 3, trace)
    assert len([l for l in trace if l.startswith("peel")]) == 4
    assert len([l for l in trace if l.startswith("rebuild")]) == 4


def test_verify_catches_images_that_leave_the_board():
    # injective and board-preserving in name only: every row moves up one,
    # so the top row's 1 leaves the board
    shift = BijectionOracle(
        "shift", parse_pattern_set("{123}"), parse_pattern_set("{123}"),
        lambda f, trace=None: Filling(f.board, tuple(r + 1 for r in f.rows)),
    )
    report = verify_bijection(shift, 4)
    assert not report.ok
    v = report.violation
    assert (v.kind, v.board) == ("shape", (1,))
    assert report.describe() == (
        "shift: shape violation on board (1,): [1]/1 mapped off-board to [1]/2"
    )


def _every_oracle():
    for k in range(2, 5):
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                yield fan_oracle(k, a, b)
        yield fan_bottom_last_oracle(k)
    pairs = list(TOP_ROW_PAIRS)
    for i, source in enumerate(pairs):
        yield wedge_valley_oracle(source, pairs[(i + 1) % len(pairs)])
    for tail in ("{12}", "{21}", "{132}"):
        yield transfer_oracle(fan_oracle(3, 3, 1), parse_pattern_set(tail))
        yield transfer_oracle(fan_oracle(2, 1, 2), parse_pattern_set(tail))
    yield transfer_oracle(fan_oracle(3, 3, 1), {()})


@pytest.mark.parametrize("oracle", list(_every_oracle()), ids=lambda o: o.name)
def test_raw_map_raises_exactly_on_non_avoiders(oracle):
    # the raw maps check no precondition up front: a non-avoider must
    # still raise, through the peel recursion's slot test, and an avoider
    # never; calling the oracle checks the source set first
    for n in range(1, 6):
        for board in enumerate_boards(n):
            for f in fillings(board):
                avoids = filling_avoids_all(f, oracle.source)
                try:
                    g = oracle.apply(f)
                except BijectionError:
                    assert not avoids, f
                    with pytest.raises(BijectionError, match="input filling contains"):
                        oracle(f)
                else:
                    assert avoids, f
                    assert oracle(f) == g
