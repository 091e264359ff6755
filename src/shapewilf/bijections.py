"""
Constructive bijections between avoiding fillings of a Ferrers board,
with a verification harness.

All maps here preserve the board shape exactly and send fillings avoiding
one pattern set to fillings avoiding another, establishing per-board count
equalities (shape-Wilf-equivalences) constructively.  Calling a
``BijectionOracle`` checks that the input avoids the source set, then runs
the raw map ``apply``; a raw map raises on a non-avoider at its first peel
level whose top-row 1 is not a valid slot.  The maps:

* ``fan_bijection`` -- between two "fan" pattern sets of the same size
  (all patterns whose maximum sits at a fixed position).  The filling is
  peeled one top row at a time together with the column of its 1; the 1's
  column is one of min(k-1, l) valid slots, and slots are matched by
  left-to-right rank on the two sides.  The rows left below a peeled top
  row h are 1..h-1, so the recursion reads the input's rows as they are
  and rebuilds the image in one list, on the input's board.
* ``fan_to_bottom_last`` -- from the fan with apex at the last position to
  the set of patterns whose minimum sits at the last position; the fan map
  from apex k to apex 1 on the transposed filling, transposed back.  So
  every map here runs the one top-row peel recursion.  Each board is
  transposed once, in a bounded memo table (1024 entries); the rows are
  inverted directly.
* ``wedge_valley_bijection`` -- between any two of the six size-3 pattern
  pairs handled by the top-row recursion; for the valley-like pairs the
  two valid slots flank the column holding the highest 1 below the top row
  among the top-row columns.
* ``direct_sum_transfer`` -- lifts any inner bijection for S ~ S' to one
  for S (+) T ~ S' (+) T by splitting the board into a "red" region (cells
  with an in-board occurrence of some pattern of T strictly above and to
  the right) and a "blue" rest, mapping the squashed red subfilling with
  the inner bijection, and reinserting the blue rows and columns.  A
  filling has a red 1 iff it contains {1} (+) T in-board, so one corner
  test against a threshold listed per row tuple returns a filling with no
  red 1 as its own image, before any pass over its columns and without
  the inner map.  Otherwise the red columns are read off the in-board
  tail occurrences in one pass from the right, and when the inner map
  fixes the squashed subfilling the input is returned as it is.  Two
  bounded memo tables share work across fillings: the tail occurrences
  of each row tuple that can redden a column, with the threshold (8192
  entries), and the inner image of each squashed red subfilling (4096
  entries), which assumes the inner map is a pure function of its
  filling.

``verify_bijection`` checks a map exhaustively on every board up to a
size.  Its avoidance checks use the corner profile of each distinct row
tuple (``boards.corner_profile``), built once per level, not the reference
walker once per filling, and it validates each distinct image row tuple
with ``make_filling`` once per level; each filling then costs one
comparison per column for each check that depends on its board.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import le
from typing import Callable, Optional

from .perms import (
    Perm, PatternSet, format_pattern_set, inverse, occurrences, set_direct_sum,
)
from .boards import (
    Board,
    Filling,
    board_from_row_lengths,
    corner_profile,
    filling_avoids_all,
    filling_counts,
    fillings_by_board,
    format_filling,
    make_filling,
)
from .pops import fan_pop, below_all_pop, pop_to_pattern_set

_EMPTY = Filling((), ())


class BijectionError(ValueError):
    """Precondition or internal-consistency violation in a bijection run."""


@dataclass(frozen=True)
class BijectionOracle:
    """A named shape-preserving map between avoidance classes.  ``apply(f,
    trace=None)`` is the raw map, which may fill an optional trace list;
    calling the oracle first checks that f avoids the source set."""

    name: str
    source: PatternSet
    target: PatternSet
    apply: Callable[..., Filling]

    def __call__(self, f: Filling, trace: Trace = None) -> Filling:
        if not filling_avoids_all(f, self.source):
            raise BijectionError(
                f"input filling contains a pattern of {format_pattern_set(self.source)}"
            )
        return self.apply(f, trace)


Trace = Optional[list]
# slot rule: (top row length, rows of the filling below the top row, trace)
# -> valid 1-based insertion columns in increasing order
SlotRule = Callable[[int, list[int], Trace], list[int]]


# ---------------------------------------------------------------------------
# the rank-matched top-row recursion

def _run_rank_matched(
    f: Filling, slots_src: SlotRule, slots_tgt: SlotRule, trace: Trace
) -> Filling:
    # Each peel level removes the top row and the column of its 1, so the
    # filling left below row h holds exactly rows 1..h-1 and every level
    # reads the input's absolute rows.  Row h's length ell is the count of
    # remaining columns at least h tall: the peeled columns were all taller.
    # The smaller board does not depend on which full-height column held
    # the 1, so the rebuild inserts row h at its target slot into a plain
    # list, and the image has the input's board.
    board, rows = f
    m = len(board)
    below = list(rows)
    # per peel level: the top row's length and its 1's rank among the slots
    records: list[tuple[int, int]] = []
    tall = 0
    for level, h in enumerate(range(m, 0, -1), 1):
        while tall < m and board[tall] >= h:
            tall += 1
        ell = tall - level + 1
        pos = below.index(h) + 1
        del below[pos - 1]
        slots = slots_src(ell, below, trace)
        if pos not in slots:
            raise BijectionError(
                f"input filling violates the source avoidance at level {level}: "
                f"position {pos} not among valid slots {slots}"
            )
        rank = slots.index(pos)
        if trace is not None:
            trace.append(f"peel level {level}: ell={ell} pos={pos} slots={slots} rank={rank}")
        records.append((ell, rank))
    out: list[int] = []
    for level, (ell, rank) in enumerate(reversed(records), 1):
        slots = slots_tgt(ell, out, trace)
        pos = slots[rank]
        if trace is not None:
            trace.append(
                f"rebuild level {level}: ell={ell} slots={slots} "
                f"rank={rank} pos={pos}"
            )
        if not 1 <= pos <= ell:
            raise BijectionError(f"bad top-row reinsertion ell={ell} col={pos}")
        out.insert(pos - 1, level)
    return Filling(board, tuple(out))


def _fan_slots(ell: int, k: int, apex: int) -> list[int]:
    # Placing the top-row 1 at column i creates an occurrence (apex at the
    # new maximum) exactly when both sides hold enough columns:
    # i > apex-1 and i < ell-(k-apex)+1.  For ell < k every column is safe.
    # the two runs merge when the right one starts by the left one's end
    a = min(apex, ell + 1)
    return [*range(1, a), *range(max(a, ell - (k - apex) + 1), ell + 1)]


def _fan_rule(k: int, apex: int) -> SlotRule:
    def rule(ell: int, below: list[int], trace: Trace) -> list[int]:
        return _fan_slots(ell, k, apex)

    return rule


def _highest_below(ell: int, below: list[int]) -> int:
    """1-based index, among the ell-1 full-height columns below the new top
    row, of the column holding the highest 1."""
    prefix = below[: ell - 1]
    return 1 + prefix.index(max(prefix))


def _flag_single_slot(trace: Trace) -> list[int]:
    if trace is not None:
        trace.append(
            "note: top-row columns hold no 1 below the top row; "
            "all (one) insertion slots valid"
        )
    return [1]


def _valley_rule(ell: int, below: list[int], trace: Trace) -> list[int]:
    # {213,312}: safe slots flank the column of the highest 1
    if ell == 1:
        return _flag_single_slot(trace)
    c = _highest_below(ell, below)
    return [c, c + 1]


def _low_first_rule(ell: int, below: list[int], trace: Trace) -> list[int]:
    # {132,213}: leftmost slot, or just right of the highest 1
    if ell == 1:
        return _flag_single_slot(trace)
    c = _highest_below(ell, below)
    return [1, c + 1]


def _high_last_rule(ell: int, below: list[int], trace: Trace) -> list[int]:
    # {231,312}: just left of the highest 1, or the rightmost slot
    if ell == 1:
        return _flag_single_slot(trace)
    c = _highest_below(ell, below)
    return [c, ell]


@lru_cache(maxsize=None)
def _fan_set(k: int, apex: int) -> PatternSet:
    """The fan set of size k with the given apex, built once per (k, apex)."""
    return pop_to_pattern_set(fan_pop(k, apex))


def _pset(*words: str) -> PatternSet:
    return frozenset(tuple(int(ch) for ch in word) for word in words)


# the six size-3 pattern pairs handled by the top-row recursion
TOP_ROW_PAIRS: dict[PatternSet, SlotRule] = {
    _pset("312", "321"): _fan_rule(3, 1),
    _pset("132", "231"): _fan_rule(3, 2),
    _pset("123", "213"): _fan_rule(3, 3),
    _pset("213", "312"): _valley_rule,
    _pset("132", "213"): _low_first_rule,
    _pset("231", "312"): _high_last_rule,
}


def _top_row_rule(patterns: PatternSet) -> SlotRule:
    try:
        return TOP_ROW_PAIRS[patterns]
    except KeyError:
        known = ", ".join(sorted(format_pattern_set(s) for s in TOP_ROW_PAIRS))
        raise BijectionError(
            f"no top-row slot rule for {format_pattern_set(patterns)}; "
            f"known pairs: {known}"
        ) from None


# ---------------------------------------------------------------------------
# public bijections

def fan_bijection(
    f: Filling, k: int, source_apex: int, target_apex: int, trace: Trace = None
) -> Filling:
    """
    Map a filling avoiding the fan set with apex ``source_apex`` to one of
    the same board avoiding the fan set with apex ``target_apex``; the two
    runs with swapped apexes are mutually inverse.  A non-avoider raises
    ``BijectionError`` at its first invalid peel level.
    """
    return _run_rank_matched(
        f, _fan_rule(k, source_apex), _fan_rule(k, target_apex), trace
    )


# the column heights of each board's transpose, validated once per board
_transposed = lru_cache(maxsize=1 << 10)(board_from_row_lengths)


def fan_to_bottom_last(f: Filling, k: int, trace: Trace = None) -> Filling:
    """
    Map a filling avoiding the fan set with apex k (patterns with maximum
    last) to one avoiding the patterns with minimum last: the fan map from
    apex k to apex 1, conjugated by ``transpose_filling``.  Transposing a
    filling inverts every in-board pattern; "maximum last" is closed under
    inverse, and the inverse of "maximum first" is "minimum last".  So the
    recursion peels the rightmost column and the row of its 1, and a
    non-avoider raises at its first invalid peel level.  The fan map keeps
    the transposed board, whose transpose is f's, so only the rows are
    inverted back; each board is transposed (and validated) once, in a
    bounded memo table.
    """
    board, rows = f
    image = fan_bijection(Filling(_transposed(board), inverse(rows)), k, k, 1, trace)
    return Filling(board, inverse(image.rows))


def wedge_valley_bijection(
    f: Filling, source: PatternSet, target: PatternSet, trace: Trace = None
) -> Filling:
    """
    Map between avoiders of any two of the six size-3 pairs in
    TOP_ROW_PAIRS (the three wedge/fan pairs, the valley pair {213,312},
    and the pairs {132,213} and {231,312}); every pair admits exactly
    min(2, top-row length) insertion slots, matched by rank.  A
    non-avoider raises ``BijectionError`` at its first invalid peel level.
    """
    src_rule = _top_row_rule(frozenset(source))
    tgt_rule = _top_row_rule(frozenset(target))
    return _run_rank_matched(f, src_rule, tgt_rule, trace)


# ---------------------------------------------------------------------------
# direct sum transfer

def direct_sum_transfer(
    f: Filling, tail: PatternSet, inner: BijectionOracle, trace: Trace = None
) -> Filling:
    """
    Map a filling avoiding ``inner.source (+) tail`` to one avoiding
    ``inner.target (+) tail`` on the same board.

    Every board cell with an in-board occurrence of some tail pattern
    strictly above and to its right is red, the rest blue.  The reference
    walker lists the tail occurrences once per row tuple (a bounded memo
    table, ``_tail_corners``), which drops those with no 1 below and left of
    them: they redden no column.  The corner test keeps the in-board ones on
    f's board; a column's red cells are the rows below the highest lowest
    row of one starting to its right, up to the column's height.  One pass
    from the right reads which columns are red (those whose 1 is a red cell)
    and their red tops.  Rows and columns of blue 1s are deleted; since the
    rows are a permutation, the rows left are those of the red 1s.  The red
    remainder is squashed bottom-left into a smaller board, mapped with the
    inner bijection, and the blue rows and columns are reinserted unchanged;
    when the inner map fixes the squashed subfilling, f is its own image and
    is returned as it is.  The inner image is memoized per ``inner.apply``
    and squashed subfilling in a second bounded table, so the inner map must
    be a pure function of its filling; one that raises caches nothing, and
    it runs with no trace.  The squashed board is Ferrers by construction: a
    column's red top is the minimum of its height and a suffix maximum, two
    sequences that never increase to the right.  ``make_filling`` checks
    only that the red 1s are a transversal of it, once per memo miss.  A red
    1 and a tail occurrence above and right of it form an in-board
    occurrence of {1} (+) tail, so a filling avoiding that set in-board, by
    one corner test against the threshold the memo table lists with the
    occurrences, has no red 1 and maps to itself at once, before the pass
    over its columns: the squashed red subfilling is the empty filling, the
    image of itself under any shape-preserving inner map, so the inner map
    is not run; the trace still gets its transfer line.  A non-avoider has a
    red subfilling that contains ``inner.source``, so the inner map raises
    at its first invalid peel level.
    """
    board, rows = f
    m = len(board)
    if m == 0:
        return f
    tail = frozenset(tail)
    corners, need = _tail_corners(rows, tail)
    if not any(map(le, need, board)):
        # f avoids {1} (+) tail in-board, so no 1 is red: the empty board's
        # one filling is its own image under any shape-preserving inner
        # map, so f is too
        _trace_transfer(trace, _EMPTY, m, [])
        return f
    # cell (c, r) is red iff some occurrence starts right of column c with
    # every row above r, so a column's red cells are the bottom run of rows
    # below the highest lowest row among those occurrences: the highest
    # lowest row per start column, then a suffix maximum from the right;
    # index m holds the empty occurrence, above and right of every cell
    reach = [0] * m + [m + 1 if () in tail else 0]
    for start, last, high, low in corners:
        # in-board iff its highest row is at most its last column's height
        if high <= board[last] and low > reach[start]:
            reach[start] = low
    # one pass from the right keeps that suffix maximum in best: column c
    # is red iff its 1 lies below best, and its red top is best - 1 capped
    # by its height
    red_cols: list[int] = []
    red_tops: list[int] = []
    best = reach[m]
    for c in range(m - 1, -1, -1):
        if rows[c] < best:
            red_cols.append(c)
            red_tops.append(min(board[c], best - 1))
        if reach[c] > best:
            best = reach[c]
    red_cols.reverse()
    red_tops.reverse()
    # the rows are a permutation, so the surviving rows are the red 1s' rows
    red_rows = sorted([rows[c] for c in red_cols])
    sub = Filling(
        tuple([bisect_right(red_rows, top) for top in red_tops]),
        tuple([bisect_left(red_rows, rows[c]) + 1 for c in red_cols]),
    )
    _trace_transfer(trace, sub, m, red_rows)

    mapped = _inner_image(inner.apply, *sub)
    if mapped.board != sub.board:
        raise BijectionError(
            f"inner oracle {inner.name!r} changed the board shape: "
            f"{mapped.board} != {sub.board}"
        )
    if mapped.rows == sub.rows:
        return f
    out_rows = list(rows)
    for c, r in zip(red_cols, mapped.rows):
        out_rows[c] = red_rows[r - 1]
    return Filling(board, tuple(out_rows))


@lru_cache(maxsize=1 << 13)
def _tail_corners(
    rows: Perm, tail: PatternSet
) -> tuple[tuple[tuple[int, int, int, int], ...], tuple[int, ...]]:
    """The occurrences in rows of the tail's nonempty patterns that can
    redden a column, and the red threshold, from one listing.

    Each occurrence is kept as 0-based (first column, last column, highest
    row, lowest row); its highest and lowest rows sit at its pattern's k
    and 1.  One whose lowest row is not above the least row left of its
    first column has no 1 below and left of it, so it reddens no column
    and is dropped.  A kept one and a 1 below and left of it form an
    occurrence of {1} (+) tail with the same last column and highest row,
    so the threshold's entry for a 0-based column is the least highest row
    of an occurrence of {1} (+) tail ending there, and len(rows) + 1 if
    there is none; with the empty pattern in the tail, {1} (+) () = {1}
    occurs at every 1, so no entry exceeds its column's row.  A filling of
    a board by rows has a red 1 iff some entry is at most its column's
    height: the corner test of {1} (+) tail."""
    m = len(rows)
    least_left = list(accumulate(rows, min, initial=m + 1))
    need = list(rows) if () in tail else [m + 1] * m
    kept = []
    for p in filter(None, tail):
        top, bottom = p.index(len(p)), p.index(1)
        for occ in occurrences(p, rows):
            start, last, low = occ[0] - 1, occ[-1] - 1, rows[occ[bottom] - 1]
            if low > least_left[start]:
                high = rows[occ[top] - 1]
                kept.append((start, last, high, low))
                if high < need[last]:
                    need[last] = high
    return tuple(kept), tuple(need)


@lru_cache(maxsize=1 << 12)
def _inner_image(apply: Callable[..., Filling], board: Board, rows: Perm) -> Filling:
    """``apply`` of the squashed subfilling, checked to be a transversal
    once per inner map and subfilling; a raise caches nothing."""
    try:
        sub = make_filling(board, rows)
    except ValueError as exc:
        raise BijectionError(
            f"squashed red region is not a Ferrers transversal: {exc}"
        ) from exc
    return apply(sub)


def _trace_transfer(trace: Trace, sub: Filling, m: int, red_rows: list[int]) -> None:
    if trace is not None:
        blue_rows = [r for r in range(1, m + 1) if r not in red_rows]
        trace.append(
            f"transfer: {len(sub.rows)} red columns -> inner board "
            f"{format_filling(sub)}; blue rows {blue_rows}"
        )


# ---------------------------------------------------------------------------
# oracle builders

def fan_oracle(k: int, source_apex: int, target_apex: int) -> BijectionOracle:
    return BijectionOracle(
        name=f"fan k={k} apex {source_apex}->{target_apex}",
        source=_fan_set(k, source_apex),
        target=_fan_set(k, target_apex),
        apply=lambda f, trace=None: fan_bijection(f, k, source_apex, target_apex, trace),
    )


def fan_bottom_last_oracle(k: int) -> BijectionOracle:
    return BijectionOracle(
        name=f"fan-bottom-last k={k}",
        source=_fan_set(k, k),
        target=pop_to_pattern_set(below_all_pop(k, k)),
        apply=lambda f, trace=None: fan_to_bottom_last(f, k, trace),
    )


def wedge_valley_oracle(source: PatternSet, target: PatternSet) -> BijectionOracle:
    source = frozenset(source)
    target = frozenset(target)
    _top_row_rule(source)
    _top_row_rule(target)
    return BijectionOracle(
        name=f"wedge-valley {format_pattern_set(source)}->{format_pattern_set(target)}",
        source=source,
        target=target,
        apply=lambda f, trace=None: wedge_valley_bijection(f, source, target, trace),
    )


def transfer_oracle(inner: BijectionOracle, tail: PatternSet) -> BijectionOracle:
    tail = frozenset(tail)
    return BijectionOracle(
        name=f"transfer[{inner.name}] (+) {format_pattern_set(tail)}",
        source=set_direct_sum(inner.source, tail),
        target=set_direct_sum(inner.target, tail),
        apply=lambda f, trace=None: direct_sum_transfer(f, tail, inner, trace),
    )


# ---------------------------------------------------------------------------
# verification harness

@dataclass
class Violation:
    kind: str  # domain | codomain | shape | injectivity | count
    board: Board
    witness: object
    detail: str


@dataclass
class VerificationReport:
    oracle: str
    n_max: int
    boards_checked: int = 0
    fillings_checked: int = 0
    violation: Optional[Violation] = None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def describe(self) -> str:
        if self.ok:
            return (
                f"{self.oracle}: OK on {self.boards_checked} boards / "
                f"{self.fillings_checked} fillings (n <= {self.n_max})"
            )
        v = self.violation
        return (
            f"{self.oracle}: {v.kind} violation on board "
            f"{v.board}: {v.detail}"
        )


def verify_bijection(oracle: BijectionOracle, n_max: int) -> VerificationReport:
    """
    Exhaustively check the oracle's raw ``apply`` on every board with up to
    n_max columns: inputs avoid the source set, outputs are transversals
    of the same board and avoid the target set, the map is injective per
    board, and source/target counts agree (surjectivity).  Stops at the
    first violation.  Each level streams its sources board by board from
    one ``fillings_by_board`` walk and takes its target counts from one
    ``filling_counts`` walk.

    The avoidance checks are the reference walker's, through
    ``corner_profile``: one permutation fits many boards, so each level
    lists the occurrences of each distinct source row tuple and of each
    distinct image row tuple once, and decides each board by one
    comparison per column against its heights, ``(0,) + board``, built
    once per board.  The shape check splits the same way: the first time
    an image row tuple comes up in a level, ``make_filling`` validates it
    on the board at hand, in the step that builds its target profile;
    after that, an image is on its board iff ``g.board == board`` and
    every 1 is at most its column's height.  So every part of the check
    that depends on the board is still made for every image.  Injectivity
    is checked on the image rows within the board.  The profiles are
    dropped at the end of the level, so memory stays bounded by one
    level's distinct row tuples.
    """
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    report = VerificationReport(oracle.name, n_max)
    source = sorted(oracle.source)
    target = sorted(oracle.target)
    for n in range(1, n_max + 1):
        target_counts = filling_counts(n, target)
        source_profiles: dict[Perm, list[int]] = {}
        image_profiles: dict[Perm, list[int]] = {}
        for board, listed in fillings_by_board(n, source):
            report.boards_checked += 1
            heights = (0,) + board
            seen: dict[Perm, Filling] = {}
            for rows in listed:
                f = Filling(board, rows)
                report.fillings_checked += 1
                need = source_profiles.get(rows)
                if need is None:
                    need = source_profiles[rows] = corner_profile(rows, source)
                if any(map(le, need, heights)):
                    report.violation = Violation(
                        "domain", board, f, f"{format_filling(f)} contains the source set"
                    )
                    return report
                try:
                    g = oracle.apply(f)
                except BijectionError as exc:
                    report.violation = Violation(
                        "domain", board, f, f"{format_filling(f)}: {exc}"
                    )
                    return report
                image = g.rows
                try:
                    need = image_profiles.get(image)
                except TypeError:  # unhashable rows: no row tuple, not profiled
                    need = None
                if need is not None:
                    # profiled in this level, so a permutation of 1..n
                    on_board = g.board == board and all(map(le, image, board))
                else:
                    try:
                        on_board = make_filling(board, image) == g
                    except ValueError:
                        on_board = False
                    if on_board:
                        need = image_profiles[image] = corner_profile(image, target)
                if not on_board:
                    report.violation = Violation(
                        "shape", board, (f, g),
                        f"{format_filling(f)} mapped off-board to {format_filling(g)}",
                    )
                    return report
                if any(map(le, need, heights)):
                    report.violation = Violation(
                        "codomain", board, (f, g),
                        f"{format_filling(f)} -> {format_filling(g)} contains the target set",
                    )
                    return report
                if image in seen:
                    report.violation = Violation(
                        "injectivity", board, (seen[image], f),
                        f"{format_filling(seen[image])} and {format_filling(f)} "
                        f"both map to {format_filling(g)}",
                    )
                    return report
                seen[image] = f
            if len(listed) != target_counts[board]:
                report.violation = Violation(
                    "count", board, None,
                    f"{len(listed)} source avoiders vs {target_counts[board]} target avoiders",
                )
                return report
    return report
