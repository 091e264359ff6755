"""
Counting engines and reports for Wilf- and shape-Wilf-equivalence.

Two pattern sets are Wilf-equivalent when they have the same number of
avoiders in S_n for every n, and shape-Wilf-equivalent when they have the
same number of avoiding fillings on every Ferrers board; the second
implies the first (the full square is a board).

Avoiders are counted by a depth-first walk of an extension tree.  Every
avoider of length n arises exactly once by appending a last entry
r in 1..n to an avoider of length n-1 and shifting the values >= r up by
one: deleting the last entry and standardizing preserves avoidance, and
it undoes the append.  So only occurrences ending at the new last entry
need testing.  Each node carries them as a frontier: the bitmask of the
appended values r that would complete a pattern (``child_forbidden``).
A child inherits its parent's mask, shifted with its values, and adds
the intervals that the anchored prefix search reports for the prefix
occurrences ending at its own last entry.  Most children have none, so
each node carries a second mask, the gate: the frontier of the set's
nonempty prefixes, made the same way.  Its bit r is set exactly when a
prefix occurrence ends at the new entry of the child made by appending
r, so only those children run the set's search, and every other child
takes the shifted mask.  A full gate stays full under the shift, so a
node whose gate is full runs no gate search.  The walk fetches both
compiled searches, ``perms.anchored_kernel``, once.  The children are
the clear bits, taken lowest first, so the last level is counted from
its parents' frontiers by popcount without being visited; unless
avoiders are listed, the level above it is visited in its parents' loops
and opens no frame of its own, and an ungated child there builds no
tuple.  Memory is O(n^2) whatever n is.  The board walk of
``boards`` carries the same frontier over absolute rows.  All counts are
exact Python integers, so there is no overflow to detect.

Reverse, complement and inverse generate the eight symmetries of the
square.  ``SYMMETRIES`` lists them as words applied left to right: the
identity, the two flips and the half-turn ("", "r", "c", "rc"), each
alone or followed by the transpose "i".  A set's orbit is its images
under the eight (``symmetry_orbit``), and the Wilf-equivalences within
one orbit are the trivial ones.

Avoider counts do not change under reverse, complement and inverse, so
``avoider_counts`` keeps, per process, the longest count list walked for
each symmetry class, keyed by ``trivial_symmetry_class``, with the
seconds that walk took.  A call whose n_max the list covers gets a slice
of it; any other call walks one member of the orbit and stores the
longer list.  Every member visits the same nodes, but a member whose
patterns share fewer prefixes runs a kernel of fewer loop nests at each,
so the walk takes the set as given unless a member has strictly fewer
distinct prefixes, and then the first member with the fewest.
Listings (``avoiders``) are not cached, so memory stays bounded.
Nor are board counts: reverse and complement change them, and only
inverse together with transposing the board preserves them.

A Wilf or shape-Wilf table is a list of ``Row``s, one per n or per
board, built by one loop that records the first unequal row as the
report's ``first_divergence``; the report is equal exactly when there
is none.
"""
from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from functools import partialmethod
from typing import Callable, Iterable, Optional, TypeVar

from .perms import (
    PatternSet,
    Perm,
    Kernel,
    PrefixTable,
    all_perms,
    anchored_kernel,
    avoids_all,
    format_pattern_set,
    parse_perm,
    prefix_table,
    set_apply_ops,
    set_direct_sum,
)
from .boards import Board, filling_counts
from . import bijections

T = TypeVar("T")


@dataclass
class Row:
    """One comparison: level n, the board (None in a Wilf table) and
    both sets' counts."""
    n: int
    board: Optional[Board]
    left_count: int
    right_count: int

    @property
    def equal(self) -> bool:
        return self.left_count == self.right_count


@dataclass
class EquivalenceReport:
    kind: str  # "wilf" | "shape-wilf"
    left: PatternSet
    right: PatternSet
    n_max: int
    rows: list[Row] = field(default_factory=list)
    first_divergence: Optional[object] = None  # n, or (n, board)

    @property
    def equal(self) -> bool:
        return self.first_divergence is None

    def describe(self) -> str:
        lhs, rhs = format_pattern_set(self.left), format_pattern_set(self.right)
        if self.equal:
            return f"{lhs} vs {rhs}: equal up to n={self.n_max} ({self.kind})"
        return f"{lhs} vs {rhs}: diverges at {self.first_divergence} ({self.kind})"


# ---------------------------------------------------------------------------
# avoider generation

# Memory stays O(n^2): the cap bounds the time of the level running at the end.
BUDGET_CAP = 14


def _shifted(mask: int, r: int) -> int:
    """The mask a child made by appending r inherits from its parent's:
    bits below r stay, bit r is doubled and the bits above move up one,
    as the values >= r do.  A full mask stays full."""
    return mask & ((2 << r) - 1) | mask >> r << r + 1


def child_forbidden(kernel: Kernel, forbidden: int, child: Perm) -> int:
    """
    The frontier of ``child`` in the avoider tree: bit r is set iff
    appending r to the child, shifting its values >= r up, completes a
    pattern of the kernel's table at the new entry.  ``forbidden`` is the
    parent's frontier and the child was made by appending its last entry
    to the parent; the root is ``child_forbidden(kernel, 0, ())``.

    The shift (``_shifted``) maps an occurrence's interval (A, B] onto
    the child's.  Then each prefix occurrence ending at the new entry
    adds its interval.

    The walk keeps two such masks per node, both made here: the set's
    frontier, and the gate, the frontier of the set's nonempty prefixes.
    Bit r of the gate is set exactly when the set's kernel finds a prefix
    occurrence ending at the new entry of the child made by appending r,
    so a child whose bit is clear takes the shifted frontier and runs no
    kernel.  A full gate stays full under the shift, so a node whose gate
    is full runs no gate search.  For {123, 132} the gate is the frontier
    of {12}: of the children of (1,), only (1, 2) ends an occurrence.

    >>> table = prefix_table({(1, 2, 3), (1, 3, 2)})
    >>> kernel = anchored_kernel(table)
    >>> root = child_forbidden(kernel, 0, ())
    >>> bin(child_forbidden(kernel, child_forbidden(kernel, root, (1,)), (1, 2)))
    '0b1100'
    >>> gate = _gate_kernel(table)
    >>> bin(child_forbidden(gate, child_forbidden(gate, 0, ()), (1,)))
    '0b100'
    """
    if child:
        forbidden = _shifted(forbidden, child[-1])
    for a, b, _ in kernel(child, len(child) + 1):
        forbidden |= (2 << b) - (2 << a)
    return forbidden


def _gate_kernel(table: PrefixTable) -> Kernel:
    """The gate's kernel: the anchored search of the table's nonempty
    prefixes q, whose occurrences ending at a new entry are exactly where
    the table's own kernel finds something."""
    return anchored_kernel(prefix_table(q for q, _ in table if q))


def _extension_walk(
    patterns: Iterable[Perm], n_max: int, leaves: Optional[list] = None
) -> list[int]:
    """Counts of avoiders for n = 1..n_max, by one depth-first walk of the
    extension tree; the avoiders of length n_max go into ``leaves``, in
    lexicographic order of insertion codes.  A node's children are the
    clear bits of its frontier, lowest first, so the last level is counted
    from its parents' frontiers, and listed only for leaves.  A child runs
    the set's kernel only where its parent's gate is set."""
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    patterns = frozenset(patterns)
    table = prefix_table(patterns)
    kernel, gate_kernel = anchored_kernel(table), _gate_kernel(table)
    counts = [0] * n_max

    def grow(w: Perm, forbidden: int, gate: int) -> None:
        n = len(w) + 1
        full = (2 << n) - 2
        free = ~forbidden & full
        counts[n - 1] += free.bit_count()
        if n == n_max and leaves is None:
            return
        # without leaves, each child's children are counted here, in no frame of its own
        count_below = n == n_max - 1 and leaves is None
        if count_below and gate != full:
            # an ungated child inherits the frontier shifted past its own clear
            # bit r, so it has one free entry more than its parent: no tuple
            counts[n] += (free & ~gate).bit_count() * (free.bit_count() + 1)
            free &= gate
        while free:
            low = free & -free
            free ^= low
            r = low.bit_length() - 1
            child = (*[v + 1 if v >= r else v for v in w], r)
            if n == n_max:
                leaves.append(child)
            elif count_below:
                counts[n] += (~child_forbidden(kernel, forbidden, child) & ((4 << n) - 2)).bit_count()
            else:
                # a full gate stays full, and the leaves' parents read no gate
                grow(
                    child,
                    child_forbidden(kernel, forbidden, child) if gate & low else _shifted(forbidden, r),
                    (4 << n) - 2 if gate == full or n == n_max - 1
                    else child_forbidden(gate_kernel, gate, child),
                )

    if n_max:
        grow((), child_forbidden(kernel, 0, ()), child_forbidden(gate_kernel, 0, ()))
    elif leaves is not None and () not in patterns:
        leaves.append(())  # the empty permutation avoids every nonempty pattern
    return counts


def avoiders(patterns: Iterable[Perm], n: int) -> list[Perm]:
    """
    All permutations of length n avoiding every given pattern, by the
    depth-first extension walk.

    >>> sorted(avoiders({(1, 2, 3)}, 3))
    [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    leaves: list[Perm] = []
    _extension_walk(patterns, n, leaves)
    return leaves


# symmetry class -> (counts for n = 1..len, seconds the walk took); the walk
# was of the member with the fewest prefixes, the set as given on a tie
_class_counts: dict[PatternSet, tuple[list[int], float]] = {}


def avoider_counts(patterns: Iterable[Perm], n_max: int) -> list[int]:
    """
    Counts of avoiders for n = 1..n_max, served from the symmetry class's
    cached list when it reaches n_max.  A miss walks the orbit member that
    ``_walked_member`` picks: all members have the same counts, and one
    with fewer distinct prefixes runs a smaller kernel at every node.

    >>> avoider_counts({(1, 2, 3, 4, 5), (1, 2, 3, 5, 4)}, 5)
    [1, 2, 6, 24, 118]
    """
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    patterns = frozenset(patterns)
    orbit = symmetry_orbit(patterns)  # its first member keys the class
    counts = _class_counts.get(orbit[0], ([], 0.0))[0]
    if len(counts) < n_max:
        start = time.perf_counter()
        counts = _extension_walk(_walked_member(patterns, orbit), n_max)
        _class_counts[orbit[0]] = (counts, time.perf_counter() - start)
    return counts[:n_max]


def _walked_member(patterns: PatternSet, orbit: list[PatternSet]) -> PatternSet:
    """The member of ``patterns``' orbit that a cache miss walks: the set
    as given, unless a member has strictly fewer distinct prefixes; then
    the first member in orbit order with the fewest.

    >>> given = evaluate_set_expression("{45123,45213}")
    >>> format_pattern_set(_walked_member(given, symmetry_orbit(given)))
    '{21534,21543}'
    """
    fewest = min(orbit, key=lambda member: len(prefix_table(member)))
    return fewest if len(prefix_table(fewest)) < len(prefix_table(patterns)) else patterns


def count_avoiders(patterns: Iterable[Perm], n: int) -> int:
    """
    Number of permutations of length n avoiding every given pattern; the
    empty permutation, of length 0, avoids all but the empty pattern.

    >>> count_avoiders({(1, 2, 3, 4, 5), (1, 2, 3, 5, 4)}, 4)
    24
    >>> count_avoiders({(1, 2)}, 3)
    1
    """
    return avoider_counts(patterns, n)[-1] if n else len(avoiders(patterns, 0))


def check_time_budget(budget: Optional[float]) -> None:
    """A budget is None or a number of seconds >= 0 (inf allowed)."""
    if budget is not None and not budget >= 0:
        raise ValueError(f"time budget must be >= 0 seconds, got {budget}")


def counts_within_budget(
    patterns: Iterable[Perm], n: int, budget: Optional[float]
) -> list[int]:
    """
    Avoider counts for 1..n; with a time budget in seconds, keep adding
    one more n up to n = BUDGET_CAP, but start a level only if its
    projected time fits in the budget still left.  Once n counts are in,
    the class's cached list holds at least n, so the next level is a
    lookup unless the list ends at n; then it is a walk, projected as the
    walk that stored the list times the growth of the last two counts.
    A budget of 0 returns exactly n counts; a negative or NaN budget
    raises ``ValueError`` before any counting.
    """
    check_time_budget(budget)
    patterns = frozenset(patterns)
    counts = avoider_counts(patterns, n)
    if budget is None:
        return counts
    key = trivial_symmetry_class(patterns)
    deadline = time.perf_counter() + budget
    while n < BUDGET_CAP:
        stored, walk_s = _class_counts.get(key, ([], 0.0))
        growth = counts[-1] / counts[-2] if n > 1 and counts[-2] else 1.0
        cost = walk_s * growth if len(stored) == n else 0.0
        if time.perf_counter() + cost >= deadline:
            break
        n += 1
        counts = avoider_counts(patterns, n)
    return counts


def count_avoiders_naive(patterns: Iterable[Perm], n: int) -> int:
    """Independent oracle: filter all of S_n by direct containment tests."""
    patterns = sorted(set(patterns))
    return sum(1 for w in all_perms(n) if avoids_all(patterns, w))


# ---------------------------------------------------------------------------
# equivalence tables

def _table(
    kind: str, left: PatternSet, right: PatternSet, n_max: int,
    rows: Iterable[Row], fail_fast: bool,
) -> EquivalenceReport:
    """The report of ``rows``, drawn in order; the first unequal row is
    the divergence, and ``fail_fast`` stops drawing there."""
    report = EquivalenceReport(kind, frozenset(left), frozenset(right), n_max)
    for row in rows:
        report.rows.append(row)
        if not row.equal and report.equal:
            report.first_divergence = row.n if row.board is None else (row.n, row.board)
            if fail_fast:
                break
    return report


def wilf_table(
    left: PatternSet, right: PatternSet, n_max: int, *, fail_fast: bool = True
) -> EquivalenceReport:
    """
    Per-n avoider counts for both sets up to n_max.  One walk per set
    counts every n up to n_max, so ``fail_fast`` only truncates the
    report at the first diverging n; it saves no counting.

    >>> wilf_table(frozenset({(1, 2, 3)}), frozenset({(1, 2)}), 3).first_divergence
    2
    """
    lcounts = avoider_counts(left, n_max)
    rcounts = avoider_counts(right, n_max)
    rows = (Row(n, None, lc, rc) for n, (lc, rc) in enumerate(zip(lcounts, rcounts), 1))
    return _table("wilf", left, right, n_max, rows, fail_fast)


def shape_wilf_table(
    left: PatternSet, right: PatternSet, n_max: int, *, fail_fast: bool = True
) -> EquivalenceReport:
    """
    Per-board avoiding-filling counts for every board with up to n_max
    columns, in ``enumerate_boards`` order.  Each level n is counted by
    one ``filling_counts`` walk per set, so ``fail_fast`` stops the report
    at the first diverging board but not the counting of its level.
    """
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")

    def rows() -> Iterable[Row]:
        for n in range(1, n_max + 1):
            right_counts = filling_counts(n, right)
            for board, left_count in filling_counts(n, left).items():
                yield Row(n, board, left_count, right_counts[board])

    return _table("shape-wilf", left, right, n_max, rows(), fail_fast)


def find_shape_wilf_divergence(
    left: PatternSet, right: PatternSet, n_limit: int
) -> Optional[Row]:
    """
    Smallest board (by column count, then enumeration order) on which the
    two sets have different avoiding-filling counts, or None.
    """
    report = shape_wilf_table(left, right, n_limit, fail_fast=True)
    return None if report.equal else report.rows[-1]


# ---------------------------------------------------------------------------
# symmetry orbits

SYMMETRIES = ("", "r", "c", "rc", "i", "ri", "ci", "rci")


def symmetry_orbit(patterns: PatternSet) -> list[PatternSet]:
    """
    Orbit of a pattern set under the eight symmetries of the square,
    sorted canonically.

    >>> len(symmetry_orbit(frozenset({(1, 3, 2)})))
    4
    """
    patterns = frozenset(patterns)  # read a one-shot iterable once
    return sorted({set_apply_ops(patterns, ops) for ops in SYMMETRIES}, key=sorted)


def trivial_symmetry_class(patterns: PatternSet) -> PatternSet:
    """
    Canonical representative: the lexicographically least member of the
    orbit under reverse/complement/inverse.

    >>> format_pattern_set(trivial_symmetry_class(frozenset({(2, 1)})))
    '{12}'
    """
    return symmetry_orbit(patterns)[0]


# ---------------------------------------------------------------------------
# symbolic set expressions
#
# Grammar (whitespace ignored):
#   expr := term ('+' term)*          '+' is the direct sum
#   term := atom ('^' [rci]+)?        postfix symmetries, applied left to right
#   atom := perm | '{' perm (',' perm)* '}' | '(' expr ')'
#   oracle := 'fan' '(' int ',' int ',' int ')'     fan_oracle(k, source apex, target apex)
#           | 'fan-bottom-last' '(' int ')'         fan_bottom_last_oracle(k)
#           | 'wedge-valley' '(' expr ',' expr ')'  wedge_valley_oracle(source, target)
#           | 'transfer' '(' oracle ',' expr ')'    transfer_oracle(inner, tail)
# Single permutations denote singleton sets; an int is a run of digits.

class ExpressionError(ValueError):
    pass


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> ExpressionError:
        return ExpressionError(f"{msg} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self, production: Callable[[_ExprParser], T]) -> T:
        result = production(self)
        if self.peek():
            raise self.error("trailing input")
        return result

    def expr(self) -> PatternSet:
        result = self.term()
        while self.peek() == "+":
            self.take("+")
            result = set_direct_sum(result, self.term())
        return result

    def term(self) -> PatternSet:
        result = self.atom()
        if self.peek() == "^":
            self.take("^")
            ops = ""
            while self.peek() in ("r", "c", "i"):
                ops += self.text[self.pos]
                self.pos += 1
            if not ops:
                raise self.error("expected symmetry ops after '^'")
            result = set_apply_ops(result, ops)
        return result

    def atom(self) -> PatternSet:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            result = self.expr()
            self.take(")")
            return result
        if ch == "{":
            self.take("{")
            members = [self.perm_literal()]
            while self.peek() == ",":
                self.take(",")
                members.append(self.perm_literal())
            self.take("}")
            return frozenset(members)
        if ch.isdigit():
            return frozenset({self.perm_literal()})
        raise self.error("expected a permutation, '{' or '('")

    def digits(self, what: str, convert: Callable[[str], T]) -> T:
        self.skip_ws()
        word = re.compile(r"\d*").match(self.text, self.pos).group()
        self.pos += len(word)
        if not word:
            raise self.error(f"expected {what}")
        try:
            return convert(word)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    perm_literal = partialmethod(digits, "a permutation literal", parse_perm)
    integer = partialmethod(digits, "an integer", int)

    def oracle(self) -> bijections.BijectionOracle:
        self.skip_ws()
        name = re.compile(r"[a-z-]*").match(self.text, self.pos).group()
        if name not in _ORACLES:
            raise self.error(f"expected one of {', '.join(_ORACLES)}")
        self.pos += len(name)
        build, productions = _ORACLES[name]
        args = []
        for i, production in enumerate(productions):
            self.take("," if i else "(")
            args.append(production(self))
        self.take(")")
        return build(*args)


# oracle name -> (builder, the production of each argument)
_ORACLES = {
    "fan": (bijections.fan_oracle, (_ExprParser.integer,) * 3),
    "fan-bottom-last": (bijections.fan_bottom_last_oracle, (_ExprParser.integer,)),
    "wedge-valley": (bijections.wedge_valley_oracle, (_ExprParser.expr,) * 2),
    "transfer": (bijections.transfer_oracle, (_ExprParser.oracle, _ExprParser.expr)),
}


def evaluate_set_expression(text: str) -> PatternSet:
    """
    Evaluate an expression over pattern sets with direct sum '+' and
    postfix symmetry words '^r', '^c', '^i' (composable, left to right).

    >>> format_pattern_set(evaluate_set_expression("({123,213}+12)^rc"))
    '{12345,12354}'
    """
    return _ExprParser(text).parse(_ExprParser.expr)


def evaluate_oracle_expression(text: str) -> bijections.BijectionOracle:
    """
    The oracle an expression names, built and named by its builder.

    >>> evaluate_oracle_expression("transfer(fan(3,3,1),{12})").name
    'transfer[fan k=3 apex 3->1] (+) {12}'
    """
    return _ExprParser(text).parse(_ExprParser.oracle)


def symmetry_identity_check(lhs: PatternSet, expression: str) -> bool:
    """
    Exact set equality between lhs and the evaluated expression.

    >>> symmetry_identity_check(frozenset({(1,2,5,4,3), (2,1,5,4,3)}), "{12,21}+321")
    True
    """
    return frozenset(lhs) == evaluate_set_expression(expression)
