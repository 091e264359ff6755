"""
Permutations of {1, ..., n} in one-line notation, classical pattern
containment, and the symmetry operations on patterns and pattern sets.

A permutation is a plain tuple of 1-based values, e.g. ``(4, 5, 2, 1, 3)``
for the one-line word 45213.  The empty tuple is the empty permutation and
is the two-sided identity of the direct sum.  A classical pattern is just a
(short) permutation; a pattern set is a frozenset of them.

Text notation: plain digit strings for length <= 9 ("45213"),
comma-separated values otherwise ("10,3,1,2,4,5,6,7,8,9").  Pattern sets
are written with braces, "{12345,12354}"; the braces may be omitted.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

Perm = tuple[int, ...]
PatternSet = frozenset[Perm]


def make_perm(values: Iterable[int]) -> Perm:
    """
    Validate and return a permutation tuple.

    >>> make_perm([4, 5, 2, 1, 3])
    (4, 5, 2, 1, 3)
    >>> make_perm([])
    ()
    >>> make_perm([1, 1, 2])
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of 1..3: (1, 1, 2)
    """
    w = tuple(values)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    return w


def parse_perm(text: str) -> Perm:
    """
    Parse one-line notation: "45213" or "10,3,1,2,4,5,6,7,8,9".

    >>> parse_perm("45213")
    (4, 5, 2, 1, 3)
    >>> parse_perm("10,3,1,2,4,5,6,7,8,9")[:3]
    (10, 3, 1)
    >>> parse_perm("")
    ()
    """
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        values = [int(tok) for tok in text.split(",")]
    else:
        if not text.isdigit():
            raise ValueError(f"bad permutation notation: {text!r}")
        values = [int(ch) for ch in text]
    return make_perm(values)


def format_perm(w: Perm) -> str:
    """
    One-line notation: digits for n <= 9, comma-separated otherwise.

    >>> format_perm((4, 5, 2, 1, 3))
    '45213'
    >>> format_perm(tuple(range(1, 11)))
    '1,2,3,4,5,6,7,8,9,10'
    """
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations of {1..n} in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def reverse(w: Perm) -> Perm:
    """
    >>> reverse((4, 5, 1, 2, 3))
    (3, 2, 1, 5, 4)
    """
    return w[::-1]


def complement(w: Perm) -> Perm:
    """
    >>> complement((4, 5, 1, 2, 3))
    (2, 1, 5, 4, 3)
    """
    n = len(w)
    return tuple(n + 1 - v for v in w)


def inverse(w: Perm) -> Perm:
    """
    >>> inverse((4, 5, 1, 2, 3))
    (3, 4, 5, 1, 2)
    >>> inverse(()) == ()
    True
    """
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


_SYMMETRY_OPS = {"r": reverse, "c": complement, "i": inverse}


def apply_ops(w: Perm, ops: str) -> Perm:
    """
    Apply a word in {r, c, i} left to right: apply_ops(w, "rc") == complement(reverse(w)).

    >>> apply_ops((1, 2, 3, 5, 4), "rc")
    (2, 1, 3, 4, 5)
    """
    for op in ops:
        try:
            w = _SYMMETRY_OPS[op](w)
        except KeyError:
            raise ValueError(f"unknown symmetry op {op!r} (expected r, c or i)") from None
    return w


def direct_sum(a: Perm, b: Perm) -> Perm:
    """
    Concatenate with the second block shifted above the first.

    >>> format_perm(direct_sum(parse_perm("13425"), parse_perm("2431")))
    '134257986'
    >>> direct_sum((), (2, 1))
    (2, 1)
    """
    m = len(a)
    return a + tuple(v + m for v in b)


# ---------------------------------------------------------------------------
# pattern sets

def make_pattern_set(patterns: Iterable[Sequence[int]]) -> PatternSet:
    return frozenset(make_perm(p) for p in patterns)


def parse_pattern_set(text: str) -> PatternSet:
    """
    Parse "{12345,12354}" (braces optional).  Each member uses digit
    notation, so members are limited to length <= 9.

    >>> sorted(parse_pattern_set("{312,321,231}"))
    [(2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    if not text:
        raise ValueError("empty pattern set")
    members = [tok.strip() for tok in text.split(",")]
    if not all(members):
        raise ValueError(f"empty member in pattern set {text!r}")
    return frozenset(parse_perm(tok) for tok in members)


def format_pattern_set(patterns: PatternSet) -> str:
    """
    >>> format_pattern_set(frozenset({(1, 2), (2, 1)}))
    '{12,21}'
    """
    return "{" + ",".join(format_perm(p) for p in sorted(patterns)) + "}"


def set_reverse(patterns: PatternSet) -> PatternSet:
    return frozenset(reverse(p) for p in patterns)


def set_complement(patterns: PatternSet) -> PatternSet:
    return frozenset(complement(p) for p in patterns)


def set_inverse(patterns: PatternSet) -> PatternSet:
    return frozenset(inverse(p) for p in patterns)


def set_apply_ops(patterns: PatternSet, ops: str) -> PatternSet:
    return frozenset(apply_ops(p, ops) for p in patterns)


def set_direct_sum(left: Iterable[Perm], right: Iterable[Perm]) -> PatternSet:
    """
    Elementwise direct sum {a + b : a in left, b in right}.

    >>> format_pattern_set(set_direct_sum({(1, 2, 3), (2, 1, 3)}, {(1, 2)}))
    '{12345,21345}'
    """
    return frozenset(direct_sum(a, b) for a in left for b in right)


# ---------------------------------------------------------------------------
# occurrence search
#
# Both searches choose pattern positions left to right with pruning: by
# order-isomorphism, the value at pattern position j is bounded only by the
# values chosen for its nearest smaller and nearest larger entries among
# positions < j.  The engine kernel drives the generators; the reference
# walker is what they are checked against, so the two share nothing else.

@lru_cache(maxsize=None)
def _tight_refs(p: Perm) -> tuple[tuple[int, int], ...]:
    refs = []
    for j, pj in enumerate(p):
        lo = hi = -1
        for a in range(j):
            if p[a] < pj and (lo < 0 or p[a] > p[lo]):
                lo = a
            elif p[a] > pj and (hi < 0 or p[a] < p[hi]):
                hi = a
        refs.append((lo, hi))
    return tuple(refs)


def occurrence_ending_at(p: Perm, rows: Sequence[int], r: int, cap: int) -> bool:
    """
    Engine kernel of the avoider tree and of filling enumeration: does p
    occur with its last entry in a new column appended after ``rows``,
    holding its 1 at row r, and with every chosen row at most ``cap``?

    Existing rows >= r count as above the new entry.  A filling never
    repeats a row, and a permutation child made by appending r shifts
    those values up by one, so both generators pass their rows unchanged.

    >>> occurrence_ending_at((1, 2), (2, 1), 2, 3)  # the child 312
    True
    >>> occurrence_ending_at((1, 2), (2, 1), 1, 3)  # the child 321
    False
    >>> occurrence_ending_at((2, 1), (3,), 1, 2)    # corner row 3 > cap 2
    False
    """
    k, n = len(p), len(rows)
    if r > cap or n < k - 1:
        return False
    if k <= 1:
        return True
    refs = _tight_refs(p)
    pk = p[-1]
    top = cap + 1
    chosen = [0] * (k - 1)

    def walk(j: int, start: int) -> bool:
        if j == k - 1:
            return True
        lo, hi = refs[j]
        lov = chosen[lo] if lo >= 0 else 0
        hiv = chosen[hi] if hi >= 0 else top
        # fold in the comparison against the new last entry
        if p[j] < pk:
            if r < hiv:
                hiv = r
        elif r - 1 > lov:
            lov = r - 1
        for i in range(start, n - (k - 2 - j)):
            v = rows[i]
            if lov < v < hiv:
                chosen[j] = v
                if walk(j + 1, i + 1):
                    return True
        return False

    return walk(0, 0)


def occurs(
    p: Perm,
    rows: Sequence[int],
    heights: Optional[Sequence[int]] = None,
    found: Optional[list] = None,
) -> bool:
    """
    Reference walker: does p occur in the row sequence?  With per-column
    ``heights`` the occurrence must also be in-board: the top-right corner
    (last chosen column, highest chosen row) lies under that column's
    height.  With ``found`` an empty list, the walk does not stop at the
    first occurrence: it appends every one to ``found`` as a 1-based index
    tuple, in lexicographic order.

    >>> occurs((1, 2), (2, 1, 3))
    True
    >>> occurs((1, 2), (2, 1, 3), heights=(3, 3, 2))
    False
    >>> hits = []
    >>> occurs((1, 2), (2, 1, 3), found=hits), hits
    (True, [(1, 3), (2, 3)])
    """
    k, n = len(p), len(rows)
    if k == 0:
        if found is not None:
            found.append(())
        return True
    if k > n:
        return False
    refs = _tight_refs(p)
    top = max(rows) + 1
    idxs = [0] * k
    chosen = [0] * k

    def walk(j: int, start: int, cur_max: int) -> bool:
        lo, hi = refs[j]
        lov = chosen[lo] if lo >= 0 else 0
        hiv = chosen[hi] if hi >= 0 else top
        for i in range(start, n - (k - j - 1)):
            v = rows[i]
            if lov < v < hiv:
                new_max = v if v > cur_max else cur_max
                idxs[j] = i + 1
                if j < k - 1:
                    chosen[j] = v
                    if walk(j + 1, i + 1, new_max):
                        return True
                elif heights is None or new_max <= heights[i]:
                    if found is None:
                        return True
                    found.append(tuple(idxs))
        return False

    return walk(0, 0, 0) or bool(found)


def contains(p: Perm, w: Perm) -> bool:
    """
    Does the pattern p occur in w?

    >>> contains((1, 2, 3), (3, 1, 4, 2, 5))
    True
    >>> contains((1, 2), (1,))
    False
    """
    return occurs(p, w)


def occurrences(p: Perm, w: Perm) -> Iterator[tuple[int, ...]]:
    """
    Yield 1-based index tuples of all occurrences of p in w, in
    lexicographic order.

    >>> list(occurrences((1, 2, 3), (3, 1, 4, 2, 5)))
    [(1, 3, 5), (2, 3, 5), (2, 4, 5)]
    """
    found: list[tuple[int, ...]] = []
    occurs(p, w, found=found)
    return iter(found)


def pattern_occurrences(p: Perm, w: Perm) -> int:
    """
    Number of occurrences of the classical pattern p in w.

    >>> pattern_occurrences((1, 2, 3), (3, 1, 4, 2, 5))
    3
    >>> pattern_occurrences((1, 2), (1,))
    0
    """
    return sum(1 for _ in occurrences(p, w))


def avoids_all(patterns: Iterable[Perm], w: Perm) -> bool:
    """
    True iff no pattern in the set occurs in w.

    >>> avoids_all({(1, 2, 3, 4, 5), (1, 2, 3, 5, 4)}, (4, 3, 2, 1))
    True
    >>> avoids_all({(1, 2, 3, 4, 5), (1, 2, 3, 5, 4)}, (1, 2, 3, 4, 5))
    False
    """
    return not any(contains(p, w) for p in patterns)
