"""
Permutations of {1, ..., n} in one-line notation, classical pattern
containment in a word, and the symmetry operations on patterns and sets.

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
# positions < j.  The anchored prefix search drives the generators; the
# reference walker is what they are checked against, so the two share
# nothing else.  The walker answers two questions, ``contains`` (it stops
# at the first occurrence) and ``occurrences`` (it lists every one).
#
# Both generators grow a word one last entry at a time, and a pattern p
# occurs ending at a new last entry r exactly when some occurrence of its
# prefix q = std(p[:-1]) lies to the left with r between the entries that
# play p_k - 1 and p_k + 1.  So each node of a walk keeps a frontier, the
# new entries that would complete a pattern: the anchored search lists
# only the prefix occurrences ending at the node's own last entry, and the
# rest are inherited from the parent's frontier.
#
# The hot searches are closure-free: each recursion is a module-level
# function that takes its state as arguments, so a call makes no reference
# cycle and its state is freed by reference counting when it returns.  A
# nested function that calls itself refers to itself through its own cell,
# a cycle that only the cyclic garbage collector frees, and the kernels run
# tens of thousands of times a pass.

# one prefix: q, then per free position j < len(q) - 1 its tight refs and
# whether q_j lies below the anchored last entry, then the patterns' ends
PrefixTable = tuple[
    tuple[Perm, tuple[tuple[int, int, bool], ...], tuple[tuple[int, int], ...]], ...
]


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


def prefix_table(patterns: Iterable[Perm]) -> PrefixTable:
    """
    The patterns grouped by standardized prefix q = std(p[:-1]).  Each
    pattern p with prefix q is given by the positions in q of the entries
    that play p_k - 1 and p_k + 1, or -1 where p_k is the least or the
    greatest value.  The empty pattern is grouped with the patterns of
    length 1: every nonempty word contains both.

    >>> [(q, ends) for q, _, ends in prefix_table({(1, 2, 3, 4, 5), (1, 2, 3, 5, 4)})]
    [((1, 2, 3, 4), ((2, 3), (3, -1)))]
    """
    groups: dict[Perm, set[tuple[int, int]]] = {}
    for p in set(patterns):
        head = p[:-1]
        last = p[-1] if p else 1
        q = tuple(v - (v > last) for v in head)
        below = head.index(last - 1) if last - 1 in head else -1
        above = head.index(last + 1) if last + 1 in head else -1
        groups.setdefault(q, set()).add((below, above))
    return tuple(
        (
            q,
            tuple((*ref, q[j] < q[-1]) for j, ref in enumerate(_tight_refs(q)[:-1])),
            tuple(sorted(ends)),
        )
        for q, ends in sorted(groups.items())
    )


def anchored_intervals(
    table: PrefixTable, rows: Sequence[int], top: int
) -> list[tuple[int, int, int]]:
    """
    Engine kernel of both generators.  For every occurrence of a prefix
    q in ``rows`` that ends at the last entry (in the empty word, the
    empty occurrence) and every pattern p with that prefix: (A, B, high),
    where A and B are the values of the entries that play p_k - 1 and
    p_k + 1 (0 and ``top`` when there is none) and high is the
    occurrence's highest value (0 when empty).

    A new last entry completes p after that occurrence exactly when it
    lies between A and B: in the open interval (A, B) when values are
    absolute rows, in (A, B] when appending r shifts the values >= r up.

    >>> table = prefix_table({(1, 2, 3), (1, 3, 2)})
    >>> anchored_intervals(table, (1, 2), 3)  # the children 132 and 123
    [(1, 2, 2), (2, 3, 2)]
    >>> anchored_intervals(table, (2, 1), 3)
    []
    """
    out: list[tuple[int, int, int]] = []
    n = len(rows)
    if n == 0:
        for q, _, ends in table:
            if not q:
                out.extend((0, top, 0) for _ in ends)
        return out
    anchor = rows[-1]
    for q, bounds, ends in table:
        k = len(q)
        if k == 0 or n < k:
            continue
        chosen = [0] * k
        chosen[-1] = anchor
        if k == 1:
            _emit(out, ends, chosen, top, anchor)
        else:
            _anchored_walk(out, rows, top, bounds, ends, chosen, 0, 0, anchor)
    return out


def _emit(out: list, ends, chosen: list[int], top: int, high: int) -> None:
    for below, above in ends:
        out.append((
            chosen[below] if below >= 0 else 0,
            chosen[above] if above >= 0 else top,
            high,
        ))


def _anchored_walk(
    out: list, rows: Sequence[int], top: int, bounds, ends,
    chosen: list[int], j: int, start: int, high: int,
) -> None:
    """Choose free position j of a prefix, then recurse; the last entry of
    ``chosen`` is the anchored last entry of ``rows``."""
    lo, hi, under = bounds[j]
    lov = chosen[lo] if lo >= 0 else 0
    hiv = chosen[hi] if hi >= 0 else top
    # fold in the comparison against the anchored last entry
    anchor = chosen[-1]
    if under:
        if anchor < hiv:
            hiv = anchor
    elif anchor > lov:
        lov = anchor
    last = j == len(bounds) - 1
    for i in range(start, len(rows) - len(chosen) + j + 1):
        v = rows[i]
        if lov < v < hiv:
            chosen[j] = v
            if last:
                _emit(out, ends, chosen, top, v if v > high else high)
            else:
                _anchored_walk(
                    out, rows, top, bounds, ends, chosen, j + 1, i + 1,
                    v if v > high else high,
                )


def contains(p: Perm, w: Sequence[int]) -> bool:
    """
    Reference walker: does the pattern p occur in w?  The walk stops at
    the first occurrence.

    >>> contains((1, 2), (2, 1, 3))
    True
    >>> contains((2, 1), (1, 2)), contains((1, 2), (1,))
    (False, False)
    """
    k = len(p)
    if k == 0:
        return True
    if k > len(w):
        return False
    return _occurs_walk(_tight_refs(p), w, None, max(w) + 1, [0] * k, [0] * k, 0, 0)


def occurrences(p: Perm, w: Sequence[int]) -> list[tuple[int, ...]]:
    """
    Reference walker: a fresh list of every occurrence of p in w as a
    1-based index tuple, in lexicographic order; the empty pattern has
    one, the empty tuple.

    >>> occurrences((1, 2, 3), (3, 1, 4, 2, 5))
    [(1, 3, 5), (2, 3, 5), (2, 4, 5)]
    >>> occurrences((1, 2), (2, 1, 3)), occurrences((), (2, 1))
    ([(1, 3), (2, 3)], [()])
    """
    k = len(p)
    if k == 0:
        return [()]
    found: list[tuple[int, ...]] = []
    if k <= len(w):
        _occurs_walk(_tight_refs(p), w, found, max(w) + 1, [0] * k, [0] * k, 0, 0)
    return found


def _occurs_walk(
    refs, rows: Sequence[int], found: Optional[list], top: int,
    idxs: list[int], chosen: list[int], j: int, start: int,
) -> bool:
    """Choose pattern position j of the reference walker, then recurse;
    ``idxs`` and ``chosen`` hold the 1-based indices and the values of
    positions < j.  With ``found`` None it stops at the first occurrence."""
    lo, hi = refs[j]
    lov = chosen[lo] if lo >= 0 else 0
    hiv = chosen[hi] if hi >= 0 else top
    k = len(refs)
    for i in range(start, len(rows) - (k - j - 1)):
        v = rows[i]
        if lov < v < hiv:
            idxs[j] = i + 1
            if j < k - 1:
                chosen[j] = v
                if _occurs_walk(refs, rows, found, top, idxs, chosen, j + 1, i + 1):
                    return True
            elif found is None:
                return True
            else:
                found.append(tuple(idxs))
    return False


def pattern_occurrences(p: Perm, w: Perm) -> int:
    """
    Number of occurrences of the classical pattern p in w.

    >>> pattern_occurrences((1, 2, 3), (3, 1, 4, 2, 5))
    3
    >>> pattern_occurrences((1, 2), (1,))
    0
    """
    return len(occurrences(p, w))


def avoids_all(patterns: Iterable[Perm], w: Perm) -> bool:
    """
    True iff no pattern in the set occurs in w.

    >>> avoids_all({(1, 2, 3, 4, 5), (1, 2, 3, 5, 4)}, (4, 3, 2, 1))
    True
    >>> avoids_all({(1, 2, 3, 4, 5), (1, 2, 3, 5, 4)}, (1, 2, 3, 4, 5))
    False
    """
    return not any(contains(p, w) for p in patterns)
