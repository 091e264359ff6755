"""
Partially ordered patterns (POPs).

A POP of size k is a strict partial order on the positions {1..k}.  An
occurrence in a permutation w is an index tuple i_1 < ... < i_k whose
values respect every relation pair: if a is below b in the order, the
value at index i_a must be smaller than the value at index i_b.
Incomparable positions are unconstrained, so a chain reproduces a
classical pattern and avoiding a POP is the same as simultaneously
avoiding a set of classical patterns.

Text notation: "k; a<b, c<d, ..." lists generator relations, e.g.
"3; 3<1" for the size-3 POP whose position 3 lies below position 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .perms import PatternSet, Perm, all_perms


@dataclass(frozen=True)
class Pop:
    """A strict partial order on positions 1..size, stored transitively closed.

    A pair (a, b) in ``relation`` means position a is below position b,
    i.e. an occurrence must place a smaller value at a than at b.
    """

    size: int
    relation: frozenset[tuple[int, int]]

    def __str__(self) -> str:
        return format_pop(self)


def pop(size: int, pairs: Iterable[tuple[int, int]]) -> Pop:
    """
    Build a Pop from generator pairs, computing the transitive closure.
    Rejects out-of-range positions and cycles (including loops).

    >>> sorted(pop(3, [(3, 1)]).relation)
    [(3, 1)]
    >>> sorted(pop(3, [(1, 2), (2, 3)]).relation)
    [(1, 2), (1, 3), (2, 3)]
    >>> pop(2, [(1, 2), (2, 1)])
    Traceback (most recent call last):
        ...
    ValueError: relation has a cycle through position 1
    """
    if size < 1:
        raise ValueError(f"POP size must be >= 1, got {size}")
    below = {(a, b) for a, b in pairs}
    for a, b in below:
        if not (1 <= a <= size and 1 <= b <= size):
            raise ValueError(f"position pair ({a},{b}) out of range 1..{size}")
    # Warshall closure; sizes are tiny throughout.
    changed = True
    while changed:
        changed = False
        for a, b in list(below):
            for c, d in list(below):
                if b == c and (a, d) not in below:
                    below.add((a, d))
                    changed = True
    for a, b in below:
        if a == b:
            raise ValueError(f"relation has a cycle through position {a}")
    return Pop(size, frozenset(below))


def parse_pop(text: str) -> Pop:
    """
    >>> parse_pop("3; 3<1") == pop(3, [(3, 1)])
    True
    >>> parse_pop("3;") == pop(3, [])
    True
    """
    head, sep, rest = text.partition(";")
    if not sep:
        raise ValueError(f"bad POP notation (missing ';'): {text!r}")
    size = int(head.strip())
    pairs = []
    rest = rest.strip()
    if rest:
        for tok in rest.split(","):
            lo, sep2, hi = tok.partition("<")
            if not sep2:
                raise ValueError(f"bad POP relation {tok!r} (expected a<b)")
            pairs.append((int(lo.strip()), int(hi.strip())))
    return pop(size, pairs)


def format_pop(p: Pop) -> str:
    rels = ", ".join(f"{a}<{b}" for a, b in sorted(p.relation))
    return f"{p.size}; {rels}" if rels else f"{p.size};"


def fan_pop(k: int, apex: int) -> Pop:
    """
    One apex position above all others, no other relations.

    >>> sorted(fan_pop(3, 1).relation)
    [(2, 1), (3, 1)]
    """
    if k < 1:
        raise ValueError(f"POP size must be >= 1, got {k}")
    if not 1 <= apex <= k:
        raise ValueError(f"apex {apex} out of range 1..{k}")
    return pop(k, [(j, apex) for j in range(1, k + 1) if j != apex])


def below_all_pop(k: int, bottom: int) -> Pop:
    """
    One bottom position below all others, no other relations.  The size-3
    instance with bottom=2 is the valley POP, equivalent to {213, 312}.
    """
    if k < 1:
        raise ValueError(f"POP size must be >= 1, got {k}")
    if not 1 <= bottom <= k:
        raise ValueError(f"bottom {bottom} out of range 1..{k}")
    return pop(k, [(bottom, j) for j in range(1, k + 1) if j != bottom])


def pop_occurrences(p: Pop, w: Perm) -> int:
    """
    Number of index tuples i_1 < ... < i_k whose values respect every
    relation pair of p.

    >>> pop_occurrences(pop(3, [(3, 1)]), (4, 1, 5, 2, 3))
    6
    >>> pop_occurrences(pop(3, []), (3, 2, 1))
    1
    """
    k, n = p.size, len(w)
    if k > n:
        return 0
    # constraints[j] = pairs (a, below?) against earlier chosen positions
    constraints: list[list[tuple[int, bool]]] = [[] for _ in range(k)]
    for a, b in p.relation:
        if a < b:
            constraints[b - 1].append((a - 1, True))   # chosen[a] < v
        else:
            constraints[a - 1].append((b - 1, False))  # v < chosen[b]
    return _pop_walk(constraints, w, [0] * k, 0, 0)


def _pop_walk(
    constraints: list[list[tuple[int, bool]]], w: Perm, chosen: list[int], j: int, start: int
) -> int:
    """Occurrences completing the values ``chosen`` for positions < j; a
    module-level recursion, so a search leaves no reference cycle."""
    k = len(chosen)
    if j == k:
        return 1
    total = 0
    for i in range(start, len(w) - (k - j - 1)):
        v = w[i]
        ok = True
        for a, is_lower in constraints[j]:
            if is_lower:
                if chosen[a] >= v:
                    ok = False
                    break
            elif v >= chosen[a]:
                ok = False
                break
        if ok:
            chosen[j] = v
            total += _pop_walk(constraints, w, chosen, j + 1, i + 1)
    return total


def pop_to_pattern_set(p: Pop) -> PatternSet:
    """
    The classical patterns compatible with the order; avoiding the POP is
    the same as avoiding every pattern in the result.

    >>> from .perms import format_pattern_set
    >>> format_pattern_set(pop_to_pattern_set(pop(3, [(3, 1)])))
    '{231,312,321}'
    >>> format_pattern_set(pop_to_pattern_set(fan_pop(3, 3)))
    '{123,213}'
    """
    return frozenset(
        sigma
        for sigma in all_perms(p.size)
        if all(sigma[a - 1] < sigma[b - 1] for a, b in p.relation)
    )
