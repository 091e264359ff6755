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
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
# the positions already chosen.  The anchored prefix search,
# ``anchored_kernel``, drives the generators; the reference walker is what
# they are checked against, so the two share nothing else.  The walker
# answers two questions, ``contains`` (it stops at the first occurrence)
# and ``occurrences`` (it lists every one).
#
# Both generators grow a word one last entry at a time, and a pattern p
# occurs ending at a new last entry r exactly when some occurrence of its
# prefix q = std(p[:-1]) lies to the left with r between the entries that
# play p_k - 1 and p_k + 1.  So each node of a walk keeps a frontier, the
# new entries that would complete a pattern: the anchored search lists
# only the prefix occurrences ending at the node's own last entry, and the
# rest are inherited from the parent's frontier.
#
# The anchored search runs at every node of the board walk, and at the
# nodes of the avoider walk where a prefix occurrence ends: there a second
# search, over the set's prefixes, marks those nodes in advance.  Each call
# does little search, so its cost is interpreter overhead.  ``anchored_kernel``
# therefore compiles each prefix table once into one function of straight
# nested loops: the anchor is chosen first, each free position of a prefix
# is a ``for`` loop over a local variable, bounded by one chained
# comparison against its nearest smaller and larger entries among the
# earlier positions and the anchor, and each pattern's end is a tuple of
# locals.  Order-isomorphism fixes where an occurrence's highest value
# sits, so ``high`` is the local at q's largest position.  The source holds
# only names and integer positions that the generator computes, never a
# value of its input.
#
# The searches leave no reference cycle, so a call's state is freed by
# reference counting when it returns and the cyclic garbage collector has
# nothing to do.  The walker is a module-level function that takes its
# state as arguments (a nested function that calls itself refers to itself
# through its own cell).  A compiled kernel's globals are its exec
# namespace, which keeps none of the functions it made; a kernel that
# continues in a chained function holds it as a default argument.

# one prefix: q, then the patterns' ends, the positions in q of the entries
# that play p_k - 1 and p_k + 1 (-1 for none)
PrefixTable = tuple[tuple[Perm, tuple[tuple[int, int], ...]], ...]
Kernel = Callable[[Sequence[int], int], list[tuple[int, int, int]]]


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

    >>> prefix_table({(1, 2, 3, 4, 5), (1, 2, 3, 5, 4)})
    (((1, 2, 3, 4), ((2, 3), (3, -1))),)
    """
    groups: dict[Perm, set[tuple[int, int]]] = {}
    for p in set(patterns):
        head = p[:-1]
        last = p[-1] if p else 1
        q = tuple(v - (v > last) for v in head)
        below = head.index(last - 1) if last - 1 in head else -1
        above = head.index(last + 1) if last + 1 in head else -1
        groups.setdefault(q, set()).add((below, above))
    return tuple((q, tuple(sorted(ends))) for q, ends in sorted(groups.items()))


# CPython refuses more than 20 statically nested blocks in one function,
# so a prefix with more free positions goes on in a chained function
_LOOPS_PER_FUNCTION = 16
_kernels_compiled = itertools.count(1)


@lru_cache(maxsize=256)
def anchored_kernel(table: PrefixTable) -> Kernel:
    """
    Engine kernel of both generators: the table's anchored prefix search
    compiled into one function.  ``anchored_kernel(table)(rows, top)``
    lists, for every occurrence of a prefix q in ``rows`` that ends at the
    last entry (in the empty word, the empty occurrence) and every pattern
    p with that prefix, (A, B, high): the values of the entries that play
    p_k - 1 and p_k + 1 (0 and ``top`` for none) and the occurrence's
    highest value (0 when empty), prefix by prefix in table order and
    occurrences in lexicographic order of positions.  ``rows`` holds
    distinct values in 1..top - 1.  A new last entry completes p after
    that occurrence exactly when it lies between A and B: in (A, B) when
    values are absolute rows, in (A, B] when appending r shifts the
    values >= r up.

    Kernels are kept per table, so per pattern set; the cache drops its
    least recently used kernel past 256, and a walk fetches its kernels
    once.  Each kernel's code filename is ``<anchored_kernel N>``, N
    counting compiles, so a profile keeps kernels apart; it holds no
    value of the table.  The avoider walk of a set uses two kernels: the
    set's table's, and its gate's, the table of the set's nonempty
    prefixes q.

    >>> kernel = anchored_kernel(prefix_table({(1, 2, 3), (1, 3, 2)}))
    >>> kernel((1, 2), 3), kernel((2, 1), 3), kernel((), 1)
    ([(1, 2, 2), (2, 3, 2)], [], [])
    """
    chained: dict[str, str] = {}  # name -> source, callees first
    body = [
        "out = []",
        "append = out.append",
        "n = len(rows)",
        "if not n:",
        *("    append((0, top, 0))" for q, ends in table if not q for _ in ends),
        "    return out",
        "a = rows[-1]",
    ]
    for q, ends in table:
        if q:
            body += _kernel_loops(q, ends, 0, chained)
    kernel = _function("kernel", "rows, top", chained, [*body, "return out"])
    namespace: dict = {}
    source = "\n".join([*chained.values(), kernel])
    exec(compile(source, f"<anchored_kernel {next(_kernels_compiled)}>", "exec"), namespace)
    for name in chained:
        del namespace[name]
    return namespace.pop("kernel")


def _function(name: str, params: str, chained: dict[str, str], body: list[str]) -> str:
    """Source of a function that holds the chained functions made so far
    as default arguments."""
    defaults = "".join(f", {c}={c}" for c in chained)
    return "\n".join([f"def {name}({params}{defaults}):", *("    " + line for line in body)])


def _kernel_loops(q: Perm, ends, j0: int, chained: dict[str, str]) -> list[str]:
    """Source lines, indented from zero, that choose the free positions
    j0, j0 + 1, ... of q (the last position is the anchor ``a``) and emit
    its ends.  After ``_LOOPS_PER_FUNCTION`` loops the rest goes into a
    chained function, appended to ``chained`` after those it calls."""
    k = len(q)
    names = [f"v{t}" for t in range(k - 1)] + ["a"]
    lines: list[str] = []
    pad = ""
    for j in range(j0, k - 1):
        if j - j0 == _LOOPS_PER_FUNCTION:
            args = ", ".join(["rows", "top", "append", "n", "a", *names[:j], f"i{j - 1}"])
            body = _kernel_loops(q, ends, j, chained)
            name = f"_chained{len(chained)}"
            chained[name] = _function(name, args, chained, body)
            return lines + [f"{pad}{name}({args})"]
        # the nearest smaller and larger entries among the chosen positions
        chosen = [*range(j), k - 1]
        lower = [t for t in chosen if q[t] < q[j]]
        upper = [t for t in chosen if q[t] > q[j]]
        bound = names[j]
        if lower:
            bound = f"{names[max(lower, key=q.__getitem__)]} < {bound}"
        if upper:
            bound = f"{bound} < {names[min(upper, key=q.__getitem__)]}"
        # with rows shorter than q the first loop is empty (n >= 1 here)
        start, stop = (f"i{j - 1} + 1" if j else "0"), f"n - {k - 1 - j}"
        if j < k - 2:
            lines += [f"{pad}for i{j} in range({start}, {stop}):", f"{pad}    v{j} = rows[i{j}]"]
        else:  # the last free position needs no index
            lines.append(f"{pad}for v{j} in rows[{start}:{stop}]:")
        lines.append(f"{pad}    if {bound}:")
        pad += "        "
    high = names[max(range(k), key=q.__getitem__)]
    for below, above in ends:
        low = names[below] if below >= 0 else "0"
        lines.append(f"{pad}append(({low}, {names[above] if above >= 0 else 'top'}, {high}))")
    return lines


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
