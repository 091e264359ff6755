"""
The benchmark's workloads: which library calls one pass makes, on which
inputs, and how each output is checked against the values pinned in
``expected.json`` (see ``pin.py`` for where those values came from).

A pass is a closed loop: one caller, each operation starts when the
previous one returns.  The seed only fixes the order of the operations,
so every seed does the same work.  ``smoke`` sizes are tiny and exist for
the benchmark's own tests; their outputs are pinned and checked too.

This module imports only the standard library at import time; the
library itself is imported inside ``build_ops``, after the caller has put
the checkout's ``src`` directory on ``sys.path``.
"""
from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple, Optional

WORKLOADS = ("wilf-count", "shape-wilf", "bijection-verify", "suite-all")

HUB = "{12345,12354}"
# The corollary-13 left-hand sets other than the hub and {21453,21543};
# the latter is the complement of {45123,45213}, so counting it as well
# would repeat a symmetry class.
COROLLARY_OTHERS = (
    "{12354,12435}", "{12354,12453}", "{12354,21354}", "{12435,12453}",
    "{12453,12534}", "{12453,12543}", "{12543,21543}", "{13254,21354}",
    "{13254,23154}", "{21354,21453}", "{21453,21534}",
)
# below_all_pop(k, k) and below_all_pop(k, k - 1), written out; pin.py
# checks them against pops.pop_to_pattern_set.
FAN_MINUS_ONE = {
    3: ("{231,321}", "{213,312}"),
    4: ("{2341,2431,3241,3421,4231,4321}", "{2314,2413,3214,3412,4213,4312}"),
}
NEGATIVE_CONTROL = ("{213,312}", "{123,132}")
# oracle name -> (source set, target set) the oracle must report
ORACLES = {
    "transfer[fan k=3 3->1]+{12}": ("{12345,21345}", "{31245,32145}"),
    "fan k=3 3->1": ("{123,213}", "{312,321}"),
    "fan-bottom-last k=3": ("{123,213}", "{231,321}"),
    "wedge-valley {132,213}->{213,312}": ("{132,213}", "{213,312}"),
}
# Reads the bundled b-file: the cache directory is inside the checkout
# and never created, and --offline keeps the network out.
SUITE_BASE_ARGV = ("--offline", "--cache-dir", "bench/out/no-oeis-cache",
                   "--format", "json-lines", "suite", "all")


def _specs(smoke: bool) -> dict[str, list[tuple]]:
    big, small = (5, 5) if smoke else (8, 7)
    shape, bij = (4, 4) if smoke else (6, 5)
    fm3, fm4 = FAN_MINUS_ONE[3], FAN_MINUS_ONE[4]
    suite_n = (["--n-wilf", "5", "--n-oeis", "5", "--n-shape", "4", "--n-bijection", "3"]
               if smoke else ["--n-wilf", "7", "--n-oeis", "7", "--n-shape", "5"])
    return {
        "wilf-count": [
            ("count", HUB, big),
            ("count", "{45123,45213}", big),
            ("count", "{13452,23451}", small),
            *(("count", s, small) for s in COROLLARY_OTHERS),
            ("count", "{1324}", big),
        ],
        "shape-wilf": [
            ("shape", "{31245,32145}", "{12345,21345}", shape),
            ("shape", "{12453,12543}", "{21453,21543}", shape),
            ("shape", *fm4, shape - 1),
            ("shape", *fm3, shape),
            ("divergence", *NEGATIVE_CONTROL, shape),
        ],
        "bijection-verify": [
            ("bijection", "transfer[fan k=3 3->1]+{12}", bij + 1),
            ("bijection", "fan k=3 3->1", bij),
            ("bijection", "fan-bottom-last k=3", bij),
            ("bijection", "wedge-valley {132,213}->{213,312}", bij),
        ],
        "suite-all": [("suite", (*SUITE_BASE_ARGV, *suite_n))],
    }


def specs(workload: str, smoke: bool) -> list[tuple]:
    return _specs(smoke)[workload]


def mode(smoke: bool) -> str:
    return "smoke" if smoke else "full"


# ---------------------------------------------------------------------------
# keys shared with pin.py and expected.json

def set_key(patterns) -> str:
    """'{12345,12354}' for a collection of pattern tuples (digits only)."""
    return "{" + ",".join("".join(map(str, p)) for p in sorted(patterns)) + "}"


def board_key(board) -> str:
    return ",".join(map(str, board))


def table(expected: dict, patterns: str, n_max: int) -> dict[str, int]:
    """Pinned avoiding-filling counts of one set on every board with at
    most n_max columns."""
    return {b: c for b, c in expected["fillings"][patterns].items()
            if b.count(",") < n_max}


# ---------------------------------------------------------------------------
# checks: each returns None when the output matches, else what differs

def check_counts(got, want: list[int]) -> Optional[str]:
    got = list(got)
    return None if got == want else f"counts {got} != pinned {want}"


def check_table(rows, equal: bool, want_left: dict, want_right: dict) -> Optional[str]:
    got = {board_key(r.board): (r.left_count, r.right_count) for r in rows}
    if got.keys() != want_left.keys():
        return f"{len(got)} boards reported, {len(want_left)} pinned"
    for b, pair in got.items():
        if pair != (want_left[b], want_right[b]):
            return f"board [{b}]: counts {pair} != pinned {(want_left[b], want_right[b])}"
    want_equal = want_left == want_right
    return None if equal == want_equal else f"verdict equal={equal}, pinned {want_equal}"


def check_witness(row, want: dict) -> Optional[str]:
    if row is None:
        return "no divergence found"
    got = {"board": board_key(row.board), "left": row.left_count, "right": row.right_count}
    return None if got == want else f"witness {got} != pinned {want}"


def check_verification(report, boards: int, fillings: int) -> Optional[str]:
    if not report.ok:
        return f"verification failed: {report.describe()}"
    got = (report.boards_checked, report.fillings_checked)
    return None if got == (boards, fillings) else (
        f"boards/fillings checked {got} != pinned {(boards, fillings)}")


def check_suite(out: tuple[int, bytes, str], want_sha256: str, want_lines: list[str]
                ) -> Optional[str]:
    code, stdout, _ = out
    if code != 0:
        return f"exit code {code}"
    if hashlib.sha256(stdout).hexdigest() == want_sha256:
        return None
    lines = stdout.decode().splitlines()
    for i, (a, b) in enumerate(zip(lines, want_lines), 1):
        if a != b:
            return f"stdout line {i} differs from the pinned copy: {a}"
    return f"stdout has {len(lines)} lines, pinned copy {len(want_lines)}"


# ---------------------------------------------------------------------------
# building a pass

class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def run_cli(argv) -> tuple[int, bytes, str]:
    """cli.main in-process, with stdout and stderr captured."""
    from shapewilf import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue()


def _oracle(name: str):
    from shapewilf.bijections import (
        fan_bottom_last_oracle, fan_oracle, transfer_oracle, wedge_valley_oracle)
    from shapewilf.perms import parse_pattern_set as P

    return {
        "transfer[fan k=3 3->1]+{12}": lambda: transfer_oracle(fan_oracle(3, 3, 1), P("{12}")),
        "fan k=3 3->1": lambda: fan_oracle(3, 3, 1),
        "fan-bottom-last k=3": lambda: fan_bottom_last_oracle(3),
        "wedge-valley {132,213}->{213,312}":
            lambda: wedge_valley_oracle(P("{132,213}"), P("{213,312}")),
    }[name]()


def _catalan_sum(n_max: int) -> int:
    total, c = 0, 1
    for n in range(1, n_max + 1):
        c = c * 2 * (2 * n - 1) // (n + 1)
        total += c
    return total


def build_ops(workload: str, smoke: bool, expected: dict, rng: random.Random,
              bench_dir) -> list[Op]:
    """The operations of one pass, inputs built and order shuffled by rng.
    Library functions are looked up on their module at call time, so the
    tracer's wrappers see these calls too."""
    from shapewilf import equivalence as eq
    from shapewilf.perms import parse_pattern_set as P

    ops = []
    for spec in specs(workload, smoke):
        kind = spec[0]
        if kind == "count":
            _, s, n = spec
            patterns, want = P(s), expected["avoiders"][s][:n]
            ops.append(Op(f"avoider_counts {s} n={n}",
                          lambda p=patterns, n=n: eq.avoider_counts(p, n),
                          lambda got, w=want: check_counts(got, w)))
        elif kind == "shape":
            _, left, right, n = spec
            wl, wr = table(expected, left, n), table(expected, right, n)
            ops.append(Op(f"shape_wilf_table {left} {right} n={n}",
                          lambda a=P(left), b=P(right), n=n: eq.shape_wilf_table(a, b, n),
                          lambda r, wl=wl, wr=wr: check_table(r.rows, r.equal, wl, wr)))
        elif kind == "divergence":
            _, left, right, n = spec
            want = expected["negative_control"]
            ops.append(Op(f"find_shape_wilf_divergence {left} {right} n={n}",
                          lambda a=P(left), b=P(right), n=n:
                              eq.find_shape_wilf_divergence(a, b, n),
                          lambda row, w=want: check_witness(row, w)))
        elif kind == "bijection":
            _, name, n = spec
            ops.append(_bijection_op(name, n, expected))
        else:
            argv = spec[1]
            pinned = expected["suite_all"][mode(smoke)]
            want_lines = (bench_dir / pinned["file"]).read_text().splitlines()
            ops.append(Op("cli.main " + " ".join(argv),
                          lambda argv=argv: run_cli(argv),
                          lambda out, h=pinned["sha256"], w=want_lines: check_suite(out, h, w)))
    rng.shuffle(ops)
    return ops


def _bijection_op(name: str, n: int, expected: dict) -> Op:
    from shapewilf import bijections

    label = f"verify_bijection {name} n={n}"
    source, target = ORACLES[name]
    oracle = _oracle(name)
    declared = (set_key(oracle.source), set_key(oracle.target))
    mismatch = None if declared == (source, target) else (
        f"oracle maps {declared}, pinned {(source, target)}")
    fillings = sum(table(expected, source, n).values())
    return Op(label, lambda: bijections.verify_bijection(oracle, n),
              lambda r: mismatch or check_verification(r, _catalan_sum(n), fillings))
