"""
Named check suites runnable from the CLI.

Each suite is an ordered list of checks; a check records the mathematical
claim being tested, whether it is a VERIFICATION (finite check of a proven
statement) or EVIDENCE (finite check of a conjecture, which no amount of
desk-scale counting can prove), the parameters used, and the outcome.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .perms import PatternSet, format_pattern_set, parse_pattern_set
from .pops import below_all_pop, pop_to_pattern_set
from .boards import format_board
from .bijections import fan_oracle, transfer_oracle, verify_bijection
from .equivalence import (
    counts_within_budget,
    evaluate_set_expression,
    find_shape_wilf_divergence,
    shape_wilf_table,
    symmetry_identity_check,
    wilf_table,
)
from . import oeis

VERIFICATION = "VERIFICATION"
EVIDENCE = "EVIDENCE"

HUB = parse_pattern_set("{12345,12354}")

# the thirteen decomposition lines proving the related Wilf-equivalences;
# each left-hand set is Wilf-equivalent to the hub {12345,12354}
COROLLARY_DECOMPOSITIONS: list[tuple[str, list[str]]] = [
    ("{12345,12354}", ["12+{123,132}", "({123,213}+12)^rc"]),
    ("{12354,12435}", ["12+{132,213}", "({132,213}+12)^rc"]),
    ("{12354,12453}", ["12+{132,231}", "({213,312}+12)^rc"]),
    ("{12354,21354}", ["{123,213}+21"]),
    ("{12435,12453}", ["12+{213,231}", "({132,231}+12)^irc"]),
    ("{12453,12534}", ["12+{231,312}", "({231,312}+12)^rc"]),
    ("{12453,12543}", ["12+{231,321}", "({312,321}+12)^rc"]),
    ("{12543,21543}", ["{12,21}+321"]),
    ("{13254,21354}", ["{132,213}+21"]),
    ("{13254,23154}", ["{132,231}+21"]),
    ("{21354,21453}", ["21+{132,231}", "({213,312}+21)^rc"]),
    ("{21453,21534}", ["21+{231,312}", "({231,312}+21)^rc"]),
    ("{21453,21543}", ["21+{231,321}", "({312,321}+21)^rc"]),
]

EXTRA_IDENTITY = ("{12,21}+321", "(321+{12,21})^rc")


@dataclass
class SuiteOptions:
    n_wilf: Optional[int] = None       # default 9 (8 for the corollary suite)
    n_shape: Optional[int] = None      # default 6
    n_bijection: Optional[int] = None  # default 5
    n_oeis: Optional[int] = None       # default 9; align_and_compare needs 3
    offline: bool = False
    cache_dir: Optional[str] = None
    time_budget: Optional[float] = None

    def __post_init__(self) -> None:
        for name, least in (("n_wilf", 1), ("n_shape", 1), ("n_bijection", 1), ("n_oeis", 3)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


def _size(value: Optional[int], default: int) -> int:
    """An explicit size option, or the suite's default when it is unset."""
    return default if value is None else value


@dataclass
class CheckResult:
    suite: str
    name: str
    kind: str   # wilf | shape-wilf | bijection | symbolic-identity | oeis-compare | divergence-search
    label: str  # VERIFICATION | EVIDENCE
    claim: str
    passed: bool
    params: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    wall_time: float = 0.0


def _timed(fn: Callable[[], CheckResult]) -> CheckResult:
    start = time.perf_counter()
    result = fn()
    result.wall_time = time.perf_counter() - start
    return result


def _wilf_check(
    suite: str, name: str, left: PatternSet, right: PatternSet, n_max: int,
    label: str = VERIFICATION,
) -> CheckResult:
    def run() -> CheckResult:
        report = wilf_table(left, right, n_max)
        details: dict = {
            "counts": [[r.n, r.left_count, r.right_count] for r in report.rows]
        }
        if not report.equal:
            details["first_divergence"] = report.first_divergence
        return CheckResult(
            suite, name, "wilf", label,
            f"{format_pattern_set(left)} ~ {format_pattern_set(right)}",
            report.equal,
            {"left": format_pattern_set(left), "right": format_pattern_set(right),
             "n_max": n_max},
            details,
        )

    return _timed(run)


def _shape_wilf_check(
    suite: str, name: str, left: PatternSet, right: PatternSet, n_max: int,
    label: str = VERIFICATION,
) -> CheckResult:
    def run() -> CheckResult:
        report = shape_wilf_table(left, right, n_max)
        details: dict = {"boards_checked": len(report.rows)}
        if not report.equal:
            n, board = report.first_divergence
            row = report.rows[-1]
            details["first_divergence"] = {
                "n": n, "board": format_board(board),
                "left_count": row.left_count, "right_count": row.right_count,
            }
        return CheckResult(
            suite, name, "shape-wilf", label,
            f"{format_pattern_set(left)} ~s {format_pattern_set(right)}",
            report.equal,
            {"left": format_pattern_set(left), "right": format_pattern_set(right),
             "n_max": n_max},
            details,
        )

    return _timed(run)


def _bijection_check(suite: str, name: str, oracle, n_max: int) -> CheckResult:
    def run() -> CheckResult:
        report = verify_bijection(oracle, n_max)
        details: dict = {
            "boards_checked": report.boards_checked,
            "fillings_checked": report.fillings_checked,
        }
        if not report.ok:
            details["violation"] = {
                "kind": report.violation.kind,
                "board": format_board(report.violation.board),
                "detail": report.violation.detail,
            }
        return CheckResult(
            suite, name, "bijection", VERIFICATION,
            f"{format_pattern_set(oracle.source)} ~s "
            f"{format_pattern_set(oracle.target)} via {oracle.name}",
            report.ok,
            {"oracle": oracle.name, "n_max": n_max},
            details,
        )

    return _timed(run)


def _identity_check(suite: str, name: str, lhs_text: str, expr: str) -> CheckResult:
    def run() -> CheckResult:
        lhs = evaluate_set_expression(lhs_text)
        ok = symmetry_identity_check(lhs, expr)
        return CheckResult(
            suite, name, "symbolic-identity", VERIFICATION,
            f"{lhs_text} = {expr}", ok,
            {"lhs": lhs_text, "expression": expr},
            {} if ok else {"evaluated": format_pattern_set(evaluate_set_expression(expr))},
        )

    return _timed(run)


def _oeis_check(
    suite: str, name: str, patterns: PatternSet, seq_id: str, opts: SuiteOptions,
    label: str = VERIFICATION,
) -> CheckResult:
    n_max = _size(opts.n_oeis, 9)

    def run() -> CheckResult:
        params = {"set": format_pattern_set(patterns), "id": seq_id, "n_max": n_max}
        try:
            seq = oeis.fetch_sequence(
                seq_id, cache_dir=opts.cache_dir, offline=opts.offline
            )
        except oeis.OeisError as exc:
            return CheckResult(
                suite, name, "oeis-compare", label,
                f"Av_n({format_pattern_set(patterns)}) matches {seq_id}",
                False, params, {"error": str(exc)},
            )
        counts = counts_within_budget(patterns, n_max, opts.time_budget)
        report = oeis.align_and_compare(counts, seq)
        details = {
            "computed": counts,
            "provenance": seq.provenance,
            "matched_prefix_length": report.matched_prefix_length,
            "alignment_offset": report.alignment_offset,
        }
        if report.first_mismatch:
            details["first_mismatch"] = list(report.first_mismatch)
        return CheckResult(
            suite, name, "oeis-compare", label,
            f"Av_n({format_pattern_set(patterns)}) matches {seq_id}",
            oeis.full_match(report, counts, seq), params, details,
        )

    return _timed(run)


# ---------------------------------------------------------------------------
# the suites

def suite_main_conjecture(opts: SuiteOptions) -> list[CheckResult]:
    """Replay the proof chain for {12345,12354} ~ {45123,45213}."""
    suite = "main-conjecture"
    n_shape = _size(opts.n_shape, 6)
    n_bij = _size(opts.n_bijection, 5)
    n_wilf = _size(opts.n_wilf, 9)
    checks = [
        _shape_wilf_check(
            suite, "step-1-boards",
            parse_pattern_set("{31245,32145}"), parse_pattern_set("{12345,21345}"),
            n_shape,
        ),
        _bijection_check(
            suite, "step-1-bijection",
            transfer_oracle(fan_oracle(3, 3, 1), parse_pattern_set("{12}")),
            n_bij,
        ),
        _shape_wilf_check(
            suite, "step-2-boards",
            parse_pattern_set("{12453,12543}"), parse_pattern_set("{21453,21543}"),
            n_shape,
        ),
        _wilf_check(
            suite, "equivalence",
            HUB, parse_pattern_set("{45123,45213}"), n_wilf,
        ),
        _oeis_check(suite, "oeis", HUB, "A224295", opts),
    ]
    return checks


def suite_corollary_13(opts: SuiteOptions) -> list[CheckResult]:
    """The thirteen related sets and all decomposition identities."""
    suite = "corollary-13"
    n_wilf = _size(opts.n_wilf, 8)
    checks = []
    for lhs_text, exprs in COROLLARY_DECOMPOSITIONS:
        lhs = parse_pattern_set(lhs_text)
        checks.append(_wilf_check(suite, f"wilf-{lhs_text}", lhs, HUB, n_wilf))
        for expr in exprs:
            checks.append(
                _identity_check(suite, f"identity-{lhs_text}={expr}", lhs_text, expr)
            )
    checks.append(
        _identity_check(
            suite, f"identity-{EXTRA_IDENTITY[0]}={EXTRA_IDENTITY[1]}",
            EXTRA_IDENTITY[0], EXTRA_IDENTITY[1],
        )
    )
    return checks


def suite_conjecture_fan_minus_one(opts: SuiteOptions) -> list[CheckResult]:
    """Evidence for the conjecture that moving the bottom position of the
    all-above POP from the last to the next-to-last slot preserves
    shape-Wilf-equivalence, for every k >= 2."""
    suite = "conjecture-fan-minus-one"
    n_shape = _size(opts.n_shape, 6)
    checks = []
    for k in (3, 4):
        left = pop_to_pattern_set(below_all_pop(k, k))
        right = pop_to_pattern_set(below_all_pop(k, k - 1))
        check = _shape_wilf_check(
            suite, f"k={k}", left, right, n_shape, label=EVIDENCE
        )
        check.claim += f" (conjectured; consistent up to n={n_shape})"
        checks.append(check)
    return checks


def suite_conjecture_13452(opts: SuiteOptions) -> list[CheckResult]:
    """Evidence that Av({13452,23451}) is also counted by A224295."""
    check = _oeis_check(
        "conjecture-13452", "counts",
        parse_pattern_set("{13452,23451}"), "A224295", opts, label=EVIDENCE,
    )
    check.claim += " (conjectured; finite check only)"
    return [check]


def suite_negative_controls(opts: SuiteOptions) -> list[CheckResult]:
    """The checker must be able to falsify: the valley pair {213,312} and
    the pair {123,132} are not shape-Wilf-equivalent and a smallest witness
    board must be found."""
    suite = "negative-controls"
    n_limit = _size(opts.n_shape, 6)

    def run() -> CheckResult:
        row = find_shape_wilf_divergence(
            parse_pattern_set("{213,312}"), parse_pattern_set("{123,132}"), n_limit
        )
        found = row is not None
        details = {}
        if found:
            details["witness"] = {
                "board": format_board(row.board),
                "left_count": row.left_count,
                "right_count": row.right_count,
            }
        return CheckResult(
            suite, "valley-vs-bottom-first", "divergence-search", VERIFICATION,
            "{213,312} is NOT ~s {123,132} (witness board required)",
            found,
            {"left": "{213,312}", "right": "{123,132}", "n_limit": n_limit},
            details,
        )

    return [_timed(run)]


SUITES: dict[str, Callable[[SuiteOptions], list[CheckResult]]] = {
    "main-conjecture": suite_main_conjecture,
    "corollary-13": suite_corollary_13,
    "conjecture-fan-minus-one": suite_conjecture_fan_minus_one,
    "conjecture-13452": suite_conjecture_13452,
    "negative-controls": suite_negative_controls,
}


def run_suite(name: str, opts: Optional[SuiteOptions] = None) -> list[CheckResult]:
    """Run one named suite, or all of them in catalog order."""
    opts = opts or SuiteOptions()
    if name == "all":
        results = []
        for suite_name in SUITES:
            results.extend(SUITES[suite_name](opts))
        return results
    try:
        return SUITES[name](opts)
    except KeyError:
        known = ", ".join([*SUITES, "all"])
        raise ValueError(f"unknown suite {name!r}; known suites: {known}") from None
