"""
Named check suites runnable from the CLI.

Each suite is an ordered list of checks, returned unrun; ``run_suite``
runs and times each one.  A check's builder holds its data and returns
its ``CheckResult`` once: the mathematical claim being tested, whether it
is a VERIFICATION (finite check of a proven statement) or EVIDENCE
(finite check of a conjecture, which no amount of desk-scale counting
can prove), the parameters used, the outcome, and the witness the CLI
prints: what a failed check saw, or the board a divergence search found.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

from .perms import PatternSet, format_pattern_set, parse_pattern_set
from .pops import below_all_pop, pop_to_pattern_set
from .boards import format_board
from .bijections import verify_bijection
from .equivalence import (
    check_time_budget,
    counts_within_budget,
    evaluate_oracle_expression,
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
        check_time_budget(self.time_budget)


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
    witness: object = ""  # what a failure saw, or the board a divergence search found
    wall_time: float = 0.0


Check = Callable[[], CheckResult]


def _timed(check: Check) -> CheckResult:
    start = time.perf_counter()
    result = check()
    result.wall_time = time.perf_counter() - start
    return result


def _evidence(check: Check, qualifier: str) -> CheckResult:
    """A check of a conjecture: labelled EVIDENCE, its claim qualified."""
    result = check()
    return replace(result, label=EVIDENCE, claim=result.claim + qualifier)


def _wilf_check(
    suite: str, name: str, left: PatternSet, right: PatternSet, n_max: int
) -> CheckResult:
    report = wilf_table(left, right, n_max)
    lhs, rhs = format_pattern_set(left), format_pattern_set(right)
    witness = "" if report.equal else {
        "counts": [[r.n, r.left_count, r.right_count] for r in report.rows],
        "first_divergence": report.first_divergence,
    }
    return CheckResult(suite, name, "wilf", VERIFICATION, f"{lhs} ~ {rhs}",
                       report.equal, {"left": lhs, "right": rhs, "n_max": n_max}, witness)


def _shape_wilf_check(
    suite: str, name: str, left: PatternSet, right: PatternSet, n_max: int
) -> CheckResult:
    report = shape_wilf_table(left, right, n_max)
    lhs, rhs = format_pattern_set(left), format_pattern_set(right)
    witness = ""
    if not report.equal:
        row = report.rows[-1]
        witness = {"boards_checked": len(report.rows), "first_divergence": {
            "n": row.n, "board": format_board(row.board),
            "left_count": row.left_count, "right_count": row.right_count,
        }}
    return CheckResult(suite, name, "shape-wilf", VERIFICATION, f"{lhs} ~s {rhs}",
                       report.equal, {"left": lhs, "right": rhs, "n_max": n_max}, witness)


def _bijection_check(suite: str, name: str, oracle, n_max: int) -> CheckResult:
    report = verify_bijection(oracle, n_max)
    witness = "" if report.ok else {
        "boards_checked": report.boards_checked,
        "fillings_checked": report.fillings_checked,
        "violation": {
            "kind": report.violation.kind,
            "board": format_board(report.violation.board),
            "detail": report.violation.detail,
        },
    }
    return CheckResult(
        suite, name, "bijection", VERIFICATION,
        f"{format_pattern_set(oracle.source)} ~s "
        f"{format_pattern_set(oracle.target)} via {oracle.name}",
        report.ok, {"oracle": oracle.name, "n_max": n_max}, witness,
    )


def _identity_check(suite: str, lhs_text: str, expr: str) -> CheckResult:
    ok = symmetry_identity_check(evaluate_set_expression(lhs_text), expr)
    return CheckResult(
        suite, f"identity-{lhs_text}={expr}", "symbolic-identity", VERIFICATION, f"{lhs_text} = {expr}", ok,
        {"lhs": lhs_text, "expression": expr},
        "" if ok else {"evaluated": format_pattern_set(evaluate_set_expression(expr))},
    )


def _oeis_check(
    suite: str, name: str, patterns: PatternSet, seq_id: str, opts: SuiteOptions
) -> CheckResult:
    n_max = _size(opts.n_oeis, 9)
    try:
        seq = oeis.fetch_sequence(seq_id, cache_dir=opts.cache_dir, offline=opts.offline)
    except oeis.OeisError as exc:
        passed, witness = False, {"error": str(exc)}
    else:
        counts = counts_within_budget(patterns, n_max, opts.time_budget)
        report = oeis.align_and_compare(counts, seq)
        passed = report.full_match
        witness = "" if passed else {
            "computed": counts,
            "provenance": seq.provenance,
            "matched_prefix_length": report.matched_prefix_length,
            "alignment_offset": report.alignment_offset,
            **({"first_mismatch": list(report.first_mismatch)}
               if report.first_mismatch else {}),
        }
    return CheckResult(
        suite, name, "oeis-compare", VERIFICATION,
        f"Av_n({format_pattern_set(patterns)}) matches {seq_id}", passed,
        {"set": format_pattern_set(patterns), "id": seq_id, "n_max": n_max}, witness,
    )


def _divergence_check(
    suite: str, name: str, left_text: str, right_text: str, n_limit: int
) -> CheckResult:
    row = find_shape_wilf_divergence(
        parse_pattern_set(left_text), parse_pattern_set(right_text), n_limit
    )
    witness = {} if row is None else {
        "board": format_board(row.board),
        "left_count": row.left_count,
        "right_count": row.right_count,
    }
    return CheckResult(
        suite, name, "divergence-search", VERIFICATION,
        f"{left_text} is NOT ~s {right_text} (witness board required)", row is not None,
        {"left": left_text, "right": right_text, "n_limit": n_limit}, witness,
    )


# ---------------------------------------------------------------------------
# the suites: each lists its checks unrun, in order

def suite_main_conjecture(opts: SuiteOptions) -> list[Check]:
    """Replay the proof chain for {12345,12354} ~ {45123,45213}."""
    suite = "main-conjecture"
    n_shape = _size(opts.n_shape, 6)
    return [
        partial(_shape_wilf_check, suite, "step-1-boards",
                parse_pattern_set("{31245,32145}"), parse_pattern_set("{12345,21345}"),
                n_shape),
        partial(_bijection_check, suite, "step-1-bijection",
                evaluate_oracle_expression("transfer(fan(3,3,1),{12})"),
                _size(opts.n_bijection, 5)),
        partial(_shape_wilf_check, suite, "step-2-boards",
                parse_pattern_set("{12453,12543}"), parse_pattern_set("{21453,21543}"),
                n_shape),
        partial(_wilf_check, suite, "equivalence",
                HUB, parse_pattern_set("{45123,45213}"), _size(opts.n_wilf, 9)),
        partial(_oeis_check, suite, "oeis", HUB, "A224295", opts),
    ]


def suite_corollary_13(opts: SuiteOptions) -> list[Check]:
    """The thirteen related sets and all decomposition identities."""
    suite = "corollary-13"
    n_wilf = _size(opts.n_wilf, 8)
    checks = []
    for lhs_text, exprs in COROLLARY_DECOMPOSITIONS:
        lhs = parse_pattern_set(lhs_text)
        checks.append(partial(_wilf_check, suite, f"wilf-{lhs_text}", lhs, HUB, n_wilf))
        checks += [partial(_identity_check, suite, lhs_text, expr) for expr in exprs]
    checks.append(partial(_identity_check, suite, *EXTRA_IDENTITY))
    return checks


def suite_conjecture_fan_minus_one(opts: SuiteOptions) -> list[Check]:
    """Evidence for the conjecture that moving the bottom position of the
    all-above POP from the last to the next-to-last slot preserves
    shape-Wilf-equivalence, for every k >= 2."""
    suite = "conjecture-fan-minus-one"
    n_shape = _size(opts.n_shape, 6)
    return [
        partial(_evidence, partial(
            _shape_wilf_check, suite, f"k={k}",
            pop_to_pattern_set(below_all_pop(k, k)),
            pop_to_pattern_set(below_all_pop(k, k - 1)), n_shape,
        ), f" (conjectured; consistent up to n={n_shape})")
        for k in (3, 4)
    ]


def suite_conjecture_13452(opts: SuiteOptions) -> list[Check]:
    """Evidence that Av({13452,23451}) is also counted by A224295."""
    return [partial(_evidence, partial(
        _oeis_check, "conjecture-13452", "counts",
        parse_pattern_set("{13452,23451}"), "A224295", opts,
    ), " (conjectured; finite check only)")]


def suite_negative_controls(opts: SuiteOptions) -> list[Check]:
    """The checker must be able to falsify: the valley pair {213,312} and
    the pair {123,132} are not shape-Wilf-equivalent and a smallest witness
    board must be found."""
    return [partial(_divergence_check, "negative-controls", "valley-vs-bottom-first",
                    "{213,312}", "{123,132}", _size(opts.n_shape, 6))]


SUITES: dict[str, Callable[[SuiteOptions], list[Check]]] = {
    "main-conjecture": suite_main_conjecture,
    "corollary-13": suite_corollary_13,
    "conjecture-fan-minus-one": suite_conjecture_fan_minus_one,
    "conjecture-13452": suite_conjecture_13452,
    "negative-controls": suite_negative_controls,
}


def run_suite(name: str, opts: Optional[SuiteOptions] = None) -> list[CheckResult]:
    """Run one named suite, or all of them in catalog order."""
    opts = opts or SuiteOptions()
    if name != "all" and name not in SUITES:
        known = ", ".join([*SUITES, "all"])
        raise ValueError(f"unknown suite {name!r}; known suites: {known}")
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    return [_timed(check) for suite in suites for check in suite(opts)]
