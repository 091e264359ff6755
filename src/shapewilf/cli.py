"""
Command-line front end.

Subcommands: count-av, check, suite, bijection, boards, fillings, oeis.
Global flags (before the subcommand): --format {table,csv,json-lines},
--offline, --cache-dir, --time-budget, --timings.  ``bijection`` names its
map by one oracle expression (``equivalence.evaluate_oracle_expression``),
e.g. "transfer(fan(3,3,1),{12})", and takes --filling or --verify.

Exit status: 0 = success / verdict equal, 1 = mathematical divergence or
failed verification, 2 = usage error, reported as one "error: ..." line
on stderr.  This contract is stable for scripting.  json-lines output is
byte-identical across runs for fixed parameters (and offline OEIS mode);
per-check wall times are only emitted under --timings so as not to break
that.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import NoReturn, Optional, Sequence

from .perms import format_pattern_set, parse_pattern_set
from .boards import (
    count_fillings,
    enumerate_boards,
    fillings,
    format_board,
    format_filling,
    parse_board,
    parse_filling,
)
from .bijections import BijectionError, verify_bijection
from .equivalence import (
    BUDGET_CAP,
    counts_within_budget,
    evaluate_oracle_expression,
    shape_wilf_table,
    wilf_table,
)
from .suites import SuiteOptions, run_suite
from . import oeis

EXIT_OK = 0
EXIT_DIVERGENCE = 1
EXIT_USAGE = 2


def _cell(value) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _emit_records(records: list[dict], fmt: str, columns: list[str]) -> None:
    if fmt == "json-lines":
        for rec in records:
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_cell(rec.get(col, "")) for col in columns])
    else:
        widths = {
            col: max(len(col), *(len(_cell(rec.get(col, ""))) for rec in records))
            for col in columns
        } if records else {col: len(col) for col in columns}
        print("  ".join(col.ljust(widths[col]) for col in columns))
        for rec in records:
            print("  ".join(_cell(rec.get(col, "")).ljust(widths[col]) for col in columns))


# ---------------------------------------------------------------------------
# subcommands

def cmd_count_av(args) -> int:
    patterns = parse_pattern_set(args.set)
    counts = counts_within_budget(patterns, args.n, args.time_budget)
    records = [{"n": i + 1, "count": c} for i, c in enumerate(counts)]
    _emit_records(records, args.format, ["n", "count"])
    return EXIT_OK


def cmd_check(args) -> int:
    left = parse_pattern_set(args.left)
    right = parse_pattern_set(args.right)
    columns = ["n", "left_count", "right_count", "equal"]
    if args.kind == "wilf":
        table, n_max = wilf_table, 9
    else:
        table, n_max = shape_wilf_table, 6
        columns.insert(1, "board")
    report = table(left, right, n_max if args.n is None else args.n,
                   fail_fast=not args.full)
    records = []
    for r in report.rows:
        rec = {"n": r.n, "left_count": r.left_count, "right_count": r.right_count,
               "equal": r.equal}
        if r.board is not None:
            rec["board"] = format_board(r.board)
        records.append(rec)
    _emit_records(records, args.format, columns)
    print(report.describe(), file=sys.stderr)
    return EXIT_OK if report.equal else EXIT_DIVERGENCE


def cmd_suite(args) -> int:
    opts = SuiteOptions(
        n_wilf=args.n_wilf,
        n_shape=args.n_shape,
        n_bijection=args.n_bijection,
        n_oeis=args.n_oeis,
        offline=args.offline,
        cache_dir=args.cache_dir,
        time_budget=args.time_budget,
    )
    results = run_suite(args.name, opts)
    records = []
    for r in results:
        rec = {
            "suite": r.suite,
            "check": r.name,
            "kind": r.kind,
            "label": r.label,
            "claim": r.claim,
            "verdict": "pass" if r.passed else "FAIL",
            "params": r.params,
            "witness": r.witness,
        }
        if args.timings:
            rec["wall_time_ms"] = round(r.wall_time * 1000.0, 1)
        records.append(rec)
    columns = ["suite", "check", "kind", "label", "verdict", "claim", "params", "witness"]
    if args.timings:
        columns.append("wall_time_ms")
    _emit_records(records, args.format, columns)
    failed = [r for r in results if not r.passed]
    print(
        f"{len(results) - len(failed)}/{len(results)} checks passed",
        file=sys.stderr,
    )
    return EXIT_OK if not failed else EXIT_DIVERGENCE


def cmd_bijection(args) -> int:
    oracle = evaluate_oracle_expression(args.oracle)
    if args.verify is not None:
        report = verify_bijection(oracle, args.verify)
        print(report.describe())
        return EXIT_OK if report.ok else EXIT_DIVERGENCE
    f = parse_filling(args.filling)
    trace: Optional[list] = [] if args.trace else None
    try:
        out = oracle(f, trace)
    except BijectionError as exc:
        print(f"bijection failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    if trace is not None:
        for line in trace:
            print(f"# {line}")
    print(format_filling(out))
    return EXIT_OK


def cmd_boards(args) -> int:
    boards = enumerate_boards(args.n)
    records = [{"board": format_board(b)} for b in boards]
    _emit_records(records, args.format, ["board"])
    print(f"{len(boards)} boards with {args.n} columns", file=sys.stderr)
    return EXIT_OK


def cmd_fillings(args) -> int:
    board = parse_board(args.board)
    avoid = parse_pattern_set(args.avoid) if args.avoid else frozenset()
    if args.count_only:
        count = count_fillings(board, avoid)
        if args.format == "table":
            print(count)
        else:
            _emit_records([{"board": format_board(board), "count": count}],
                          args.format, ["board", "count"])
        return EXIT_OK
    records = [{"filling": format_filling(f)} for f in fillings(board, avoid)]
    _emit_records(records, args.format, ["filling"])
    return EXIT_OK


def cmd_oeis(args) -> int:
    if args.action == "fetch":
        seq = oeis.fetch_sequence(
            args.id, cache_dir=args.cache_dir, offline=args.offline
        )
        records = [{"index": i, "value": v} for i, v in seq.entries]
        _emit_records(records, args.format, ["index", "value"])
        print(f"{args.id}: {len(seq.entries)} entries ({seq.provenance})",
              file=sys.stderr)
        return EXIT_OK
    # compare
    patterns = parse_pattern_set(args.set)
    seq = oeis.fetch_sequence(args.id, cache_dir=args.cache_dir, offline=args.offline)
    counts = counts_within_budget(patterns, args.n, args.time_budget)
    report = oeis.align_and_compare(counts, seq)
    rec = {
        "set": format_pattern_set(patterns),
        "id": args.id,
        "provenance": seq.provenance,
        "computed_terms": len(counts),
        "matched_prefix_length": report.matched_prefix_length,
        "alignment_offset": report.alignment_offset,
        "first_mismatch": list(report.first_mismatch) if report.first_mismatch else "",
    }
    _emit_records([rec], args.format, list(rec))
    return EXIT_OK if report.full_match else EXIT_DIVERGENCE


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """An argparse usage error, from the main parser or a subparser (they
    share this class), is one ``error:`` line on stderr and exit 2, like
    every other usage error."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shapewilf",
        description="Exhaustive (shape-)Wilf-equivalence checking for "
        "permutation patterns, POPs and Ferrers-board fillings.",
    )
    parser.add_argument("--format", choices=["table", "csv", "json-lines"],
                        default="table")
    parser.add_argument("--offline", action="store_true",
                        help="never touch the network; use cache/bundled data")
    parser.add_argument("--cache-dir", default=None, help="OEIS b-file cache directory")
    parser.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                        help="keep extending counting past --n while time "
                        f"remains, up to n={BUDGET_CAP}")
    parser.add_argument("--timings", action="store_true",
                        help="include wall times in suite output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-av", help="count avoiders of a pattern set")
    p.add_argument("--set", required=True, help='pattern set, e.g. "{12345,12354}"')
    p.add_argument("--n", type=int, default=9)
    p.set_defaults(fn=cmd_count_av)

    p = sub.add_parser("check", help="Wilf / shape-Wilf comparison of two sets")
    p.add_argument("kind", choices=["wilf", "shape-wilf"])
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="defaults: 9 for wilf, 6 for shape-wilf")
    p.add_argument("--full", action="store_true",
                   help="do not stop at the first divergence")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("suite", help="run a named verification/evidence suite")
    p.add_argument("name", help="main-conjecture, corollary-13, "
                   "conjecture-fan-minus-one, conjecture-13452, "
                   "negative-controls, or all")
    p.add_argument("--n-wilf", type=int, default=None)
    p.add_argument("--n-shape", type=int, default=None)
    p.add_argument("--n-bijection", type=int, default=None)
    p.add_argument("--n-oeis", type=int, default=None)
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("bijection", help="apply or verify a bijection")
    p.add_argument("oracle", metavar="EXPR", help='e.g. "transfer(fan(3,3,1),{12})"')
    run = p.add_mutually_exclusive_group(required=True)
    run.add_argument("--filling", help='e.g. "[3,3,3]/321"')
    run.add_argument("--verify", type=int, metavar="N_MAX",
                     help="verify exhaustively on all boards up to N_MAX columns")
    p.add_argument("--trace", action="store_true",
                   help="print the recursion's slot choices")
    p.set_defaults(fn=cmd_bijection)

    p = sub.add_parser("boards", help="enumerate Ferrers boards admitting fillings")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_boards)

    p = sub.add_parser("fillings", help="enumerate/count fillings of a board")
    p.add_argument("--board", required=True, help='e.g. "[3,3,1]"')
    p.add_argument("--avoid", default=None, help="pattern set to avoid in-board")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_fillings)

    p = sub.add_parser("oeis", help="fetch or compare OEIS b-files")
    p.add_argument("action", choices=["fetch", "compare"])
    p.add_argument("id", nargs="?", default="A224295")
    p.add_argument("--set", default="{12345,12354}",
                   help="pattern set to count (compare only)")
    p.add_argument("--n", type=int, default=9)
    p.set_defaults(fn=cmd_oeis)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except (ValueError, oeis.OeisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    entry()
