"""
Author the benchmark's pinned values: expected.json and the pinned
suite-all stdout copies.

    python3 bench/pin.py

Every count is computed by an engine other than the one the benchmark
measures, and the measured engine must agree before anything is written:

* avoider counts come from equivalence.count_avoiders_naive, the filter
  of all of S_n by unanchored containment; avoider_counts (the extension
  tree) must agree on every term.
* avoiding fillings per board come from the brute force in this file,
  which tests every transversal of a board for in-board occurrences with
  itertools.combinations and shares no code with the library.
  count_fillings must agree on every board, count_fillings(square_board(n), S)
  must equal count_avoiders_naive(S, n), and transversal_count_formula
  must equal the brute-force number of unrestricted transversals.
* the suite-all stdout is the one value taken from the measured code,
  because it pins bytes; every record in it is checked against the
  counts above before it is written.

Run this only to add or change a workload, never to make a failing
benchmark pass.
"""
from __future__ import annotations

import datetime
import hashlib
import json
import re
import sys
from itertools import combinations
from pathlib import Path

import workloads
from workloads import board_key, set_key

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


class PinError(Exception):
    pass


def require(condition: bool, what) -> None:
    if not condition:
        raise PinError(what)


def parse_set(text: str) -> tuple:
    return tuple(sorted(tuple(int(ch) for ch in tok) for tok in text.strip("{}").split(",")))


# ---------------------------------------------------------------------------
# the independent filling engine

def own_boards(n: int) -> list[tuple]:
    """Boards with n columns admitting a transversal: heights weakly
    decreasing, first column n, column i (0-based) at least n - i; in
    descending lexicographic order."""
    out = []

    def grow(heights):
        i = len(heights)
        if i == n:
            out.append(tuple(heights))
            return
        for h in range(heights[-1], n - i - 1, -1):
            grow(heights + [h])

    grow([n])
    return out


def transversals(board: tuple) -> list[tuple]:
    out, m = [], len(board)

    def place(prefix, used):
        c = len(prefix)
        if c == m:
            out.append(tuple(prefix))
            return
        for r in range(1, board[c] + 1):
            if r not in used:
                place(prefix + [r], used | {r})

    place([], frozenset())
    return out


def standardize(values) -> tuple:
    ranks = sorted(values)
    return tuple(ranks.index(v) + 1 for v in values)


def inboard_contains(board, w, patterns) -> bool:
    """Some columns c_1 < ... < c_k carry 1s order-isomorphic to a pattern
    and the top-right corner (c_k, highest of those rows) is in the board."""
    for k in {len(p) for p in patterns}:
        for cols in combinations(range(len(w)), k):
            rows = [w[c] for c in cols]
            if max(rows) <= board[cols[-1]] and standardize(rows) in patterns:
                return True
    return False


class Fillings:
    def __init__(self):
        self._transversals = {}

    def count(self, board, patterns) -> int:
        if board not in self._transversals:
            self._transversals[board] = transversals(board)
        pats = set(patterns)
        return sum(1 for w in self._transversals[board] if not inboard_contains(board, w, pats))

    def table(self, patterns, n_max) -> dict[str, int]:
        return {board_key(b): self.count(b, patterns)
                for n in range(1, n_max + 1) for b in own_boards(n)}


def first_divergence(left: dict, right: dict, n_limit: int):
    """Boards in order up to the first on which the counts differ."""
    seen = []
    for n in range(1, n_limit + 1):
        for b in own_boards(n):
            seen.append(board_key(b))
            if left[board_key(b)] != right[board_key(b)]:
                return seen
    return None


# ---------------------------------------------------------------------------

def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from shapewilf import oeis
    from shapewilf.boards import (
        count_fillings, enumerate_boards, square_board, transversal_count_formula)
    from shapewilf.equivalence import avoider_counts, count_avoiders_naive
    from shapewilf.perms import parse_pattern_set
    from shapewilf.pops import below_all_pop, pop_to_pattern_set

    for k, (left, right) in workloads.FAN_MINUS_ONE.items():
        from_pops = tuple(set_key(pop_to_pattern_set(below_all_pop(k, bottom)))
                          for bottom in (k, k - 1))
        require((left, right) == from_pops, f"fan-minus-one k={k}: {from_pops}")

    avoid_n: dict[str, int] = {}
    fill_n: dict[str, int] = {}

    def need(table, s, n):
        require(set_key(parse_set(s)) == s, f"{s} is not written canonically")
        table[s] = max(table.get(s, 0), n)

    suites = {}
    for smoke in (False, True):
        for workload in workloads.WORKLOADS:
            for spec in workloads.specs(workload, smoke):
                if spec[0] == "count":
                    need(avoid_n, spec[1], spec[2])
                elif spec[0] in ("shape", "divergence"):
                    need(fill_n, spec[1], spec[3])
                    need(fill_n, spec[2], spec[3])
                elif spec[0] == "bijection":
                    for s in workloads.ORACLES[spec[1]]:
                        need(fill_n, s, spec[2])
                else:
                    code, stdout, _ = workloads.run_cli(spec[1])
                    require(code == 0, f"suite exit code {code}")
                    suites[workloads.mode(smoke)] = (spec[1], stdout)
    records = {m: [json.loads(line) for line in out.decode().splitlines()]
               for m, (_, out) in suites.items()}
    for recs in records.values():
        for rec in recs:
            p, kind = rec["params"], rec["kind"]
            if kind == "wilf":
                need(avoid_n, p["left"], p["n_max"])
                need(avoid_n, p["right"], p["n_max"])
            elif kind == "oeis-compare":
                need(avoid_n, p["set"], p["n_max"])
            elif kind == "shape-wilf":
                need(fill_n, p["left"], p["n_max"])
                need(fill_n, p["right"], p["n_max"])
            elif kind == "divergence-search":
                need(fill_n, p["left"], p["n_limit"])
                need(fill_n, p["right"], p["n_limit"])
            elif kind == "bijection":
                for s in _claim_sets(rec["claim"]):
                    need(fill_n, s, p["n_max"])

    print("avoider counts (count_avoiders_naive) ...", file=sys.stderr)
    avoiders = {}
    for s, n_max in sorted(avoid_n.items()):
        patterns = parse_pattern_set(s)
        naive = [count_avoiders_naive(patterns, n) for n in range(1, n_max + 1)]
        tree = avoider_counts(patterns, n_max)
        require(naive == tree, f"{s}: naive {naive} != tree {tree}")
        avoiders[s] = naive

    print("filling counts (brute force) ...", file=sys.stderr)
    engine = Fillings()
    n_top = max(fill_n.values())
    for n in range(1, n_top + 1):
        boards = own_boards(n)
        require(boards == enumerate_boards(n), f"board order differs at n={n}")
        for b in boards:
            count = engine.count(b, ())
            require(count == transversal_count_formula(b) == count_fillings(b), b)
    fillings = {}
    for s, n_max in sorted(fill_n.items()):
        patterns = parse_pattern_set(s)
        fillings[s] = engine.table(parse_set(s), n_max)
        for n in range(1, n_max + 1):
            for b in own_boards(n):
                require(count_fillings(b, patterns) == fillings[s][board_key(b)], (s, b))
            square = fillings[s][board_key(square_board(n))]
            require(square == count_avoiders_naive(patterns, n), (s, n))

    left, right = workloads.NEGATIVE_CONTROL
    path = first_divergence(fillings[left], fillings[right], fill_n[left])
    witness = {"board": path[-1], "left": fillings[left][path[-1]],
               "right": fillings[right][path[-1]]}
    require(witness == {"board": "4,4,4,3", "left": 8, "right": 10}, witness)

    bfile = oeis.bundled_sequence("A224295").values()
    for m, recs in records.items():
        _validate_suite(recs, avoiders, fillings, witness, bfile)

    expected = {
        "provenance": {
            "authored": datetime.date.today().isoformat(),
            "avoiders": "equivalence.count_avoiders_naive (filter of all of S_n by "
                        "unanchored containment); avoider_counts agreed on every term",
            "fillings": "brute force in bench/pin.py (every transversal tested for "
                        "in-board occurrences with itertools.combinations); "
                        "count_fillings agreed on every board, count_fillings on the "
                        "square board equalled count_avoiders_naive, and "
                        "transversal_count_formula equalled the unrestricted count",
            "negative_control": "first board, in enumerate_boards order, on which the "
                                "brute-force counts of the two sets differ",
            "suite_all": "stdout of cli.main at the time of pinning; every record "
                         "passed and agreed with the counts above",
            "objects": "exact objects one pass counts, summed from the counts above",
        },
        "avoiders": avoiders,
        "negative_control": witness,
        "suite_all": {},
        "objects": {},
        "fillings": fillings,
    }
    for m, (argv, stdout) in suites.items():
        name = "suite_all.jsonl" if m == "full" else f"suite_all_{m}.jsonl"
        (BENCH / name).write_bytes(stdout)
        expected["suite_all"][m] = {"argv": list(argv), "file": name,
                                    "records": len(records[m]),
                                    "sha256": hashlib.sha256(stdout).hexdigest()}
    for workload in workloads.WORKLOADS:
        expected["objects"][workload] = {
            m: _objects(workload, m == "smoke", expected, records[m])
            for m in ("full", "smoke")}
    sections = []
    for key, value in expected.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
        sections.append(f" {json.dumps(key)}: {{\n{body}\n }}")
    (BENCH / "expected.json").write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(json.dumps(expected["objects"]), file=sys.stderr)
    return 0


def _claim_sets(claim: str) -> list[str]:
    """'{12345,21345} ~s {31245,32145} via ...' -> both sets."""
    return re.findall(r"\{[0-9,]+\}", claim.split(" via ")[0])


def _validate_suite(recs, avoiders, fillings, witness, bfile) -> None:
    def table(s, n):
        return workloads.table({"fillings": fillings}, s, n)

    for rec in recs:
        p, kind = rec["params"], rec["kind"]
        require(rec["verdict"] == "pass", rec)
        if kind == "wilf":
            n = p["n_max"]
            require(avoiders[p["left"]][:n] == avoiders[p["right"]][:n], rec)
        elif kind == "shape-wilf":
            require(table(p["left"], p["n_max"]) == table(p["right"], p["n_max"]), rec)
        elif kind == "bijection":
            source, target = _claim_sets(rec["claim"])
            require(table(source, p["n_max"]) == table(target, p["n_max"]), rec)
        elif kind == "divergence-search":
            got = rec["witness"]
            want = (f"[{witness['board']}]", witness["left"], witness["right"])
            require((got["board"], got["left_count"], got["right_count"]) == want, rec)
        elif kind == "oeis-compare":
            counts = avoiders[p["set"]][:p["n_max"]]
            require(any(list(bfile[i:i + len(counts)]) == counts
                        for i in range(len(bfile))), rec)


def _objects(workload: str, smoke: bool, expected: dict, records: list) -> int:
    """Avoiders plus avoiding fillings that one pass counts."""
    def table_sum(s, n):
        return sum(workloads.table(expected, s, n).values())

    def until_witness(left, right, n):
        path = first_divergence(expected["fillings"][left], expected["fillings"][right], n)
        return sum(expected["fillings"][s][b] for b in path for s in (left, right))

    total = 0
    for spec in workloads.specs(workload, smoke):
        kind = spec[0]
        if kind == "count":
            total += sum(expected["avoiders"][spec[1]][:spec[2]])
        elif kind == "shape":
            total += table_sum(spec[1], spec[3]) + table_sum(spec[2], spec[3])
        elif kind == "divergence":
            total += until_witness(*spec[1:])
        elif kind == "bijection":
            total += sum(table_sum(s, spec[2]) for s in workloads.ORACLES[spec[1]])
        else:
            for rec in records:
                p, k = rec["params"], rec["kind"]
                if k == "wilf":
                    total += sum(sum(expected["avoiders"][p[s]][:p["n_max"]])
                                 for s in ("left", "right"))
                elif k == "oeis-compare":
                    total += sum(expected["avoiders"][p["set"]][:p["n_max"]])
                elif k == "shape-wilf":
                    total += table_sum(p["left"], p["n_max"]) + table_sum(p["right"], p["n_max"])
                elif k == "bijection":
                    total += sum(table_sum(s, p["n_max"]) for s in _claim_sets(rec["claim"]))
                elif k == "divergence-search":
                    total += until_witness(p["left"], p["right"], p["n_limit"])
    return total


if __name__ == "__main__":
    sys.exit(main())
