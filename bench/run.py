"""
shapewilf benchmark runner.

    python3 bench/run.py --workload wilf-count --seed 1 --seconds 25 --trace 0

Runs passes of one workload (see workloads.py) until --seconds have gone.
Each pass is a fresh single-threaded child interpreter (child.py), so
set-up time and peak memory are measured per pass and nothing the library
caches survives from one pass to the next.  Every output is checked
against the pinned values; a mismatch, an exception or a crashed pass
counts as failed operations.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 the end-to-end metrics of
BENCHMARK.json, each the median over the passes; with --trace 1 its
per-layer metrics from traced passes, which alternate with untraced ones
so that the tracing overhead can be reported.  A readable table goes to
stderr.  Per-layer counters must repeat exactly across traced passes and
the suite-all stdout across all passes; a difference is a failure.
--smoke runs tiny sizes, still fully checked, for the benchmark's own
tests.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUN_LIMIT_S = 170  # every run must end within 180 s


def run_child(args, index: int, traced: bool, trace_file, timeout: float):
    """One pass; returns (result, None) or (None, why it failed)."""
    extra = ["--smoke"] if args.smoke else []
    if trace_file:
        extra += ["--trace-file", str(trace_file)]
    base = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--pass-index", str(index),
            "--trace", str(int(traced)), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen([*base, "--t0", repr(t0)], cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"pass {index} timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"pass {index} exited {proc.returncode}: {err.strip()[-800:]}"
    try:
        return json.loads(out.splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, f"pass {index} printed no result"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, all outputs still checked")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shapewilf" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'shapewilf'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    mode = workloads.mode(args.smoke)
    ops_per_pass = len(workloads.specs(args.workload, args.smoke))

    passes = {False: [], True: []}  # traced? -> child results
    failures, attempted, durations = [], 0, []
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 0
        trace_file = (OUT / f"trace-{args.workload}-seed{args.seed}.json"
                      if traced and index == 0 else None)
        began = time.perf_counter()
        timeout = max(5.0, RUN_LIMIT_S - (began - start))
        result, error = run_child(args, index, traced, trace_file, timeout)
        durations.append(time.perf_counter() - began)
        attempted += ops_per_pass
        if error:
            failures += [error] * ops_per_pass
        else:
            passes[traced].append(result)
            failures += result["failures"]
        index += 1
        elapsed = time.perf_counter() - start
        if index >= 1 + args.trace and (
                elapsed + statistics.median(durations) > args.seconds
                or elapsed > RUN_LIMIT_S / 2):
            break

    untraced, traced_runs = passes[False], passes[True]
    if not untraced or (args.trace and not traced_runs):
        for f in failures[:5]:
            print(f"FAILED {f}", file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1
    failures += _determinism_failures(untraced + traced_runs, traced_runs)

    wall = statistics.median(r["pass_s"] for r in untraced)
    if args.trace:
        values = _layer_values(traced_runs)
        values["trace.overhead_s"] = statistics.median(r["pass_s"] for r in traced_runs) - wall
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "objects_per_s": expected["objects"][args.workload][mode] / wall,
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in untraced) / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    _report(args, metrics, untraced, traced_runs, attempted, failures)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _layer_values(traced_runs: list[dict]) -> dict:
    """Median of each time, and each counter (equal in every pass)."""
    layers = [r["layers"] for r in traced_runs]
    return {name: statistics.median(lay[name] for lay in layers)
            if tracing.is_time(name) else layers[0][name]
            for name in layers[0]}


def _determinism_failures(all_runs: list[dict], traced_runs: list[dict]) -> list[str]:
    out = []
    for name in traced_runs[0]["layers"] if traced_runs else ():
        seen = {r["layers"][name] for r in traced_runs}
        if not tracing.is_time(name) and len(seen) > 1:
            out.append(f"counter {name} differs across passes: {sorted(seen)}")
    digests = {d for r in all_runs for d in r["stdout_sha256"]}
    if len(digests) > 1:
        out.append(f"suite-all stdout differs across passes: {len(digests)} hashes")
    return out


def _report(args, metrics, untraced, traced_runs, attempted, failures) -> None:
    err = sys.stderr
    print(f"# {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(untraced)} untraced and "
          f"{len(traced_runs)} traced passes, closed loop, one caller", file=err)
    for name, m in metrics.items():
        note = " (computed from the counts)" if name == "equivalence.tree_candidates" else ""
        print(f"{name:42} {m['value']:>16.6g} {m['unit']}{note}", file=err)
    print(f"{'failed_ratio':42} {len(failures) / attempted:>16.6g} "
          f"({len(failures)} of {attempted} operations)", file=err)
    for f in failures[:10]:
        print(f"FAILED {f}", file=err)
    missing = {m for r in traced_runs for m in r.get("missing") or ()}
    if missing:
        print(f"note: not in the library, so not traced: {sorted(missing)}", file=err)


if __name__ == "__main__":
    sys.exit(main())
