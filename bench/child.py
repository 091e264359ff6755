"""
One pass of one workload in a fresh interpreter; run.py starts it.

Prints one JSON object on stdout: the set-up time (from the parent's
clock reading just before it started this interpreter, through the
imports and input construction, to the first operation), the summed
operation time, the operations attempted and how they failed, the peak
RSS, and with --trace 1 the per-layer metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.perf_counter() of the parent just before the start")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import shapewilf  # noqa: F401  -- importing the library is part of set-up
    import shapewilf.cli  # noqa: F401
    import tracing
    import workloads

    expected = json.loads((BENCH / "expected.json").read_text())
    rng = random.Random(f"{args.workload}/{args.seed}/{args.pass_index}")
    ops = workloads.build_ops(args.workload, args.smoke, expected, rng, BENCH)
    tracer = missing = None
    if args.trace:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    span_name = "cli.main" if args.workload == "suite-all" else "op"

    first = time.perf_counter()
    failures, digests, pass_s = [], [], 0.0
    for op in ops:
        start = time.perf_counter()
        span = tracer.begin(span_name, op.label) if tracer else None
        try:
            out = op.run()
            problem = None
        except Exception as exc:  # counted as a failed operation below
            out, problem = None, f"{type(exc).__name__}: {exc}"
        if span:
            tracer.end(span)
        pass_s += time.perf_counter() - start
        if problem is None:
            problem = op.check(out)
        if problem:
            failures.append(f"{op.label}: {problem}")
        if args.workload == "suite-all" and out is not None:
            digests.append(hashlib.sha256(out[1]).hexdigest())

    result = {
        "setup_s": first - args.t0,
        "pass_s": pass_s,
        "ops": len(ops),
        "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout_sha256": digests,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer)
        result["missing"] = missing
        if args.trace_file:
            _write_trace(Path(args.trace_file), tracer, first, result)
    print(json.dumps(result))
    return 0


def _write_trace(path: Path, tracer, origin: float, result: dict) -> None:
    """Spans with times relative to the first operation, hot-call
    aggregates per parent span, self times and the layer metrics."""
    import tracing

    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "span_fields": ["id", "parent", "name", "start_s", "end_s", "busy_s", "label"],
        "spans": [[i, p, n, s - origin, e - origin, b, lab]
                  for i, p, n, s, e, b, lab in tracer.spans],
        "hot_fields": ["name", "parent", "calls", "s", "truthy"],
        "hot": [[name, parent, *rec] for (name, parent), rec in tracer.hot.items()],
        "self_s": tracing.self_times(tracer),
        "metrics": result["layers"],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))


if __name__ == "__main__":
    sys.exit(main())
