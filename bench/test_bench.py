"""
Tests of the benchmark itself, on its smoke sizes:

    PYTHONPATH=src python -m pytest bench -q
"""
import hashlib
import json
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        layer = {k: v["value"] for k, v in result["metrics"].items()}
        if workload in ("shape-wilf", "bijection-verify"):
            assert layer["perms.contains.calls"] == 0
        if workload == "wilf-count":
            assert layer["equivalence.repeat_ratio"] == 0
            assert layer["equivalence.avoider_counts.calls"] == 15
        if workload == "suite-all":
            assert layer["equivalence.repeat_ratio"] == 16 / 30
            assert layer["suites.checks"] == 45
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "wilf-count", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


Row = namedtuple("Row", "board left_count right_count")
Report = namedtuple("Report", "ok boards_checked fillings_checked describe")


def test_checks_flag_every_kind_of_wrong_output():
    assert workloads.check_counts([1, 2, 6, 24, 118], [1, 2, 6, 24, 118]) is None
    assert workloads.check_counts([1, 2, 6, 24, 119], [1, 2, 6, 24, 118])

    pinned = {"2,2": 2, "2,1": 1}
    rows = [Row((2, 2), 2, 2), Row((2, 1), 1, 1)]
    assert workloads.check_table(rows, True, pinned, pinned) is None
    assert workloads.check_table(rows[:1], True, pinned, pinned)
    assert workloads.check_table([Row((2, 2), 2, 1), rows[1]], True, pinned, pinned)
    assert workloads.check_table(rows, False, pinned, pinned)

    witness = {"board": "4,4,4,3", "left": 8, "right": 10}
    assert workloads.check_witness(Row((4, 4, 4, 3), 8, 10), witness) is None
    assert workloads.check_witness(Row((4, 4, 4, 2), 8, 10), witness)
    assert workloads.check_witness(None, witness)

    assert workloads.check_verification(Report(True, 3, 5, None), 3, 5) is None
    assert workloads.check_verification(Report(True, 3, 4, None), 3, 5)
    assert workloads.check_verification(Report(False, 3, 5, lambda: "count violation"), 3, 5)

    good = (0, b"a\nb\n", "")
    digest = hashlib.sha256(good[1]).hexdigest()
    assert workloads.check_suite(good, digest, ["a", "b"]) is None
    assert workloads.check_suite((1, good[1], ""), digest, ["a", "b"]) == "exit code 1"
    assert "line 2" in workloads.check_suite((0, b"a\nc\n", ""), digest, ["a", "b"])


def test_counters_that_differ_across_passes_are_failures():
    def traced(calls, seconds):
        return {"layers": {"perms.contains.calls": calls, "perms.contains.self_s": seconds},
                "stdout_sha256": []}

    same = [traced(10, 0.1), traced(10, 0.2)]
    assert run._determinism_failures(same, same) == []
    differ = [traced(10, 0.1), traced(11, 0.1)]
    assert len(run._determinism_failures(differ, differ)) == 1
    hashes = [{"stdout_sha256": ["a"]}, {"stdout_sha256": ["b"]}]
    assert len(run._determinism_failures(hashes, [])) == 1
