"""Smoke test of the benchmark itself, on tiny seed-0 jobs.

Run from the root of a checkout with

    python3 perfbench/smoke_check.py

or `python3 -m pytest perfbench/smoke_check.py`.  It takes about a
minute: every workload runs traced on small grids, criteria also runs
untraced, and a copy holding only BENCHMARK.json and perfbench/ must
fail without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

# fail_ratio is printed, not gated: it is 0 on most workloads
PRINTED = END_TO_END + (("fail_ratio", "1"),) + PER_LAYER


def _run(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=str(root), timeout=300,
    )


def _missing(stdout: str) -> list:
    return [
        name for name, unit in PRINTED
        if not re.search(r"^\s*%s = \S+ %s(\s|$)" % (re.escape(name), re.escape(unit)),
                         stdout, re.MULTILINE)
    ]


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_every_metric_printed_with_its_unit():
    for workload in WORKLOADS:
        proc = _run(workload, 1)
        assert proc.returncode == 0, proc.stderr
        assert not _missing(proc.stdout), (workload, _missing(proc.stdout))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(PER_LAYER)
    proc = _run("criteria", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(END_TO_END)


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run("profile", 0, root=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_benchmark_json_names_the_printed_metrics,
                 test_every_metric_printed_with_its_unit,
                 test_fails_without_the_program):
        test()
        print("ok", test.__name__)
