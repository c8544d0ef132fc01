"""Smoke test of the benchmark itself; exits non-zero on any failure.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that the
last stdout line carries every metric BENCHMARK.json names, each with a unit
and a name matching [A-Za-z0-9_.-]+.  Then checks that the benchmark refuses
to run, without printing a result, in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_result(stdout: str, names: list[str]) -> list[str]:
    result = json.loads(stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"not correct: attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(names))}")
    for name, metric in metrics.items():
        if not NAME.fullmatch(name) or not metric.get("unit") or not isinstance(metric.get("value"), float):
            problems.append(f"bad metric {name}: {metric}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    names = {0: [m["name"] for m in bench["end_to_end"]], 1: [m["name"] for m in bench["per_layer"]]}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [*command, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            problems = [f"exit code {done.returncode}: {done.stderr[-500:]}"] if done.returncode else []
            problems = problems or check_result(done.stdout, names[trace])
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else problems}")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    done = subprocess.run(
        [*command, "--workload", "mc-fast", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    refused = done.returncode != 0 and not done.stdout.strip()
    failures += not refused
    print(f"bare directory: {'refused' if refused else f'NOT refused (exit {done.returncode})'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
