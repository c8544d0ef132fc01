"""Untraced workload run, in a fresh interpreter started by run.py.

    python3 perfbench/measure.py WORKLOAD SEED SECONDS WORKDIR [--smoke]

Calls `noma_fair.cli.main` in this process, alternating one-worker and
two-worker invocations of the same generated input until SECONDS have
passed, and prints one JSON object of samples as its last stdout line.
One-worker invocations run pinned to one CPU.  Before each invocation the
slowdown of every CPU is measured (see speed.py) and reported with the
samples; `one_around` is the pinned CPU's mean slowdown just before and
just after each one-worker sample.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import cpus, pinned, slowdown  # noqa: E402
from workloads import REFERENCE_FILE, WORKLOADS, digest, same_content  # noqa: E402

import noma_fair.cli as cli  # noqa: E402


def cli_call(argv: list[str]) -> tuple[int, float]:
    """Run one CLI command in this process; returns (exit code, CPU seconds)."""
    before = os.times()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    after = os.times()
    return code, sum(after[:4]) - sum(before[:4])


class Invoker:
    """Runs a workload's command lines: one in this process, or several at
    once on a pool of warm worker interpreters."""

    def __init__(self):
        self.pool = None

    def run(self, commands: list[list[str]]) -> tuple[bool, float, float]:
        """Returns (all exit codes 0, wall seconds, CPU seconds of the process tree)."""
        before = os.times()
        start = time.perf_counter()
        if len(commands) == 1:
            codes = [cli_call(commands[0])[0]]
            worker_cpu = 0.0
        else:
            if self.pool is None:
                self.pool = ProcessPoolExecutor(len(commands), mp_context=get_context("spawn"))
            results = list(self.pool.map(cli_call, commands))
            codes = [code for code, _ in results]
            worker_cpu = sum(cpu for _, cpu in results)
        wall = time.perf_counter() - start
        after = os.times()
        return all(c == 0 for c in codes), wall, sum(after[:4]) - sum(before[:4]) + worker_cpu

    def close(self):
        if self.pool is not None:
            self.pool.shutdown(wait=True)


def main(argv: list[str]) -> int:
    name, seed, seconds, work = argv[0], int(argv[1]), float(argv[2]), Path(argv[3])
    smoke = "--smoke" in argv[4:]
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    invoker = Invoker()
    attempted = failed = 0
    problems: list[str] = []
    samples = {k: [] for k in ("points_per_s", "points_per_s_2w", "cpu_ms_per_point")}
    slow = {"one": [], "all": [], "all_cpu_clock": [], "one_around": []}

    one_cpu = cpus()[0]
    # The reference invocations double as the warm-up, of the worker pool too.
    expected = json.loads(REFERENCE_FILE.read_text())[name]
    ref_outs = {w: work / f"reference{w}" for w in (1, 2)}
    with pinned({one_cpu}):
        ref_ok = [invoker.run(wl.commands(wl.reference_inputs(), 1, ref_outs[1]))[0]]
    ref_ok.append(invoker.run(wl.commands(wl.reference_inputs(), 2, ref_outs[2]))[0])
    attempted += 2
    got = [digest(p) for p in wl.artifacts(ref_outs[1])] if ref_ok[0] else []
    if got != expected:
        failed += 1
        problems.append(f"reference artifacts differ: {got} != {expected}")
    if not (ref_ok[1] and same_content(ref_outs[1], ref_outs[2], wl)):
        failed += 1
        problems.append("reference run at two workers differs from one worker")

    deadline = time.perf_counter() + seconds
    while True:
        pair_start = time.perf_counter()
        inputs = wl.inputs(rng, smoke)
        outs = {w: work / f"w{w}" for w in (1, 2)}
        runs = {}
        for w, out in outs.items():
            speed = {c: slowdown(c) for c in cpus()}
            slow["one"].append(speed[one_cpu][0])
            slow["all"].append(statistics.fmean(wall for wall, _ in speed.values()))
            slow["all_cpu_clock"].append(statistics.fmean(cpu for _, cpu in speed.values()))
            shutil.rmtree(out, ignore_errors=True)
            with pinned({one_cpu} if w == 1 else set(cpus())):
                runs[w] = invoker.run(wl.commands(inputs, w, out))
        attempted += 2
        bad = [f"exit code != 0 at {w} workers" for w, (ok, _, _) in runs.items() if not ok]
        if not bad:
            bad += wl.check(outs[1]) + wl.check(outs[2])
            if not same_content(outs[1], outs[2], wl):
                bad.append("one-worker and two-worker artifacts differ")
        if bad:
            failed += 2
            problems += [f"{inputs}: {b}" for b in bad]
        # A run that exited 0 did its work, so it is timed even when its
        # output is wrong; the failure shows in `failed`.
        if all(ok for ok, _, _ in runs.values()):
            points = wl.points(inputs, outs[1])
            (_, wall1, _), (_, wall2, cpu2) = runs[1], runs[2]
            samples["points_per_s"].append(points / wall1)
            # Measured on the same CPU just before and just after the run.
            slow["one_around"].append((slow["one"][-2] + slow["one"][-1]) / 2)
            samples["points_per_s_2w"].append(points / wall2)
            samples["cpu_ms_per_point"].append(1e3 * cpu2 / points)
        # Stop unless another pair as long as this one still fits.
        if 2 * time.perf_counter() - pair_start > deadline:
            break
    invoker.close()

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "samples": samples,
        "slowdown": slow,
        "peak_rss_mb": peak_kb / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
