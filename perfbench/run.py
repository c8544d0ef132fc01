"""noma-fair benchmark: one workload run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a source checkout; the program is imported from its
`src/` directory and nothing is built.  Each run times fresh interpreters
through `import noma_fair.cli` (set-up), then starts one fresh interpreter
for the workload itself: measure.py with `--trace 0`, trace.py with
`--trace 1`.  Prints every metric as `name value unit`, then one JSON object
with `correct`, `attempted`, `failed` and `metrics` as the last line.  See
NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from speed import cpus, pinned, slowdown  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
SETUP_CODE = (
    "import time; t = time.perf_counter(); import numpy; u = time.perf_counter(); "
    "import noma_fair.cli; v = time.perf_counter(); print(u - t, v - u, numpy.__version__)"
)
# Longest a workload interpreter may run beyond --seconds before it is killed.
CHILD_GRACE_S = 120


def machine(numpy_version: str) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def setup_times(env: dict) -> tuple[list[float], list[float], list[float], str]:
    """Wall seconds from starting an interpreter, pinned to one CPU, through
    `import noma_fair.cli`; that CPU's slowdown between starts (see
    speed.py); the milliseconds of the import spent outside numpy; and
    numpy's version."""
    walls, speed, own_ms = [], [], []
    cpu = cpus()[0]
    for i in range(SETUP_SAMPLES + 1):
        speed.append(slowdown(cpu)[0])
        with pinned({cpu}):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                capture_output=True, text=True, check=True, timeout=60,
            )
            wall = time.perf_counter() - start
        if i > 0:  # the first start also writes the bytecode caches
            walls.append(wall)
            own_ms.append(1e3 * float(done.stdout.split()[1]))
    return walls, speed, own_ms, done.stdout.split()[2]


def run_child(script: str, args: list[str], env: dict, seconds: float) -> dict:
    # A session of its own, so that a timeout also stops the worker
    # processes the child started.
    child = subprocess.Popen(
        [sys.executable, str(HERE / script), *args], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{script} exited with code {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, list[str]]:
    """Returns the result object and the `name value unit` lines to print."""
    env = {k: v for k, v in os.environ.items() if k != "NOMA_FAIR_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    OUT.mkdir(exist_ok=True)
    work = HERE / ".work" / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True)
    extra = ["--smoke"] if smoke else []
    try:
        setup_walls, setup_speed, own_ms, numpy_version = setup_times(env)
        if trace:
            child = run_child("trace.py", [name, str(seed), str(work), str(OUT), *extra], env, seconds)
        else:
            child = run_child("measure.py", [name, str(seed), str(seconds), str(work), *extra], env, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = []
    metrics = {}
    if trace:
        for metric, (value, unit) in child["metrics"].items():
            metrics[metric] = {"value": value, "unit": unit}
        metrics["cli.import_self_ms"] = {"value": statistics.median(own_ms), "unit": "ms"}
    else:
        samples = dict(child["samples"], setup_s=setup_walls)  # unscaled
        if not samples["points_per_s"]:
            raise RuntimeError("every invocation exited with an error; nothing was measured")
        # Throughputs are multiplied, times divided, by the slowdown of the
        # CPUs they ran on, on the clock they use.  A pinned one-worker
        # sample is scaled by the slowdown just around it.  Two-worker and
        # set-up medians are scaled by the run's median slowdown, which
        # tracked them better.
        slow = child["slowdown"]
        samples["points_per_s"] = [v * f for v, f in zip(samples["points_per_s"], slow["one_around"])]
        scale = {
            "points_per_s": ("1/s", 1.0),
            "points_per_s_2w": ("1/s", statistics.median(slow["all"])),
            "cpu_ms_per_point": ("ms", 1.0 / statistics.median(slow["all_cpu_clock"])),
            "setup_s": ("s", 1.0 / statistics.median(setup_speed)),
        }
        for metric, (unit, factor) in scale.items():
            q1, q2, q3 = quartiles(samples[metric])
            metrics[metric] = {"value": q2 * factor, "unit": unit}
            lines.append(
                f"# {metric}: median of {len(samples[metric])} samples, "
                f"quartiles {q1 * factor:.6g} .. {q3 * factor:.6g}"
            )
        raw = statistics.median(child["samples"]["points_per_s"])
        lines.append(f"# unscaled medians: points_per_s {raw:.6g}, " + ", ".join(
            f"{m} {statistics.median(samples[m]):.6g}" for m in ("points_per_s_2w", "cpu_ms_per_point", "setup_s")
        ))
        metrics["peak_rss_mb"] = {"value": child["peak_rss_mb"], "unit": "MB"}
    attempted, failed = child["attempted"], child["failed"]
    for problem in child["problems"]:
        lines.append(f"# check failed: {problem}")
    lines += [f"{m} {v['value']:.6g} {v['unit']}" for m, v in metrics.items()]
    lines.append(f"failed_frac {failed / attempted:.6g} frac")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(numpy_version), **result,
        "samples": {} if trace else dict(child["samples"], setup_s=setup_walls),  # unscaled
        "slowdown": {} if trace else dict(child["slowdown"], setup=setup_speed),
        "problems": child["problems"],
    }
    suffix = "-smoke" if smoke else ""
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    lines.insert(0, "# machine: " + " ".join(f"{k}={v}" for k, v in record["machine"].items()))
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "noma_fair" / "cli.py").is_file():
        print(f"error: no noma_fair sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        prefix = f"{name}." if args.workload == "all" else ""
        for line in lines:
            print(line if line.startswith("#") else prefix + line)
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
