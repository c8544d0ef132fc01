"""The four benchmark workloads.

A workload turns the benchmark seed into `noma-fair` command lines, counts
the work units one invocation did, and checks its artifacts.  The program
sees only the generated command lines; the seed never reaches it directly.

Work units: one (trial, alpha, beta) point for a `simulate` campaign, one
emitted (link, beta, alpha) point for a `sweep`.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# Every reference invocation uses this program seed; its artifact digests
# are stored in reference.json next to this file.
REFERENCE_SEED = 1
REFERENCE_FILE = Path(__file__).with_name("reference.json")

GATED = ("optimal", "suboptimal", "upper_bound", "lower_bound")

# Trials per measured campaign invocation: at two workers, one each.
TRIALS = 2
# Trials of the sample a traced run replays.
TRACED_TRIALS = 2


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _join(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class Campaign:
    """A `noma-fair simulate` campaign on the default radio model."""

    name: str
    area_km2: float
    alphas: tuple
    betas: tuple
    strategies: tuple

    def inputs(self, rng, smoke: bool) -> dict:
        return {"seed": rng.randrange(2, 2**31), "trials": 1 if smoke else TRIALS}

    def reference_inputs(self) -> dict:
        return {"seed": REFERENCE_SEED, "trials": 1}

    def commands(self, inputs: dict, workers: int, out: Path) -> list[list[str]]:
        """One command line per concurrent process; a campaign is one process
        that forks its own `workers`."""
        out.mkdir(parents=True, exist_ok=True)
        config = out / "window.cfg"
        config.write_text(f"area_km2 = {self.area_km2!r}\n", encoding="utf-8")
        return [[
            "simulate", "--config", str(config),
            "--seed", str(inputs["seed"]), "--trials", str(inputs["trials"]),
            "--alphas", _join(self.alphas), "--betas", _join(self.betas),
            "--strategies", _join(self.strategies),
            "--threads", str(workers), "--out-dir", str(out / "run"),
        ]]

    def artifacts(self, out: Path) -> list[Path]:
        return [out / "run" / "campaign.csv", out / "run" / "campaign.json"]

    def points(self, inputs: dict, out: Path) -> int:
        return inputs["trials"] * len(self.alphas) * len(self.betas)

    def check(self, out: Path) -> list[str]:
        """Gated strategies never leave a user below its OMA rate, so their
        mean strong and weak rates are at least those of `oma` at every point."""
        value = {
            (r["alpha"], r["beta"], r["strategy"], r["metric"]): float(r["value"])
            for r in read_rows(self.artifacts(out)[0])
        }
        problems = []
        for (alpha, beta, strategy, metric), v in value.items():
            if strategy not in GATED or metric not in ("mur_strong", "mur_weak"):
                continue
            oma = value.get((alpha, beta, "oma", metric))
            if oma is not None and v < oma:
                problems.append(f"{strategy} {metric} {v} < oma {oma} at alpha={alpha} beta={beta}")
        return problems


@dataclass(frozen=True)
class Sweep:
    """`noma-fair sweep --axis gamma-s` over a dense strong-user SINR grid.

    The `sweep` command has no worker option.  Its two-worker form runs the
    two halves of the grid as two concurrent invocations, which is how a
    user spreads a sweep over two cores.
    """

    name: str
    grid_points: int
    alphas: tuple = (0.3, 0.6, 1, 3, 25, 35)
    betas: tuple = (0, 0.02, 0.05, "beta_star")
    step_db: float = 0.1

    def _inputs(self, rng, points: int) -> dict:
        return {
            "gamma_w_db": round(rng.uniform(-5.0, 10.0), 3),
            "offset_db": round(rng.uniform(0.05, 0.5), 3),
            "grid_points": points,
        }

    def inputs(self, rng, smoke: bool) -> dict:
        return self._inputs(rng, 20 if smoke else self.grid_points)

    def reference_inputs(self) -> dict:
        import random

        return self._inputs(random.Random(REFERENCE_SEED), self.grid_points)

    def grid(self, inputs: dict) -> list[str]:
        first = inputs["gamma_w_db"] + inputs["offset_db"]
        return [f"{first + self.step_db * i:.4f}" for i in range(inputs["grid_points"])]

    def commands(self, inputs: dict, workers: int, out: Path) -> list[list[str]]:
        values = self.grid(inputs)
        size = -(-len(values) // workers)
        return [
            [
                # The `=` form keeps a list that starts with a minus sign a value.
                "sweep", "--axis", "gamma-s", "--values=" + ",".join(values[i:i + size]),
                "--gamma-w-db=" + str(inputs["gamma_w_db"]),
                "--alphas", _join(self.alphas), "--betas", _join(self.betas),
                "--solver", "suboptimal", "--out", str(out / f"part{k}"),
            ]
            for k, i in enumerate(range(0, len(values), size))
        ]

    def artifacts(self, out: Path) -> list[Path]:
        parts = sorted(out.glob("part*.csv"))
        return [p for part in parts for p in (part, part.with_suffix(".json"))]

    def points(self, inputs: dict, out: Path) -> int:
        return len({
            (r["gamma_s_db"], r["beta"], r["alpha"])
            for part in out.glob("part*.csv")
            for r in read_rows(part)
        })

    def check(self, out: Path) -> list[str]:
        """An admitted split lies inside [delta_lb, delta_ub]."""
        problems = []
        for part in sorted(out.glob("part*.csv")):
            by_point: dict = {}
            for r in read_rows(part):
                key = (r["gamma_s_db"], r["beta"], r["alpha"])
                by_point.setdefault(key, {})[r["metric"]] = float(r["value"])
            for key, m in by_point.items():
                if "delta_s" in m and not m["delta_lb"] <= m["delta_s"] <= m["delta_ub"]:
                    problems.append(f"delta_s outside its bounds at {key}: {m}")
        return problems


def same_content(one: Path, other: Path, workload) -> bool:
    """Two runs of one input at different worker counts emit the same rows.

    Campaign artifacts must be byte-identical.  A sweep split into halves
    must emit, together, exactly the rows of the whole sweep.
    """
    if isinstance(workload, Campaign):
        return [digest(p) for p in workload.artifacts(one)] == [
            digest(p) for p in workload.artifacts(other)
        ]

    def rows(out):
        csv_lines, json_items = [], []
        for path in workload.artifacts(out):
            if path.suffix == ".csv":
                csv_lines += path.read_text(encoding="utf-8").splitlines()[1:]
            else:
                json_items += [json.dumps(x, sort_keys=True) for x in json.loads(path.read_text())]
        return sorted(csv_lines), sorted(json_items)

    return rows(one) == rows(other)


_DEFAULT_BETAS = (0.01, 0.02, 0.04, 0.06, 0.08, 0.1)

WORKLOADS = {
    w.name: w
    for w in (
        Campaign(
            name="mc-optimal",
            area_km2=1.0,
            alphas=(1,),
            betas=_DEFAULT_BETAS,
            strategies=("optimal", "suboptimal", "near_far", "oma"),
        ),
        Campaign(
            name="mc-fast",
            area_km2=1.0,
            alphas=(0.5, 1, 3, 25),
            betas=(0.01, 0.04, 0.08),
            strategies=("suboptimal", "upper_bound", "lower_bound", "near_far", "oma"),
        ),
        Campaign(
            name="mc-large-window",
            area_km2=36.0,
            alphas=(1,),
            betas=(0.04,),
            strategies=("oma",),
        ),
        Sweep(
            name="split-sweep",
            grid_points=120,
        ),
    )
}
