"""Traced workload run, in a fresh interpreter started by run.py.

    python3 perfbench/trace.py WORKLOAD SEED WORKDIR OUTDIR [--smoke]

Times the calls into each module's public functions from here, around the
call sites; the program itself is not instrumented.  For a sample of the
workload's points it calls `drop_network`, `compute_sinrs` and then
`evaluate_strategies` once per strategy, and replays the same candidates
through `candidate_pairs`, the admission gate, each decision function,
`noma_rates`/`oma_rate`/`alpha_throughput` and the emitters.  The replayed
per-strategy means must equal `evaluate_strategies`' exactly, which shows
that the replay times the same work.

The reference invocation is checked against reference.json as in an
untraced run.  The sample is traced twice; its deterministic counts (users, stations,
candidates, admissions, rejections by reason, resamples, clamped links)
must repeat exactly, and also match the counts file an earlier traced run
of the same workload and seed left in OUTDIR.  Spans stay in memory and are
written to OUTDIR at exit.  Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import Invoker  # noqa: E402
from workloads import REFERENCE_FILE, TRACED_TRIALS, WORKLOADS, Campaign, digest  # noqa: E402

from noma_fair import allocator, bounds, fairness, netsim, pairing, rates, report  # noqa: E402
from noma_fair.rates import AllocationSource  # noqa: E402

STRATEGIES = [s.value for s in netsim.Strategy]

# Decision function each strategy calls per candidate, as netsim uses them.
DECISIONS = {
    "optimal": ("allocator.solve_optimal", allocator.solve_optimal),
    "suboptimal": ("allocator.solve_suboptimal", allocator.solve_suboptimal),
    "upper_bound": (
        "allocator.allocate_fixed_bound",
        lambda link, _: allocator.allocate_fixed_bound(link, AllocationSource.UPPER_BOUND),
    ),
    "lower_bound": (
        "allocator.allocate_fixed_bound",
        lambda link, _: allocator.allocate_fixed_bound(link, AllocationSource.LOWER_BOUND),
    ),
    "near_far": ("pairing.near_far_decision", lambda link, _: pairing.near_far_decision(link)),
    "oma": None,
}

PER_CALL_US = (
    "pairing.candidate_pairs",
    "pairing.near_far_decision",
    "bounds.pairing_criterion",
    "bounds.allocation_bounds",
    "allocator.solve_optimal",
    "allocator.solve_suboptimal",
    "allocator.allocate_fixed_bound",
    "rates.noma_rates",
    "rates.oma_rate",
    "fairness.alpha_throughput",
)

# Default-window trials that give the netsim metrics of a workload that
# never calls netsim (the split sweep).
PROBE = Campaign(
    name="probe", area_km2=1.0, alphas=(1,), betas=(0.04,), strategies=tuple(STRATEGIES)
)


class Tracer:
    """Spans (name, start, end, parent index) kept in memory."""

    def __init__(self):
        self.spans: list = []
        self._open = [-1]

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1]
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def duration(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return end - start

    def by_name(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def child_time(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for _, start, end, parent in self.spans:
            out[parent] = out.get(parent, 0.0) + (end - start)
        return out


def _mean(values):
    return float(np.mean(values)) if values else None


def replay(users, strategy: str, fair, beta: float, tr: Tracer):
    """`evaluate_strategies` for one strategy, with a span per layer call."""
    cells: dict[int, list] = {}
    for u in users:
        cells.setdefault(u.serving_bs_id, []).append(u)
    decide = DECISIONS[strategy]
    strong, weak, oma, t, asr = [], [], [], [], []
    pairs = 0
    for bs_id in sorted(cells):
        with tr.span("pairing.candidate_pairs"):
            cands, singles = pairing.candidate_pairs(cells[bs_id])
        links = [rates.PairLink(gamma_s=s.gamma, gamma_w=w.gamma, beta=beta) for s, w in cands]
        oma_pairs = []
        for s, w in cands:
            with tr.span("rates.oma_rate"):
                ros = rates.oma_rate(s.gamma)
            with tr.span("rates.oma_rate"):
                row = rates.oma_rate(w.gamma)
            oma_pairs.append((ros, row))
        single_rates = []
        for u in singles:
            with tr.span("rates.oma_rate"):
                single_rates.append(rates.oma_rate(u.gamma))
        for link, (ros, row) in zip(links, oma_pairs):
            decision = None
            if decide is not None:
                with tr.span(decide[0]):
                    decision = decide[1](link, fair)
            if decision is not None and decision.mode is allocator.DecisionMode.NOMA_PAIRED:
                with tr.span("rates.noma_rates"):
                    r_s, r_w = rates.noma_rates(link, decision.allocation)
                pairs += 1
            else:
                r_s, r_w = ros, row
                oma.extend((ros, row))
            strong.append(r_s)
            weak.append(r_w)
            with tr.span("fairness.alpha_throughput"):
                t.append(fairness.alpha_throughput(r_s, r_w, fair.alpha))
            asr.append(r_s + r_w)
        for r in single_rates:
            oma.append(r)
            t.append(r)
            asr.append(r)
    return netsim.StrategyMetrics(
        mean_strong_rate=_mean(strong),
        mean_weak_rate=_mean(weak),
        mean_oma_rate=_mean(oma),
        mean_t_alpha=_mean(t),
        mean_asr=_mean(asr),
        pair_count=pairs,
        oma_count=len(users) - 2 * pairs,
    )


def gate(links, tr: Tracer) -> dict:
    """Admission gate of every link, with rejections counted by reason."""
    counts = {"candidates": len(links), "rejected_criterion": 0, "rejected_beta": 0}
    for link in links:
        with tr.span("bounds.pairing_criterion"):
            crit = bounds.pairing_criterion(link.gamma_s, link.gamma_w)
        with tr.span("bounds.allocation_bounds"):
            bounds.allocation_bounds(link)
        if not crit.satisfied:
            counts["rejected_criterion"] += 1
        elif link.beta >= crit.beta_star:
            counts["rejected_beta"] += 1
    return counts


class Run:
    """One traced pass over a workload's sample."""

    def __init__(self, out: Path):
        self.tr = Tracer()
        self.out = out
        self.counts: dict = {"trials": [], "points": {}}
        self.mismatches: list[str] = []
        self.checked = 0
        self.eval_spans: dict[str, list[int]] = {s: [] for s in STRATEGIES}
        self.replay_spans: dict[str, list[int]] = {s: [] for s in STRATEGIES}
        self.matrix_entries: list[int] = []
        self.trial_cost: list[float] = []
        self.extra: dict[str, float] = {}
        self.first_candidates: list = []

    def network(self, wl: Campaign, seed: int, trials: int) -> None:
        tr = self.tr
        cfg = netsim.NetworkConfig(area_km2=wl.area_km2, seed=seed, trials=trials)
        for t in range(trials):
            with tr.span("netsim.drop_network") as i_drop:
                net = netsim.drop_network(cfg, t)
            with tr.span("netsim.compute_sinrs") as i_sinr:
                users = netsim.compute_sinrs(net, cfg)
            self.matrix_entries.append(len(net.user_xy) * len(net.bs_xy))
            cost = tr.duration(i_drop) + tr.duration(i_sinr)
            cells: dict[int, list] = {}
            for u in users:
                cells.setdefault(u.serving_bs_id, []).append(u)
            cands, singles = [], []
            for bs_id in sorted(cells):
                c, s = pairing.candidate_pairs(cells[bs_id])
                cands += c
                singles += s
            if t == 0:
                self.first_candidates = cands
            self.counts["trials"].append({
                "trial": t, "users": len(net.user_xy), "stations": len(net.bs_xy),
                "candidates": len(cands), "singles": len(singles),
                "resamples": net.resamples, "clamped_links": net.clamped_links,
            })
            for alpha, beta in ((a, b) for a in wl.alphas for b in wl.betas):
                fair = fairness.FairnessConfig(alpha=alpha)
                links = [rates.PairLink(gamma_s=s.gamma, gamma_w=w.gamma, beta=beta) for s, w in cands]
                point = gate(links, tr)
                for strategy in STRATEGIES:
                    with tr.span(f"netsim.evaluate_strategies.{strategy}") as i_eval:
                        got = netsim.evaluate_strategies(
                            users, [netsim.Strategy(strategy)], fair, beta
                        ).per_strategy[netsim.Strategy(strategy)]
                    with tr.span("replay") as i_replay:
                        again = replay(users, strategy, fair, beta, tr)
                    self.eval_spans[strategy].append(i_eval)
                    self.replay_spans[strategy].append(i_replay)
                    self.checked += 1
                    if again != got:
                        self.mismatches.append(f"trial {t} alpha={alpha} beta={beta} {strategy}: {again} != {got}")
                    point[f"admitted.{strategy}"] = got.pair_count
                    if strategy in wl.strategies:
                        cost += tr.duration(i_eval)
                self.counts["points"][f"trial={t} alpha={alpha} beta={beta}"] = point
            self.trial_cost.append(cost)

    def campaign(self, wl: Campaign, seed: int, trials: int) -> list:
        """The sample as one `run_campaign` at two workers; returns its rows."""
        cfg = netsim.NetworkConfig(area_km2=wl.area_km2, seed=seed, trials=trials)
        sweep = [(a, b) for a in wl.alphas for b in wl.betas]
        before, start = os.times(), time.perf_counter()
        rows = netsim.run_campaign(cfg, sweep, [netsim.Strategy(s) for s in wl.strategies], threads=2)
        wall, after = time.perf_counter() - start, os.times()
        self.extra["netsim.run_campaign.idle_frac_2w"] = 1.0 - (sum(after[:4]) - sum(before[:4])) / (2.0 * wall)
        return rows

    def emit(self, rows) -> None:
        paths = (self.out / "traced.csv", self.out / "traced.json")
        with self.tr.span("report.emit_campaign_csv"):
            report.emit_campaign_csv(rows, paths[0])
        with self.tr.span("report.emit_campaign_json"):
            report.emit_campaign_json(rows, paths[1])
        self.extra["report.bytes_written"] = float(sum(p.stat().st_size for p in paths))

    def delta_sweep(self, links_db, betas, alphas):
        with self.tr.span("report.emit_delta_sweep"):
            return report.emit_delta_sweep(
                links_db, betas, alphas, solver=AllocationSource.SUBOPTIMAL
            )

    def sweep_links(self, links_db, betas, alphas, rows) -> None:
        """The sweep's scalar pair path, replayed per (link, beta, alpha)."""
        tr = self.tr
        emitted = {
            (r.gamma_s_db, r.beta, r.alpha): r.value for r in rows if r.metric == "delta_s"
        }
        for gs_db, gw_db in links_db:
            gs, gw = rates.db_to_linear(gs_db), rates.db_to_linear(gw_db)
            star = bounds.beta_star(gs, gw)
            for entry in betas:
                if entry == report.BETA_STAR_TOKEN and star <= 0:
                    continue
                beta = star * (1.0 - 1e-9) if entry == report.BETA_STAR_TOKEN else float(entry)
                link = rates.PairLink(gamma_s=gs, gamma_w=gw, beta=beta)
                g = gate([link], tr)
                with tr.span("rates.oma_rate"):
                    ros = rates.oma_rate(gs)
                with tr.span("rates.oma_rate"):
                    row = rates.oma_rate(gw)
                for alpha in alphas:
                    fair = fairness.FairnessConfig(alpha=float(alpha))
                    key = f"alpha={alpha} beta={entry}"
                    point = self.counts["points"].setdefault(
                        key, {"candidates": 0, "rejected_criterion": 0, "rejected_beta": 0}
                    )
                    for k in ("candidates", "rejected_criterion", "rejected_beta"):
                        point[k] += g[k]
                    for strategy, decide in DECISIONS.items():
                        if decide is None:
                            continue
                        with tr.span(decide[0]):
                            decision = decide[1](link, fair)
                        admitted = decision.mode is allocator.DecisionMode.NOMA_PAIRED
                        point[f"admitted.{strategy}"] = point.get(f"admitted.{strategy}", 0) + admitted
                        if strategy == "suboptimal":
                            self.checked += 1
                            want = emitted.get((float(gs_db), beta, float(alpha)))
                            got = decision.allocation.delta_s if admitted else None
                            if got != want:
                                self.mismatches.append(f"{key} gamma_s_db={gs_db}: {got} != {want}")
                        if admitted:
                            with tr.span("rates.noma_rates"):
                                r_s, r_w = rates.noma_rates(link, decision.allocation)
                        else:
                            r_s, r_w = ros, row
                        with tr.span("fairness.alpha_throughput"):
                            fairness.alpha_throughput(r_s, r_w, fair.alpha)

    def metrics(self) -> dict[str, tuple[float, str]]:
        tr = self.tr
        by_name = tr.by_name()
        child = tr.child_time()
        med = statistics.median
        out = {
            "netsim.drop_network.ms": (1e3 * med(by_name["netsim.drop_network"]), "ms"),
            "netsim.compute_sinrs.ms": (1e3 * med(by_name["netsim.compute_sinrs"]), "ms"),
            "netsim.compute_sinrs.matrix_entries": (float(med(self.matrix_entries)), "count"),
            # Computed, not measured: one float64 users x stations matrix.
            "netsim.compute_sinrs.matrix_bytes": (8.0 * med(self.matrix_entries), "bytes"),
        }
        evals = replays = 0.0
        for s in STRATEGIES:
            e = [tr.duration(i) for i in self.eval_spans[s]]
            # Glue is a small difference of two large times, so it is taken
            # from their totals: the mean per call, not the median.
            glue = sum(e) - sum(child.get(j, 0.0) for j in self.replay_spans[s])
            out[f"netsim.evaluate_strategies.{s}.ms"] = (1e3 * med(e), "ms")
            out[f"netsim.evaluate_strategies.{s}.glue_ms"] = (1e3 * glue / len(e), "ms")
            evals += sum(e)
            replays += sum(tr.duration(j) for j in self.replay_spans[s])
        chunks = [sum(self.trial_cost[i] for i in part) for part in np.array_split(np.arange(len(self.trial_cost)), 2) if len(part)]
        out["netsim.run_campaign.idle_frac_2w"] = (self.extra["netsim.run_campaign.idle_frac_2w"], "frac")
        out["netsim.run_campaign.chunk_imbalance"] = (max(chunks) / statistics.fmean(chunks), "ratio")
        for name in PER_CALL_US:
            out[f"{name}.us"] = (1e6 * med(by_name[name]), "us")
        for name in ("report.emit_campaign_csv", "report.emit_campaign_json", "report.emit_delta_sweep"):
            out[f"{name}.ms"] = (1e3 * med(by_name[name]), "ms")
        out["report.bytes_written"] = (self.extra["report.bytes_written"], "bytes")
        # Replay time over the untraced evaluate_strategies time of the same work.
        out["trace.overhead_frac"] = (replays / evals - 1.0, "frac")
        return out


def traced_pass(wl, seed: int, smoke: bool, out: Path) -> Run:
    run = Run(out)
    rng = random.Random(f"{wl.name}/{seed}")
    inputs = wl.inputs(rng, smoke)
    trials = 1 if smoke else TRACED_TRIALS
    if isinstance(wl, Campaign):
        run.network(wl, inputs["seed"], trials)
        run.emit(run.campaign(wl, inputs["seed"], trials))
        links_db = [
            (rates.linear_to_db(s.gamma), rates.linear_to_db(w.gamma)) for s, w in run.first_candidates
        ]
        run.delta_sweep(links_db, list(wl.betas), list(wl.alphas))
    else:
        links_db = [(float(v), inputs["gamma_w_db"]) for v in wl.grid(inputs)]
        rows = run.delta_sweep(links_db, list(wl.betas), list(wl.alphas))
        run.emit(rows)
        run.sweep_links(links_db, list(wl.betas), list(wl.alphas), rows)
        probe_seed = random.Random(f"probe/{seed}").randrange(2, 2**31)
        run.network(PROBE, probe_seed, trials)
        run.campaign(PROBE, probe_seed, trials)
    return run


def main(argv: list[str]) -> int:
    name, seed, work, outdir = argv[0], int(argv[1]), Path(argv[2]), Path(argv[3])
    smoke = "--smoke" in argv[4:]
    wl = WORKLOADS[name]
    passes = [traced_pass(wl, seed, smoke, work) for _ in range(2)]
    problems = [m for p in passes for m in p.mismatches]
    attempted = sum(p.checked for p in passes) + 3
    failed = len(problems)
    ref_out = work / "reference"
    ok, _, _ = Invoker().run(wl.commands(wl.reference_inputs(), 1, ref_out))
    got = [digest(p) for p in wl.artifacts(ref_out)] if ok else []
    if got != json.loads(REFERENCE_FILE.read_text())[name]:
        failed += 1
        problems.append(f"reference artifacts differ: {got}")
    if passes[0].counts != passes[1].counts:
        failed += 1
        problems.append("counts differ between the two traced passes")
    counts_file = outdir / f"counts-{name}-seed{seed}{'-smoke' if smoke else ''}.json"
    if counts_file.exists() and json.loads(counts_file.read_text()) != passes[1].counts:
        failed += 1
        problems.append(f"counts differ from the earlier traced run in {counts_file.name}")
    counts_file.write_text(json.dumps(passes[1].counts, indent=1, sort_keys=True) + "\n")
    final = passes[1]
    spans_file = outdir / f"spans-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": final.tr.spans}))
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": final.metrics(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
