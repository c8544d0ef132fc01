"""Stochastic-geometry Monte Carlo harness.

Base stations and users are dropped as independent Poisson point processes
on a square window with toroidal wrap-around (standard practice to avoid
boundary bias).  Channel gain to every station is log-distance pathloss
times unit-mean exponential (Rayleigh power) fading, the one fading model;
:class:`NetworkConfig` holds every setting.  Users associate with the
station offering the maximum SINR, and every non-serving station interferes
at full power on the shared subchannel.  Received powers are computed for
row blocks of users, so no users x stations matrix is built.  A trial's
users are one record table (:func:`noma_fair.pairing.user_table`): id,
serving station, SINR and channel gain.

Within a trial every strategy consumes the identical channel realization
and the identical candidate pairs, so strategy comparisons are
paired-sample: candidates rejected by a gated strategy contribute their
members' OMA rates, the pure-OMA strategy rejects everything.  Per-pair
metrics (strong/weak rate, pair throughput, pair sum rate) are therefore
directly comparable across strategies row by row.

A chunk of trials is one call that returns each trial's alphas x betas x
strategies x metrics table: candidates are matched
(:func:`noma_fair.pairing.match`) in cells keyed by (trial, cell), their OMA
rates computed and their links gated (:func:`noma_fair.allocator.gate`) once,
against a column of the campaign's betas; every strategy is split
(:func:`noma_fair.allocator.split`) once per alpha, the served rates
(:func:`noma_fair.allocator.served_rates`) and power means run once over the
stack; each trial's means are taken on its own slots, its OMA rates once per
served-OMA mask.  The campaign, an alphas x betas grid, runs its first share
of trials in the parent beside forked children for the others, one share per
worker up to ``threads`` and each share at least one chunk budget of work,
stacks the tables in trial order and reduces their columns once per NaN pattern.

All randomness is derived from (master seed, trial index) substreams;
trials are independent and may run in separate processes without changing
any output.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass, fields
from functools import partial
from itertools import compress, product
from typing import Optional, Sequence

import numpy as np

from .allocator import _SCAN_POINTS, gate, served_rates, split
from .fairness import FairnessConfig, alpha_throughput
from .pairing import match, user_table
from .rates import Strategy, _require_beta, _require_positive_finite, db_to_linear, oma_rate
from .report import ResultRow, _require_distinct, _rows

__all__ = [
    "NetworkConfig",
    "NetworkRealization",
    "Strategy",
    "StrategyMetrics",
    "TrialMetrics",
    "drop_network",
    "compute_sinrs",
    "evaluate_strategies",
    "run_campaign",
]

# Substream tags under (seed, trial_index, tag).
_GEOMETRY_STREAM = 0
_FADING_STREAM = 1

# compute_sinrs takes users in row blocks of about this many (user, station)
# entries, so that a block's float64 buffers stay in cache.
_BLOCK_ENTRIES = 1 << 14
# A campaign's parent and forked children run their shares of trials in chunks of about this many
# (sweep point x strategy x user) entries at the mean user count, which bounds a chunk's stacked tables;
# a share is forked only when it holds at least this much work.
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class NetworkConfig:
    """The radio model and campaign size; each field is its config key."""

    bs_density: float = 25.0  # stations per km^2
    user_density: float = 120.0  # users per km^2
    area_km2: float = 1.0
    tx_power_dbm: float = 46.0
    noise_power_dbm: float = -95.0  # -174 dBm/Hz over 10 MHz + 9 dB noise figure
    # PL(dB) = intercept + slope * log10(d_km), d clamped up to the min distance.
    pathloss_intercept_db: float = 128.1
    pathloss_slope_db: float = 37.6
    pathloss_min_distance_km: float = 1e-3
    trials: int = 100
    seed: int = 1

    def __post_init__(self) -> None:
        positive = ("bs_density", "user_density", "area_km2", "pathloss_min_distance_km")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in positive:
                _require_positive_finite(f.name, value)
            elif isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        _require_positive_finite("tx_power_dbm in mW", db_to_linear(self.tx_power_dbm))
        _require_positive_finite("noise_power_dbm in mW", db_to_linear(self.noise_power_dbm))
        # A user at the minimum distance, with unit fading and no interference, must get a positive OMA rate.
        snr_db = self.tx_power_dbm - self.noise_power_dbm - self.pathloss_intercept_db
        snr_db -= self.pathloss_slope_db * math.log10(self.pathloss_min_distance_km)
        if 1.0 + db_to_linear(snr_db) == 1.0:
            raise ValueError("tx_power_dbm - noise_power_dbm - pathloss_intercept_db - pathloss_slope_db * log10("
                             f"pathloss_min_distance_km) = {snr_db:.6g} dB leaves a user at that distance an OMA rate of 0")
        mean_stations = self.bs_density * self.area_km2  # a drop takes about 1 / mean_stations draws
        if mean_stations < 1e-3:
            raise ValueError(f"bs_density * area_km2 must be >= 0.001, got {mean_stations!r}")
        for key, low in (("trials", 1), ("seed", 0)):  # a bool is an int, but not a count or a seed
            if isinstance(value := getattr(self, key), bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")


@dataclass
class NetworkRealization:
    """One trial's station and user positions (km) on the toroidal window."""

    bs_xy: np.ndarray
    user_xy: np.ndarray
    side_km: float
    seed: int
    trial_index: int
    resamples: int = 0
    clamped_links: int = 0


@dataclass(frozen=True)
class StrategyMetrics:
    """Per-trial, per-strategy aggregates over the shared candidate pairs.

    Rate means are over candidate pairs with each member's *achieved* rate
    (NOMA when the strategy admitted the candidate, OMA otherwise), so the
    same field compares like-for-like across strategies.  ``mean_oma_rate``
    averages the OMA rate of the users this strategy serves as OMA; it is
    None when the strategy paired everyone.
    """

    mean_strong_rate: Optional[float]
    mean_weak_rate: Optional[float]
    mean_oma_rate: Optional[float]
    mean_t_alpha: Optional[float]
    mean_asr: Optional[float]
    pair_count: int
    oma_count: int


@dataclass(frozen=True)
class TrialMetrics:
    population: int
    per_strategy: dict[Strategy, StrategyMetrics]

    def __post_init__(self) -> None:
        for strat, m in self.per_strategy.items():
            if 2 * m.pair_count + m.oma_count != self.population:
                raise ValueError(
                    f"{strat.value}: pair/oma counts do not cover the population"
                )


def drop_network(cfg: NetworkConfig, trial_index: int) -> NetworkRealization:
    """Realize Poisson station and user counts with uniform positions.

    Deterministic given (cfg.seed, trial_index).  A draw with zero stations
    is resampled from a fresh substream and counted in ``resamples``.
    """
    side = math.sqrt(cfg.area_km2)
    attempt = 0
    while True:
        rng = np.random.default_rng([cfg.seed, trial_index, _GEOMETRY_STREAM, attempt])
        n_bs = int(rng.poisson(cfg.bs_density * cfg.area_km2))
        if n_bs > 0:
            break
        attempt += 1
    n_users = int(rng.poisson(cfg.user_density * cfg.area_km2))
    bs_xy = rng.uniform(0.0, side, size=(n_bs, 2))
    user_xy = rng.uniform(0.0, side, size=(n_users, 2))
    return NetworkRealization(
        bs_xy=bs_xy,
        user_xy=user_xy,
        side_km=side,
        seed=cfg.seed,
        trial_index=trial_index,
        resamples=attempt,
    )


def compute_sinrs(network: NetworkRealization, cfg: NetworkConfig) -> np.recarray:
    """Associate users by maximum SINR and return their user table.

    For a fixed row total S the SINR p / (N + S - p) rises strictly with the
    received power p, so the maximum-SINR station is the maximum-power one
    and no SINR matrix is needed.  Association ties go to the lowest station
    id.  The reported channel gain is pathloss times fading toward the
    serving station (transmit power excluded).

    Users go in row blocks of about ``_BLOCK_ENTRIES`` entries, computed in
    place in buffers reused across blocks, so memory is bounded by the block,
    not by users x stations.  The fading draws continue block after block in
    the trial's one substream, and every entry and row sum goes through the
    full-matrix form's operations, so the result is bit-identical to it.
    """
    n_users, n_bs = len(network.user_xy), len(network.bs_xy)
    tx_mw = db_to_linear(cfg.tx_power_dbm)
    noise_mw = db_to_linear(cfg.noise_power_dbm)
    rng = np.random.default_rng([network.seed, network.trial_index, _FADING_STREAM])
    step = max(1, _BLOCK_ENTRIES // n_bs)
    buffers = np.empty((3, min(step, n_users), n_bs))
    serving = np.empty(n_users, dtype=np.intp)
    power = np.empty(n_users)
    interference = np.empty(n_users)
    network.clamped_links = 0
    for lo in range(0, n_users, step):
        block = slice(lo, lo + step)
        users = network.user_xy[block]
        p, dy, scratch = buffers[:, : len(users)]
        # Wrap-around distance, one axis at a time.
        for d, axis in ((p, 0), (dy, 1)):
            np.subtract(users[:, axis, None], network.bs_xy[:, axis], out=d)
            np.abs(d, out=d)
            np.subtract(network.side_km, d, out=scratch)
            np.minimum(d, scratch, out=d)
        np.hypot(p, dy, out=p)
        network.clamped_links += int(np.count_nonzero(p < cfg.pathloss_min_distance_km))
        # Received power tx_mw * 10^(-PL(d) / 10) * fading, PL(d) in dB.
        np.maximum(p, cfg.pathloss_min_distance_km, out=p)
        np.log10(p, out=p)
        np.multiply(cfg.pathloss_slope_db, p, out=p)
        np.add(cfg.pathloss_intercept_db, p, out=p)
        np.negative(p, out=p)
        np.divide(p, 10.0, out=p)
        np.power(10.0, p, out=p)
        p *= rng.exponential(size=p.shape)
        np.multiply(tx_mw, p, out=p)
        rows, best = np.arange(len(users)), np.argmax(p, axis=1)
        serving[block], power[block] = best, p[rows, best]
        # Sum the non-serving columns directly; the error stays relative to the
        # interference instead of to the (possibly dominant) serving power.
        p[rows, best] = 0.0
        p.sum(axis=1, out=interference[block])
    return user_table(np.arange(n_users), serving, power / (noise_mw + interference), power / tx_mw)


def _means(x: np.ndarray):
    """The mean along the last axis; NaN where it holds no values."""
    return x.mean(axis=-1) if x.shape[-1] else np.full(x.shape[:-1], np.nan)


def _trial_tables(
    chunk: Sequence[np.ndarray], strategies: Sequence[Strategy], fairs: Sequence[FairnessConfig],
    betas: Sequence[float],
) -> np.ndarray:
    """Each trial's (alphas x betas x strategies x 6) table, for a chunk of
    user tables: per sweep point, a row per strategy with the five means in
    :class:`StrategyMetrics` field order, NaN where a mean has no values,
    then the pair count.

    The candidates are matched and gated once, against a column of the betas,
    and each strategy is split once per alpha.  Users sit in slots: trials,
    then cells ascending, and within a cell its candidates, then its odd user
    out.  Each trial's means run over its own slots, in slot order.
    """
    users = np.concatenate(chunk)
    trial = np.repeat(np.arange(len(chunk)), [len(u) for u in chunk])
    users["serving_bs_id"] += trial * (users["serving_bs_id"].max(initial=-1) + 1)  # cells keyed by (trial, cell)
    gamma = users["gamma"]
    strong, weak = match(users)
    single = weak < 0
    paired = ~single
    rate = oma_rate(gamma)
    # Each slot's OMA rates: (strong, weak) of a candidate, (rate, unused) of a single.
    oma = np.column_stack((rate[strong], np.where(single, 0.0, rate[weak])))
    present = np.column_stack((np.ones_like(single), paired))
    g = gate(gamma[strong[paired]], gamma[weak[paired]], np.asarray(betas, dtype=float)[:, None])
    delta = np.stack([[split(g, strat, fairness) for strat in strategies] for fairness in fairs])
    admitted = ~np.isnan(delta)
    served = np.stack(served_rates(g, delta, oma[paired, 0], oma[paired, 1]))
    # Per slot; a single rate is its own power mean and sum.
    points = delta.shape[:3]
    t, asr = t_asr = np.empty((2, *points, len(single)))
    t[..., paired] = [alpha_throughput(rs, rw, fairness.alpha) for fairness, rs, rw in zip(fairs, *served)]
    asr[..., paired] = served[0] + served[1]
    t[..., single] = asr[..., single] = oma[single, 0]
    served_oma = np.broadcast_to(single, t.shape).copy()
    served_oma[..., paired] = ~admitted
    # Each trial's range of slots and of links (paired slots).
    slots = np.searchsorted(trial[strong], np.arange(len(chunk) + 1))
    links = np.cumsum(np.r_[0, paired])[slots]
    spans = list(zip(slots, slots[1:], links, links[1:]))
    table = np.empty((len(chunk), 6, *points))
    for k, (lo, hi, a, b) in enumerate(spans):
        table[k, :2], table[k, 3:5] = _means(served[..., a:b]), _means(t_asr[..., lo:hi])
        table[k, 5] = np.count_nonzero(admitted[..., a:b], axis=-1)
    # At a beta every gated strategy serves the same users OMA: gather each distinct row once.
    masks: dict[bytes, tuple] = {}
    for i, row in enumerate(served_oma.reshape(math.prod(points), -1)):
        masks.setdefault(row.tobytes(), (present & row[:, None], []))[1].append(i)
    mur_oma = np.empty((len(chunk), math.prod(points)))
    for mask, rows in masks.values():
        mur_oma[:, rows] = [[_means(oma[lo:hi][mask[lo:hi]])] for lo, hi, _, _ in spans]
    table[:, 2] = mur_oma.reshape(-1, *points)
    return table.transpose(0, 2, 4, 3, 1)


def evaluate_strategies(
    users: np.ndarray,
    strategies: Sequence[Strategy],
    fairness: FairnessConfig,
    beta: float,
) -> TrialMetrics:
    """Run every strategy on one channel realization and aggregate metrics.

    The object view of :func:`_trial_tables` of this one trial at one sweep
    point, None where a mean has no values; the campaign reads the table itself.
    """
    strategies = list(dict.fromkeys(strategies))
    table, per_strategy = _trial_tables([users], strategies, [fairness], [beta])[0, 0, 0], {}
    for strat, (*means, pairs) in zip(strategies, table.tolist()):
        means = [None if math.isnan(m) else m for m in means]
        per_strategy[strat] = StrategyMetrics(*means, int(pairs), len(users) - 2 * int(pairs))
    return TrialMetrics(len(users), per_strategy)


# Campaign metric of each mean column of a trial's table.
_METRICS = ("mur_strong", "mur_weak", "mur_oma", "t_alpha", "mean_asr")


def _trial(cfg: NetworkConfig, strategies, fairs, betas, t: int) -> np.ndarray:
    """Trial t's table, from :func:`_trial_tables` of it alone, after each sweep
    point alone.  A failure is re-raised naming the trial index and, past the
    SINRs, its sweep point: the first, alpha-major, that fails on its own."""
    point = ""  # the drop and SINRs serve every sweep point
    try:
        users = compute_sinrs(drop_network(cfg, t), cfg)
        for fairness, beta in product(fairs, betas):
            point = f", alpha={fairness.alpha}, beta={beta}"
            _trial_tables([users], strategies, [fairness], [beta])
        point = ""
        return _trial_tables([users], strategies, fairs, betas)[0]
    except Exception as exc:
        raise RuntimeError(f"trial {t}{point}: {exc}") from exc


def _chunk(cfg: NetworkConfig, strategies, fairs, betas, trials: range) -> np.ndarray:
    """Worker: the tables of a run of trials, from one kernel call.  A failure
    re-runs them one at a time through :func:`_trial`, which names the first that fails."""
    try:
        return _trial_tables([compute_sinrs(drop_network(cfg, t), cfg) for t in trials], strategies, fairs, betas)
    except Exception:
        return np.stack([_trial(cfg, strategies, fairs, betas, t) for t in trials])


def _aggregate(columns: np.ndarray) -> tuple[list, list, list]:
    """Each row's mean, count and stderr of its values that are not NaN (NaN, 0, NaN without any), reduced
    once per NaN pattern on a C-contiguous block, which gives the bits of each row's own reduction."""
    present = ~np.isnan(columns)
    means, stderrs = np.full((2, len(columns)), np.nan)
    groups: dict[bytes, list[int]] = {}
    for i, key in enumerate(map(bytes, np.packbits(present, axis=1))):
        groups.setdefault(key, []).append(i)
    for idx in groups.values():
        block = np.ascontiguousarray(columns[idx][:, present[idx[0]]])
        if n := block.shape[1]:
            means[idx] = block.mean(axis=1)
            stderrs[idx] = block.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return means.tolist(), np.count_nonzero(present, axis=1).tolist(), stderrs.tolist()


def _run_shares(run, shares: list[list[range]]) -> list[np.ndarray]:
    """``run`` of each share's chunks, in order: the first share here, each other one in a forked child.
    A failure kills the children whose results are not yet read."""
    children: dict[int, int] = {}  # read end -> pid
    read = 0  # children whose results are read
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:  # no child holds the pipe
                os.close(r)
                os.close(w)
                raise
            if not pid:
                try:  # the child, which never returns
                    os.close(r)
                    try:
                        result = True, list(map(run, share))
                    except Exception as exc:
                        result = False, exc
                    with open(w, "wb") as pipe:
                        pickle.dump(result, pipe)
                finally:
                    os._exit(0)
            os.close(w)
            children[r] = pid
        tables = list(map(run, shares[0]))
        for r, share in zip(children, shares[1:]):  # failures re-raise in trial order
            data = open(r, "rb", closefd=False).read()
            read += 1
            missing = RuntimeError(f"trials {share[0].start}-{share[-1].stop - 1}: worker left no result")
            ok, result = pickle.loads(data) if data else (False, missing)
            if not ok:
                raise result
            tables += result
        return tables
    finally:
        for r in children:
            os.close(r)
        for pid in list(children.values())[read:]:  # after a failure: their tables are not needed
            os.kill(pid, signal.SIGKILL)
        for pid in children.values():
            os.waitpid(pid, 0)


def _require_threads(threads: int) -> None:
    """Raise ValueError unless the worker count is at least 1."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")


def _campaign_table(cfg: NetworkConfig, sweep, strategies, tau: float, threads: int) -> list[list]:
    """The row table of :func:`run_campaign`."""
    if not sweep or not strategies:
        raise ValueError("sweep and strategies must be non-empty")
    _require_beta(sorted({b for _, b in sweep}), "betas")
    strategies = list(strategies)
    _require_distinct("strategy", [s.value for s in strategies], strategies)
    alphas, betas = (list(dict.fromkeys(axis)) for axis in zip(*sweep))
    if list(map(tuple, sweep)) != list(product(alphas, betas)):
        raise ValueError(f"sweep must be the alpha-major grid of alphas {alphas} x betas {betas}")
    _require_distinct("alpha", alphas, alphas)
    _require_distinct("beta", betas, betas)
    fairs = [FairnessConfig(alpha=a, tau=tau) for a in alphas]
    _require_threads(threads)
    # One contiguous share of trials per worker, in chunks of about _CHUNK_ENTRIES entries: a
    # trial stacks its mean user count of entries per point and strategy, and its table 6 more.
    users = cfg.user_density * cfg.area_km2
    entries = (users + 6) * len(sweep) * len(strategies)
    step = max(1, int(_CHUNK_ENTRIES // entries))
    # A worker is forked only for a share of at least one chunk budget of work, which outweighs its fork: a trial's
    # SINR matrix, its stacked tables and, with optimal, the _SCAN_POINTS that allocator charges per candidate link.
    work = users * cfg.bs_density * cfg.area_km2 + entries
    work += users / 2 * len(sweep) * _SCAN_POINTS if Strategy.OPTIMAL in strategies else 0
    workers = max(1, min(threads, cfg.trials, int(cfg.trials * work // _CHUNK_ENTRIES)))
    workers = workers if sys.platform == "linux" else 1  # fork after NumPy's import: Linux only
    shares = [range(cfg.trials * k // workers, cfg.trials * (k + 1) // workers) for k in range(workers)]
    chunks = [[share[i : i + step] for i in range(0, len(share), step)] for share in shares]
    table = np.concatenate(_run_shares(partial(_chunk, cfg, strategies, fairs, betas), chunks))
    # Each (point, strategy, metric)'s column of trials, in row order.
    columns = np.moveaxis(table[..., : len(_METRICS)], 0, -1).reshape(-1, len(table))
    means, counts, stderrs = _aggregate(columns)
    point, strategy, metric = np.unravel_index(np.flatnonzero(counts), (len(sweep), len(strategies), len(_METRICS)))
    if not len(point):
        raise ValueError(f"all {cfg.trials} trials dropped zero users; no metric to report")
    none = (np.zeros(len(point), dtype=np.intp), [None])  # no SINRs; the kept rows' indexes code the other keys
    return [*((point, list(axis)) for axis in zip(*sweep)), none, none, (strategy, [s.value for s in strategies]),
            (metric, list(_METRICS)), *(list(compress(column, counts)) for column in (means, counts, stderrs))]


def run_campaign(
    cfg: NetworkConfig,
    sweep: Sequence[tuple[float, float]],
    strategies: Sequence[Strategy],
    tau: float = FairnessConfig.tau,
    threads: int = 1,
) -> list[ResultRow]:
    """Average per-trial metrics over cfg.trials for every (alpha, beta) point.

    ``sweep`` must be ``[(a, b) for a in alphas for b in betas]`` of its
    distinct alphas and betas, and the strategies distinct.  The channel
    realization of trial t is shared by all sweep points, and aggregation
    runs in trial order, so the result is bit-identical for any ``threads``
    and chunking: the parent runs the first of at most ``threads`` contiguous shares
    of trials beside forked children for the others (Linux only), in chunks of one kernel call;
    a child is forked only for a share of at least one chunk budget of work.
    A failure names the lowest failing trial and its first failing point.
    The object view of the campaign's row table, without the metrics no
    trial has a value for.
    """
    return _rows(_campaign_table(cfg, sweep, strategies, tau, threads))
