"""Stochastic-geometry Monte Carlo harness.

Base stations and users are dropped as independent Poisson point processes
on a square window with toroidal wrap-around (standard practice to avoid
boundary bias).  Channel gain to every station is log-distance pathloss
times unit-mean exponential (Rayleigh power) fading; users associate with
the station offering the maximum SINR, and every non-serving station
interferes at full power on the shared subchannel.  Received powers are
computed for row blocks of users, so no users x stations matrix is built.

Within a trial every strategy consumes the identical channel realization
and the identical candidate pairs, so strategy comparisons are
paired-sample: candidates rejected by a gated strategy contribute their
members' OMA rates, the pure-OMA strategy rejects everything.  Per-pair
metrics (strong/weak rate, pair throughput, pair sum rate) are therefore
directly comparable across strategies row by row.

A trial is evaluated in array form, each quantity at the stage it depends
on: candidates are matched (:func:`noma_fair.pairing.match`) and their
criterion, delta_ub and OMA rates computed once per trial; delta_lb and
admission once per beta (:func:`noma_fair.allocator.gate`); the splits
of every strategy (:func:`noma_fair.allocator.split`), their rates and
means once per sweep point, as one strategies x metrics array.  The
campaign stacks these arrays over trials and aggregates their columns.

All randomness is derived from (master seed, trial index) substreams;
trials are independent and may run in separate processes without changing
any output.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .allocator import Gate, gate, link_facts, split
from .fairness import FairnessConfig, alpha_throughput
from .pairing import UserChannel, match
from .rates import (
    Strategy, _require_positive_finite, db_to_linear, noma_sinr_strong, noma_sinr_weak, oma_rate
)
from .report import ResultRow

__all__ = [
    "PathlossModel",
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


def _check_fields(obj, prefix: str, positive: Sequence[str]) -> None:
    """Reject non-finite float fields and non-positive ``positive`` fields.

    Messages name the field as its config key, ``prefix`` + field name.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name in positive:
            _require_positive_finite(prefix + f.name, value)
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{prefix}{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PathlossModel:
    """Log-distance pathloss PL(dB) = intercept + slope * log10(d_km).

    Distances below ``min_distance_km`` are clamped to it and the clamp is
    counted on the realization.
    """

    name: str = "urban_macro"
    intercept_db: float = 128.1
    slope_db: float = 37.6
    min_distance_km: float = 1e-3

    def __post_init__(self) -> None:
        _check_fields(self, "pathloss_", positive=("min_distance_km",))


@dataclass(frozen=True)
class NetworkConfig:
    bs_density: float = 25.0  # stations per km^2
    user_density: float = 120.0  # users per km^2
    area_km2: float = 1.0
    tx_power_dbm: float = 46.0
    noise_power_dbm: float = -95.0  # -174 dBm/Hz over 10 MHz + 9 dB noise figure
    pathloss: PathlossModel = field(default_factory=PathlossModel)
    fading_scale: float = 1.0  # mean of the exponential power fading
    trials: int = 100
    seed: int = 1

    def __post_init__(self) -> None:
        _check_fields(
            self, "", positive=("bs_density", "user_density", "area_km2", "fading_scale")
        )
        _require_positive_finite("tx_power_dbm in mW", db_to_linear(self.tx_power_dbm))
        _require_positive_finite("noise_power_dbm in mW", db_to_linear(self.noise_power_dbm))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


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


def compute_sinrs(network: NetworkRealization, cfg: NetworkConfig) -> list[UserChannel]:
    """Associate users by maximum SINR and report their link state.

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
    if n_users == 0:
        return []
    pl = cfg.pathloss
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
        network.clamped_links += int(np.count_nonzero(p < pl.min_distance_km))
        # Received power tx_mw * 10^(-PL(d) / 10) * fading, PL(d) in dB.
        np.maximum(p, pl.min_distance_km, out=p)
        np.log10(p, out=p)
        np.multiply(pl.slope_db, p, out=p)
        np.add(pl.intercept_db, p, out=p)
        np.negative(p, out=p)
        np.divide(p, 10.0, out=p)
        np.power(10.0, p, out=p)
        p *= rng.exponential(cfg.fading_scale, size=p.shape)
        np.multiply(tx_mw, p, out=p)
        rows, best = np.arange(len(users)), np.argmax(p, axis=1)
        serving[block], power[block] = best, p[rows, best]
        # Sum the non-serving columns directly; the error stays relative to the
        # interference instead of to the (possibly dominant) serving power.
        p[rows, best] = 0.0
        p.sum(axis=1, out=interference[block])
    gamma = power / (noise_mw + interference)
    gains = power / tx_mw
    return [
        UserChannel(user_id=u, serving_bs_id=s, gamma=g, channel_gain=c)
        for u, (s, g, c) in enumerate(zip(serving.tolist(), gamma.tolist(), gains.tolist()))
    ]


def _means(x: np.ndarray):
    """The mean along the last axis; NaN where it holds no values."""
    return x.mean(axis=-1) if x.shape[-1] else np.full(x.shape[:-1], np.nan)


class _Trial:
    """One channel realization, matched once, evaluated at any sweep point.

    Users sit in slots: cells ascending, and within a cell its candidates,
    then its odd user out.  Every mean runs over its values in slot order.
    """

    def __init__(self, users: Sequence[UserChannel]):
        self.population = len(users)
        gamma = np.array([u.gamma for u in users], dtype=float)
        strong, weak = match(
            [u.serving_bs_id for u in users],
            [u.channel_gain for u in users],
            [u.user_id for u in users],
            gamma,
        )
        self.single = weak < 0
        self.paired = ~self.single
        oma = oma_rate(gamma)
        # Each slot's OMA rates: (strong, weak) of a candidate, (rate, unused) of a single.
        self.oma = np.column_stack((oma[strong], np.where(self.single, 0.0, oma[weak])))
        self.present = np.column_stack((np.ones_like(self.single), self.paired))
        self.oma_strong, self.oma_weak = self.oma[self.paired].T
        self.oma_single = self.oma[self.single, 0]
        self.links = link_facts(gamma[strong[self.paired]], gamma[weak[self.paired]])
        self._gates: dict[float, Gate] = {}

    def evaluate(self, strategies: Sequence[Strategy], fairness: FairnessConfig, beta) -> np.ndarray:
        """One row per strategy: the five means in :class:`StrategyMetrics`
        field order, NaN where a mean has no values, then the pair count."""
        g = self._gates.get(beta)
        if g is None:
            g = self._gates[beta] = gate(self.links, beta)
        gs, gw = self.links.gamma_s, self.links.gamma_w
        delta = np.stack([split(g, strat, fairness)[0] for strat in strategies])
        admitted = ~np.isnan(delta)
        r_s = np.where(admitted, np.log2(1.0 + noma_sinr_strong(gs, beta, delta)), self.oma_strong)
        r_w = np.where(admitted, np.log2(1.0 + noma_sinr_weak(gw, delta)), self.oma_weak)
        # Per slot; a single rate is its own power mean and sum.
        t, asr = np.empty((2, len(delta), len(self.single)))
        t[:, self.paired], asr[:, self.paired] = alpha_throughput(r_s, r_w, fairness.alpha), r_s + r_w
        t[:, self.single] = asr[:, self.single] = self.oma_single
        served_oma = np.repeat(self.single[None], len(delta), axis=0)
        served_oma[:, self.paired] = ~admitted
        # Each row's OMA users differ, so their rates are gathered row by row.
        oma = [_means(self.oma[self.present & row[:, None]]) for row in served_oma]
        return np.column_stack(
            (_means(r_s), _means(r_w), oma, _means(t), _means(asr), np.count_nonzero(admitted, axis=1))
        )


def evaluate_strategies(
    users: Sequence[UserChannel],
    strategies: Sequence[Strategy],
    fairness: FairnessConfig,
    beta: float,
) -> TrialMetrics:
    """Run every strategy on one channel realization and aggregate metrics.

    The object view of :meth:`_Trial.evaluate`'s table, None where a mean
    has no values; the campaign reads the table itself.
    """
    trial, strategies = _Trial(users), list(dict.fromkeys(strategies))
    per_strategy = {}
    for strat, (*means, pairs) in zip(strategies, trial.evaluate(strategies, fairness, beta).tolist()):
        means = [None if math.isnan(m) else m for m in means]
        per_strategy[strat] = StrategyMetrics(*means, int(pairs), trial.population - 2 * int(pairs))
    return TrialMetrics(trial.population, per_strategy)


# Campaign metric of each mean column of a trial's table.
_METRICS = ("mur_strong", "mur_weak", "mur_oma", "t_alpha", "mean_asr")


def _trial_chunk(args) -> np.ndarray:
    """Worker: the (trials x points x strategies x 6) table of a chunk of trials.

    A failure is re-raised naming its trial index and, past the SINRs, its sweep point.
    """
    cfg, points, strategies, indices = args
    table = np.empty((len(indices), len(points), len(strategies), len(_METRICS) + 1))
    for t, rows in zip(indices, table):
        point = ""  # the drop and SINRs serve every sweep point
        try:
            trial = _Trial(compute_sinrs(drop_network(cfg, t), cfg))
            for i, (fairness, beta) in enumerate(points):
                point = f", alpha={fairness.alpha}, beta={beta}"
                rows[i] = trial.evaluate(strategies, fairness, beta)
        except Exception as exc:
            raise RuntimeError(f"trial {t}{point}: {exc}") from exc
    return table


def run_campaign(
    cfg: NetworkConfig,
    sweep: Sequence[tuple[float, float]],
    strategies: Sequence[Strategy],
    tau: float = FairnessConfig.tau,
    solver_tol: float = FairnessConfig.solver_tol,
    threads: int = 1,
) -> list[ResultRow]:
    """Average per-trial metrics over cfg.trials for every (alpha, beta) point.

    The channel realization of trial t is shared by all sweep points, and
    aggregation runs in trial order (chunks are contiguous and come back in
    order), so the result is bit-identical for any ``threads`` setting.  A
    repeated strategy or sweep point is rejected: it would repeat its rows.
    """
    if not sweep or not strategies:
        raise ValueError("sweep and strategies must be non-empty")
    if not all(0.0 <= beta <= 1.0 for _, beta in sweep):
        raise ValueError(f"betas must lie in [0, 1], got {sorted({b for _, b in sweep})}")
    strategies = list(strategies)
    for what, items in ("strategy", [s.value for s in strategies]), ("sweep point", list(map(tuple, sweep))):
        repeated = [x for k, x in enumerate(items) if x in items[:k]]
        if repeated:
            raise ValueError(f"repeated {what} {repeated[0]!r}")
    points = [(FairnessConfig(alpha=a, tau=tau, solver_tol=solver_tol), b) for a, b in sweep]
    workers = max(1, min(int(threads), cfg.trials))
    jobs = [
        (cfg, points, strategies, [int(t) for t in part])
        for part in np.array_split(np.arange(cfg.trials), workers)
    ]
    if workers == 1:
        done = [_trial_chunk(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_trial_chunk, jobs))
    table = np.concatenate(done)
    # Each (point, strategy, metric)'s column of trials, in row order.
    columns = np.moveaxis(table[..., : len(_METRICS)], 0, -1).reshape(-1, len(table))

    rows = []
    for ((alpha, beta), strat, metric), column in zip(product(sweep, strategies, _METRICS), columns):
        values = column[~np.isnan(column)]
        n = len(values)
        if not n:
            continue
        stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        rows.append(ResultRow(alpha, beta, None, None, strat.value, metric, float(values.mean()), n, stderr))
    if not rows:
        raise ValueError(f"all {cfg.trials} trials dropped zero users; no metric to report")
    return rows
