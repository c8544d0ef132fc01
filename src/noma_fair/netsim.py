"""Stochastic-geometry Monte Carlo harness.

Base stations and users are dropped as independent Poisson point processes
on a square window with toroidal wrap-around (standard practice to avoid
boundary bias).  Channel gain to every station is log-distance pathloss
times unit-mean exponential (Rayleigh power) fading; users associate with
the station offering the maximum SINR, and every non-serving station
interferes at full power on the shared subchannel.

Within a trial every strategy consumes the identical channel realization
and the identical candidate pairs, so strategy comparisons are
paired-sample: candidates rejected by a gated strategy contribute their
members' OMA rates, the pure-OMA strategy rejects everything.  Per-pair
metrics (strong/weak rate, pair throughput, pair sum rate) are therefore
directly comparable across strategies row by row.

A trial is evaluated in array form, each quantity at the stage it depends
on: candidates are matched (:func:`noma_fair.pairing.match`) and their
criterion, delta_ub and OMA rates computed once per trial; delta_lb and
admission once per beta (:func:`noma_fair.allocator.gate`); the split,
rates and means once per (alpha, strategy)
(:func:`noma_fair.allocator.split`).

All randomness is derived from (master seed, trial index) substreams;
trials are independent and may run in separate processes without changing
any output.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .allocator import Gate, gate, link_facts, split
from .fairness import FairnessConfig, alpha_throughput
from .pairing import UserChannel, match
from .rates import Strategy, _require_positive_finite, noma_sinr_strong, noma_sinr_weak, oma_rate
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

    def loss_db(self, distance_km):
        d = np.maximum(distance_km, self.min_distance_km)
        return self.intercept_db + self.slope_db * np.log10(d)


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


def toroidal_distances(a_xy: np.ndarray, b_xy: np.ndarray, side: float) -> np.ndarray:
    """Pairwise wrap-around distances, shape (len(a), len(b))."""
    delta = np.abs(a_xy[:, None, :] - b_xy[None, :, :])
    delta = np.minimum(delta, side - delta)
    return np.hypot(delta[..., 0], delta[..., 1])


def received_power_mw(network: NetworkRealization, cfg: NetworkConfig) -> np.ndarray:
    """Per-(user, station) received power in mW, fading included.

    Draws the fading matrix from the trial's dedicated substream, so the
    realization is reproducible independently of how it is consumed.
    """
    dist = toroidal_distances(network.user_xy, network.bs_xy, network.side_km)
    network.clamped_links = int(np.sum(dist < cfg.pathloss.min_distance_km))
    rng = np.random.default_rng([network.seed, network.trial_index, _FADING_STREAM])
    fading = rng.exponential(cfg.fading_scale, size=dist.shape)
    gains = 10.0 ** (-cfg.pathloss.loss_db(dist) / 10.0) * fading
    return 10.0 ** (cfg.tx_power_dbm / 10.0) * gains


def compute_sinrs(network: NetworkRealization, cfg: NetworkConfig) -> list[UserChannel]:
    """Associate users by maximum SINR and report their link state.

    For a fixed row total S the SINR p / (N + S - p) rises strictly with the
    received power p, so the maximum-SINR station is the maximum-power one
    and no SINR matrix is needed.  Association ties go to the lowest station
    id.  The reported channel gain is pathloss times fading toward the
    serving station (transmit power excluded).
    """
    n_users = len(network.user_xy)
    if n_users == 0:
        return []
    prx = received_power_mw(network, cfg)
    noise_mw = 10.0 ** (cfg.noise_power_dbm / 10.0)
    serving = np.argmax(prx, axis=1)
    rows = np.arange(n_users)
    # Sum the non-serving columns directly; the error stays relative to the
    # interference instead of to the (possibly dominant) serving power.
    masked = prx.copy()
    masked[rows, serving] = 0.0
    interference = masked.sum(axis=1)
    gamma = prx[rows, serving] / (noise_mw + interference)
    tx_mw = 10.0 ** (cfg.tx_power_dbm / 10.0)
    gains = prx[rows, serving] / tx_mw
    return [
        UserChannel(
            user_id=int(u),
            serving_bs_id=int(serving[u]),
            gamma=float(gamma[u]),
            channel_gain=float(gains[u]),
        )
        for u in rows
    ]


def _mean(values: np.ndarray) -> Optional[float]:
    return float(np.mean(values)) if len(values) else None


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
        # concat(per-candidate values, per-single values)[slot_order] is in slot order.
        self.slot_order = np.argsort(np.argsort(self.single, kind="stable"))
        oma = oma_rate(gamma)
        # Each slot's OMA rates: (strong, weak) of a candidate, (rate, unused) of a single.
        self.oma = np.column_stack((oma[strong], np.where(self.single, 0.0, oma[weak])))
        self.present = np.column_stack((np.ones_like(self.single), self.paired))
        self.oma_strong, self.oma_weak = self.oma[self.paired].T
        self.oma_single = self.oma[self.single, 0]
        self.links = link_facts(gamma[strong[self.paired]], gamma[weak[self.paired]])
        self._gates: dict[float, Gate] = {}

    def evaluate(self, strategies: Sequence[Strategy], fairness: FairnessConfig, beta) -> TrialMetrics:
        g = self._gates.get(beta)
        if g is None:
            g = self._gates[beta] = gate(self.links, beta)
        gs, gw, order = self.links.gamma_s, self.links.gamma_w, self.slot_order
        per_strategy = {}
        for strat in dict.fromkeys(strategies):
            delta, _ = split(g, strat, fairness)
            admitted = ~np.isnan(delta)
            r_s = np.where(admitted, np.log2(1.0 + noma_sinr_strong(gs, beta, delta)), self.oma_strong)
            r_w = np.where(admitted, np.log2(1.0 + noma_sinr_weak(gw, delta)), self.oma_weak)
            t = alpha_throughput(r_s, r_w, fairness.alpha)
            served_oma = self.single.copy()
            served_oma[self.paired] = ~admitted
            pairs = int(np.count_nonzero(admitted))
            per_strategy[strat] = StrategyMetrics(
                mean_strong_rate=_mean(r_s),
                mean_weak_rate=_mean(r_w),
                mean_oma_rate=_mean(self.oma[self.present & served_oma[:, None]]),
                # A single rate is its own power mean and sum.
                mean_t_alpha=_mean(np.concatenate((t, self.oma_single))[order]),
                mean_asr=_mean(np.concatenate((r_s + r_w, self.oma_single))[order]),
                pair_count=pairs,
                oma_count=self.population - 2 * pairs,
            )
        return TrialMetrics(population=self.population, per_strategy=per_strategy)


def evaluate_strategies(
    users: Sequence[UserChannel],
    strategies: Sequence[Strategy],
    fairness: FairnessConfig,
    beta: float,
) -> TrialMetrics:
    """Run every strategy on one channel realization and aggregate metrics."""
    return _Trial(users).evaluate(strategies, fairness, beta)


_METRIC_FIELDS = (
    ("t_alpha", "mean_t_alpha"),
    ("mur_strong", "mean_strong_rate"),
    ("mur_weak", "mean_weak_rate"),
    ("mur_oma", "mean_oma_rate"),
    ("mean_asr", "mean_asr"),
)


def _trial_chunk(args) -> list[list[TrialMetrics]]:
    """Worker: each trial's metrics at every sweep point, for a chunk of trials.

    A failure is re-raised naming its trial index and sweep point.
    """
    cfg, points, strategies, indices = args
    out = []
    for t in indices:
        trial = _Trial(compute_sinrs(drop_network(cfg, t), cfg))
        metrics = []
        for fairness, beta in points:
            try:
                metrics.append(trial.evaluate(strategies, fairness, beta))
            except Exception as exc:
                raise RuntimeError(f"trial {t}, alpha={fairness.alpha}, beta={beta}: {exc}") from exc
        out.append(metrics)
    return out


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
    order), so the result is bit-identical for any ``threads`` setting.
    """
    if not sweep or not strategies:
        raise ValueError("sweep and strategies must be non-empty")
    if not all(0.0 <= beta <= 1.0 for _, beta in sweep):
        raise ValueError(f"betas must lie in [0, 1], got {sorted({b for _, b in sweep})}")
    strategies = list(strategies)
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
    ordered = [trial for chunk in done for trial in chunk]

    rows = []
    for i, (alpha, beta) in enumerate(sweep):
        for strat in strategies:
            for metric, attr in _METRIC_FIELDS:
                values = [
                    getattr(trial[i].per_strategy[strat], attr)
                    for trial in ordered
                    if getattr(trial[i].per_strategy[strat], attr) is not None
                ]
                if not values:
                    continue
                arr = np.asarray(values)
                stderr = (
                    float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
                )
                rows.append(
                    ResultRow(
                        alpha=alpha,
                        beta=beta,
                        gamma_s_db=None,
                        gamma_w_db=None,
                        strategy=strat.value,
                        metric=metric,
                        value=float(arr.mean()),
                        trials=len(arr),
                        stderr=stderr,
                    )
                )
    if not rows:
        raise ValueError(f"all {cfg.trials} trials dropped zero users; no metric to report")
    return rows
