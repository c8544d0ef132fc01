"""Independent numerical oracles shared by the test modules.

Everything here recomputes expected values from the rate definitions by
bisection, exhaustive scanning or high-precision differentiation, never
from the closed forms or solvers under test.  The exceptions are the
references of batched or rewritten code, which must agree with it bit for
bit: :func:`evaluate_strategies_ref`, the per-pair reference of the
campaign kernel (it matches and aggregates on its own, and decides each
candidate through the size-1 decisions in :data:`WRAPPERS`),
:func:`maximize_on_interval_ref`, the one-link-at-a-time grid and golden-section search of the optimal
split, :func:`compute_sinrs_ref`, the full users x stations matrix form of
the row-blocked SINRs, and :func:`emit_campaign_csv_ref` and
:func:`emit_campaign_json_ref`, the row-by-row CSV writer and the
``json.dump(indent=2)`` of the parsed-back cells that the single-rendering
emitters replace (both sort the rows with their own key, with Python's
``sorted``), :func:`run_campaign_ref`, the campaign aggregated
from per-trial :func:`evaluate_strategies_ref` objects, and
:func:`aggregate_columns_ref`, the column-by-column mean and stderr that
the campaign's one reduction per NaN pattern replaces.
"""

from __future__ import annotations

import csv
import json
import math

import mpmath
import numpy as np

from noma_fair.allocator import allocate_fixed_bound, near_far_decision, solve_optimal, solve_suboptimal
from noma_fair.fairness import FairnessConfig, alpha_throughput
from noma_fair.netsim import (
    _FADING_STREAM,
    NetworkConfig,
    NetworkRealization,
    StrategyMetrics,
    TrialMetrics,
    drop_network,
)
from noma_fair.pairing import user_table
from noma_fair.rates import PairLink, Strategy, noma_rates, noma_sinr_strong, noma_sinr_weak, oma_rate
from noma_fair.report import CSV_HEADER, ResultRow, format_value


def oma_rate_ref(gamma):
    return 0.5 * np.log2(1.0 + gamma)


def noma_rate_strong_ref(gamma_s, beta, delta_s):
    return np.log2(1.0 + noma_sinr_strong(gamma_s, beta, delta_s))


def noma_rate_weak_ref(gamma_w, delta_s):
    return np.log2(1.0 + noma_sinr_weak(gamma_w, delta_s))


def bisect_delta_weak(gamma_w, iters: int = 80) -> float:
    """Root of R_w_noma(delta) = R_w_oma; R_w_noma is decreasing in delta."""
    target = oma_rate_ref(gamma_w)
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if noma_rate_weak_ref(gamma_w, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_delta_strong(gamma_s, beta, iters: int = 80) -> float:
    """Root of R_s_noma(delta) = R_s_oma; R_s_noma is increasing in delta."""
    target = oma_rate_ref(gamma_s)
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if noma_rate_strong_ref(gamma_s, beta, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_grid(points: int = 10000):
    """The split grid of the brute-force feasibility scans."""
    return np.linspace(1e-6, 1.0 - 1e-6, points)


def grid_feasible_many(gamma_s, gamma_w, beta=0.0, points: int = 10000):
    """Per-pair :func:`grid_feasible` over arrays of links, each with its own beta.

    Scans 250 pairs at a time to bound the (pairs x points) scratch arrays.
    """
    gs, gw, b = np.broadcast_arrays(
        np.asarray(gamma_s, dtype=float), np.asarray(gamma_w, dtype=float),
        np.asarray(beta, dtype=float),
    )
    gs, gw, b = gs.ravel(), gw.ravel(), b.ravel()
    deltas = scan_grid(points)[None, :]
    feasible = np.zeros(gs.size, dtype=bool)
    for i in range(0, gs.size, 250):
        sl = slice(i, i + 250)
        gsb, gwb, bb = gs[sl, None], gw[sl, None], b[sl, None]
        strong_ok = noma_rate_strong_ref(gsb, bb, deltas) > oma_rate_ref(gsb)
        weak_ok = noma_rate_weak_ref(gwb, deltas) > oma_rate_ref(gwb)
        feasible[sl] = np.any(strong_ok & weak_ok, axis=1)
    return feasible


def grid_feasible(gamma_s, gamma_w, beta: float = 0.0, points: int = 10000) -> bool:
    """True when some split gives both users strictly more than their OMA rates."""
    return bool(grid_feasible_many(gamma_s, gamma_w, beta, points)[0])


def alpha_fair_objective_ref(gamma_s, gamma_w, beta, delta_s, alpha):
    """U(R_s) + U(R_w) at one split, in mpmath at the working precision."""
    gs, gw, b, d, a = map(mpmath.mpf, (gamma_s, gamma_w, beta, delta_s, alpha))
    rates = (
        mpmath.log(1 + noma_sinr_strong(gs, b, d), 2),
        mpmath.log(1 + noma_sinr_weak(gw, d), 2),
    )
    if a == 1:
        return sum(mpmath.log(r) for r in rates)
    return sum(r ** (1 - a) / (1 - a) for r in rates)


def alpha_fair_slope_ref(gamma_s, gamma_w, beta, delta_s, alpha, dps: int = 40) -> float:
    """dU/d(delta_s) of the summed alpha-fair utility, differentiated in mpmath."""
    with mpmath.workdps(dps):
        return float(
            mpmath.diff(
                lambda d: alpha_fair_objective_ref(gamma_s, gamma_w, beta, d, alpha),
                mpmath.mpf(delta_s),
            )
        )


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_max_ref(fn, lo, hi, tol):
    """Golden-section search for the maximizer of fn on [lo, hi], one point per step."""
    dist = hi - lo
    if dist <= tol:
        return 0.5 * (lo + hi)
    n = int(math.ceil(math.log(tol / dist) / math.log(_INV_PHI)))
    c = lo + _INV_PHI_SQ * dist
    d = lo + _INV_PHI * dist
    yc = fn(c)
    yd = fn(d)
    for _ in range(max(n - 1, 0)):
        if yc > yd:
            hi, d, yd = d, c, yc
            dist *= _INV_PHI
            c = lo + _INV_PHI_SQ * dist
            yc = fn(c)
        else:
            lo, c, yc = c, d, yd
            dist *= _INV_PHI
            d = lo + _INV_PHI * dist
            yd = fn(d)
    return 0.5 * (lo + d) if yc > yd else 0.5 * (c + hi)


def maximize_on_interval_ref(fn, lo, hi, tol, points=1000, slack=1e-9):
    """One link's grid scan plus golden-section refinement.

    Returns (delta_s, objective, brackets), ``brackets`` the (lo, hi) of
    every refined grid bracket.  Every grid peak within ``slack`` of the best
    value is refined, the endpoints enter as exact candidates, and values
    within 1e-12 of the best tie to the smallest delta_s.
    """
    xs = np.linspace(lo, hi, points)
    ys = fn(xs)
    best = float(np.max(ys))
    last = len(xs) - 1
    refined = [(float(ys[0]), float(xs[0])), (float(ys[last]), float(xs[last]))]
    brackets = []
    for i in np.flatnonzero(ys >= best - slack):
        if 0 < i < last and (ys[i] < ys[i - 1] or ys[i] < ys[i + 1]):
            continue  # not a local peak, its bracket is covered by a neighbor
        brackets.append((xs[max(i - 1, 0)], xs[min(i + 1, last)]))
        x = golden_max_ref(fn, *brackets[-1], tol)
        refined.append((float(fn(x)), float(x)))
    top = max(v for v, _ in refined)
    delta = min(x for v, x in refined if v >= top - 1e-12)
    return delta, top, brackets


def sample_ordered_pairs(rng, n: int, low_db: float = 0.0, high_db: float = 30.0):
    """Random linear SINR pairs with gamma_s >= gamma_w, uniform in dB."""
    g1 = 10.0 ** rng.uniform(low_db / 10.0, high_db / 10.0, n)
    g2 = 10.0 ** rng.uniform(low_db / 10.0, high_db / 10.0, n)
    return np.maximum(g1, g2), np.minimum(g1, g2)


def candidate_pairs_ref(cell):
    """One cell's (strong, weak) candidates and odd user out, by a Python sort."""
    users = sorted(cell, key=lambda u: (-u.channel_gain, u.user_id))
    n = len(users)
    cands = []
    for i in range(n // 2):
        first, second = users[i], users[n - 1 - i]
        cands.append((first, second) if first.gamma >= second.gamma else (second, first))
    return cands, [users[n // 2]] if n % 2 else []


def _mean(values):
    return float(np.mean(values)) if values else None


# Each strategy's size-1 decision of one candidate; None serves both users OMA.
WRAPPERS = {
    Strategy.OPTIMAL: solve_optimal,
    Strategy.SUBOPTIMAL: solve_suboptimal,
    Strategy.UPPER_BOUND: lambda link, _: allocate_fixed_bound(link, Strategy.UPPER_BOUND),
    Strategy.LOWER_BOUND: lambda link, _: allocate_fixed_bound(link, Strategy.LOWER_BOUND),
    Strategy.NEAR_FAR: lambda link, _: near_far_decision(link),
    Strategy.OMA: lambda link, _: None,
}


def evaluate_strategies_ref(users, strategies, fairness, beta) -> TrialMetrics:
    """Every strategy on one realization, one candidate and one call at a time."""
    cells = {}
    for u in users:
        cells.setdefault(u.serving_bs_id, []).append(u)
    acc = {s: {"strong": [], "weak": [], "oma": [], "t": [], "asr": [], "pairs": 0} for s in strategies}
    for bs_id in sorted(cells):
        cands, singles = candidate_pairs_ref(cells[bs_id])
        links = [PairLink(gamma_s=s.gamma, gamma_w=w.gamma, beta=beta) for s, w in cands]
        oma_pairs = [(oma_rate(s.gamma), oma_rate(w.gamma)) for s, w in cands]
        single_rates = [oma_rate(u.gamma) for u in singles]
        for strat in dict.fromkeys(strategies):
            a = acc[strat]
            for link, (ros, row) in zip(links, oma_pairs):
                decision = WRAPPERS[strat](link, fairness)
                if decision is not None and decision.allocation is not None:
                    r_s, r_w = noma_rates(link, decision.allocation)
                    a["pairs"] += 1
                else:
                    r_s, r_w = ros, row
                    a["oma"].extend((ros, row))
                a["strong"].append(r_s)
                a["weak"].append(r_w)
                a["t"].append(alpha_throughput(r_s, r_w, fairness.alpha))
                a["asr"].append(r_s + r_w)
            for r in single_rates:
                a["oma"].append(r)
                a["t"].append(r)
                a["asr"].append(r)
    per_strategy = {
        s: StrategyMetrics(
            mean_strong_rate=_mean(a["strong"]),
            mean_weak_rate=_mean(a["weak"]),
            mean_oma_rate=_mean(a["oma"]),
            mean_t_alpha=_mean(a["t"]),
            mean_asr=_mean(a["asr"]),
            pair_count=a["pairs"],
            oma_count=len(users) - 2 * a["pairs"],
        )
        for s, a in acc.items()
    }
    return TrialMetrics(population=len(users), per_strategy=per_strategy)


def run_campaign_ref(cfg: NetworkConfig, sweep, strategies) -> list[ResultRow]:
    """Each trial's metric objects, then per (point, strategy, metric) the
    mean and stderr of the values that are not None, in trial order."""
    trials = [compute_sinrs_ref(drop_network(cfg, t), cfg) for t in range(cfg.trials)]
    rows = []
    for alpha, beta in sweep:
        per_trial = [
            evaluate_strategies_ref(users, strategies, FairnessConfig(alpha=alpha), beta).per_strategy
            for users in trials
        ]
        for strat in strategies:
            for metric, attr in (
                ("t_alpha", "mean_t_alpha"),
                ("mur_strong", "mean_strong_rate"),
                ("mur_weak", "mean_weak_rate"),
                ("mur_oma", "mean_oma_rate"),
                ("mean_asr", "mean_asr"),
            ):
                values = [getattr(m[strat], attr) for m in per_trial]
                arr = np.asarray([v for v in values if v is not None])
                if not len(arr):
                    continue
                stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
                rows.append(
                    ResultRow(alpha, beta, None, None, strat.value, metric, float(arr.mean()), len(arr), stderr)
                )
    return rows


def aggregate_columns_ref(columns: np.ndarray) -> tuple[list, list, list]:
    """Per row of a (columns x trials) array, compacted on its own: the mean,
    count and stderr of its values that are not NaN, (NaN, 0, NaN) for a
    row without values."""
    means, counts, stderrs = [], [], []
    for column in columns:
        values = column[~np.isnan(column)]
        n = len(values)
        counts.append(n)
        if not n:
            means.append(math.nan)
            stderrs.append(math.nan)
            continue
        stderrs.append(float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0)
        means.append(float(values.mean()))
    return means, counts, stderrs


def toroidal_distances_ref(a_xy: np.ndarray, b_xy: np.ndarray, side: float) -> np.ndarray:
    """Pairwise wrap-around distances, shape (len(a), len(b))."""
    delta = np.abs(a_xy[:, None, :] - b_xy[None, :, :])
    delta = np.minimum(delta, side - delta)
    return np.hypot(delta[..., 0], delta[..., 1])


def received_power_mw_ref(network: NetworkRealization, cfg: NetworkConfig) -> np.ndarray:
    """Per-(user, station) received power in mW, unit-mean fading included.

    Draws the fading matrix from the trial's dedicated substream in one call.
    """
    dist = toroidal_distances_ref(network.user_xy, network.bs_xy, network.side_km)
    network.clamped_links = int(np.sum(dist < cfg.pathloss_min_distance_km))
    rng = np.random.default_rng([network.seed, network.trial_index, _FADING_STREAM])
    fading = rng.exponential(1.0, size=dist.shape)
    loss_db = cfg.pathloss_intercept_db + cfg.pathloss_slope_db * np.log10(
        np.maximum(dist, cfg.pathloss_min_distance_km)
    )
    gains = 10.0 ** (-loss_db / 10.0) * fading
    return 10.0 ** (cfg.tx_power_dbm / 10.0) * gains


def compute_sinrs_ref(network: NetworkRealization, cfg: NetworkConfig) -> np.recarray:
    """Max-power association and SINRs from the full users x stations matrix."""
    n_users = len(network.user_xy)
    prx = received_power_mw_ref(network, cfg)
    noise_mw = 10.0 ** (cfg.noise_power_dbm / 10.0)
    serving = np.argmax(prx, axis=1)
    rows = np.arange(n_users)
    masked = prx.copy()
    masked[rows, serving] = 0.0
    interference = masked.sum(axis=1)
    gamma = prx[rows, serving] / (noise_mw + interference)
    tx_mw = 10.0 ** (cfg.tx_power_dbm / 10.0)
    gains = prx[rows, serving] / tx_mw
    return user_table(rows, serving, gamma, gains)


def _row_strings_ref(row) -> list[str]:
    return [
        format_value(row.alpha),
        format_value(row.beta),
        format_value(row.gamma_s_db) if row.gamma_s_db is not None else "",
        format_value(row.gamma_w_db) if row.gamma_w_db is not None else "",
        row.strategy,
        row.metric,
        format_value(row.value),
        str(int(row.trials)),
        format_value(row.stderr),
    ]


def _parse_cell_ref(key: str, text: str):
    if key in ("strategy", "metric"):
        return text
    if key == "trials":
        return int(text)
    return float(text) if text else None


def parse_campaign_csv_ref(path) -> list[ResultRow]:
    """The rows of an emitted CSV, read back with csv.reader; its header must be CSV_HEADER."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == CSV_HEADER, path
        return [ResultRow(**{key: _parse_cell_ref(key, text) for key, text in zip(CSV_HEADER, rec)}) for rec in reader]


def _sorted_ref(rows) -> list:
    """Rows in artifact order: by (alpha, beta, strategy, metric, gamma_s_db,
    gamma_w_db), a None SINR before any number, -inf first and NaN last (as
    ``<`` does not order NaN, a number is keyed by (isnan, value), a NaN's
    value a stand-in that compares equal); equal keys keep their order."""

    def number(v):
        return (True, 0.0) if v != v else (False, v)

    def key(row):
        sinrs = ((v is not None, *number(0.0 if v is None else v)) for v in (row.gamma_s_db, row.gamma_w_db))
        return (*number(row.alpha), *number(row.beta), row.strategy, row.metric, *sinrs)

    return sorted(rows, key=key)


def emit_campaign_csv_ref(rows, path) -> None:
    """Sorted rows written one csv.writer row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in _sorted_ref(rows):
            writer.writerow(_row_strings_ref(row))


def emit_campaign_json_ref(rows, path) -> None:
    """``json.dump(indent=2)`` of each sorted row's CSV cells, parsed back."""
    payload = [
        {key: _parse_cell_ref(key, text) for key, text in zip(CSV_HEADER, _row_strings_ref(row))}
        for row in _sorted_ref(rows)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
