"""Acceptance suite: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
inline; without -s they appear in the captured output of failing tests.

Criteria 2, 6 and 10 state their paper claims in the form the maths and
the Monte Carlo noise can decide, against the oracles in `_oracles.py`:

* 2: beta < beta_star decides rate feasibility (the MSD criterion is a
  stricter cut that turns away about 9% of feasible pairs at beta = 0);
* 6: for 0 < alpha < 1 the optimum sits at delta_ub only up to
  alpha*(beta) = 0.64 / 0.79 / 0.89 at beta = 0 / 0.5 / 0.9 beta* on the
  9 dB / 2 dB link, and is interior above it.  The abstract's wording
  ("coincides with the derived lower bound" for 0 < alpha < 1) is not
  what the maths gives, and PAPER.md does not settle the range of alpha;
* 10: near-far's strong-user rate falls below OMA by more than 3 combined
  standard errors from some swept beta on; under the default radio model
  the crossing lies between beta = 0.06 and 0.07, so its place is
  reported, not pinned.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from noma_fair.allocator import DecisionMode, gate, solve_optimal, solve_suboptimal, split, summed_utility
from noma_fair.bounds import beta_star, delta_lower_bound, delta_upper_bound, msd_threshold
from noma_fair.cli import main as cli_main
from noma_fair.fairness import FairnessConfig, alpha_throughput, utility
from noma_fair.netsim import NetworkConfig, Strategy, run_campaign
from noma_fair.rates import PairLink, db_to_linear, noma_rates

from _oracles import (
    alpha_fair_objective_ref,
    alpha_fair_slope_ref,
    bisect_delta_strong,
    bisect_delta_weak,
    grid_feasible_many,
    noma_rate_strong_ref,
    noma_rate_weak_ref,
    oma_rate_ref,
    sample_ordered_pairs,
    scan_grid,
)

GS = db_to_linear(9.0)
GW = db_to_linear(2.0)
BSTAR = beta_star(GS, GW)

MC_BETAS = (0.01, 0.02, 0.04, 0.06, 0.08, 0.1)
MC_TRIALS = 500


def verdict(num, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {flag}: {detail}")
    return ok


def vector_bisect(fn, n, iters=64):
    """Roots over (0, 1) of fn that decreases through zero, vectorized."""
    lo = np.full(n, 1e-12)
    hi = np.full(n, 1.0 - 1e-12)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        go_right = fn(mid) > 0
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def campaign_rows():
    """One 500-trial campaign shared by the Monte Carlo criteria (9 and 10)."""
    cfg = NetworkConfig(bs_density=25.0, user_density=120.0, trials=MC_TRIALS, seed=1)
    sweep = [(1.0, b) for b in MC_BETAS]
    strategies = [Strategy.OPTIMAL, Strategy.SUBOPTIMAL, Strategy.NEAR_FAR, Strategy.OMA]
    start = time.monotonic()
    rows = run_campaign(cfg, sweep, strategies, threads=2)
    elapsed = time.monotonic() - start
    values = {(r.beta, r.strategy, r.metric): r.value for r in rows}
    stderr = {(r.beta, r.strategy, r.metric): r.stderr for r in rows}
    return values, stderr, elapsed


def test_criterion_01_bounds_match_bisection_roots():
    rng = np.random.default_rng(1001)
    n = 10000
    gs, gw = sample_ordered_pairs(rng, n)
    betas = rng.uniform(0.0, 0.2, n)
    start = time.monotonic()
    ub_roots = vector_bisect(lambda d: noma_rate_weak_ref(gw, d) - oma_rate_ref(gw), n)
    lb_roots = vector_bisect(
        lambda d: oma_rate_ref(gs) - noma_rate_strong_ref(gs, betas, d), n
    )
    err_ub = float(np.max(np.abs(delta_upper_bound(gw) - ub_roots)))
    err_lb = float(np.max(np.abs(delta_lower_bound(gs, betas) - lb_roots)))
    elapsed = time.monotonic() - start
    ok = err_ub < 1e-8 and err_lb < 1e-8 and elapsed < 10.0
    assert verdict(
        1,
        ok,
        f"bounds vs bisection roots on {n} random links: "
        f"max|d_ub err|={err_ub:.2e}, max|d_lb err|={err_lb:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_pairing_criterion_agrees_with_rate_feasibility():
    # Claim under test: the closed-form admission test decides whether some
    # split gives both users more than their OMA rates, checked against a
    # brute-force scan of the rate definitions.
    # (a) beta < beta_star agrees with the scan on >= 99.9% of random pairs,
    #     at beta = 0 and at beta ~ U(0, 0.2); the scan may only miss
    #     nonempty intervals narrower than its grid step.
    # (b) The full gate (MSD criterion and delta_lb < delta_ub, checked here
    #     as beta < beta_star, its form away from rounding) admits no pair
    #     the scan finds infeasible.  The MSD criterion itself is a strictly
    #     stronger cut than feasibility (see test_bounds), so the share of
    #     feasible pairs it turns away is reported, not gated.
    rng = np.random.default_rng(1002)
    n = 10000
    gs, gw = sample_ordered_pairs(rng, n)
    criterion = (gs - gw) > msd_threshold(gs, gw)
    bstar = beta_star(gs, gw)
    step = float(np.diff(scan_grid()[:2])[0])
    ok = True
    parts = []
    for label, betas in (("beta=0", np.zeros(n)), ("beta~U(0,0.2)", rng.uniform(0.0, 0.2, n))):
        feasible = grid_feasible_many(gs, gw, betas)
        predicted = betas < bstar
        agree = predicted == feasible
        widths = np.array(
            [bisect_delta_weak(gw[i]) - bisect_delta_strong(gs[i], betas[i])
             for i in np.flatnonzero(~agree)]
        )
        misses_narrow = bool(np.all(predicted[~agree]) and np.all((widths > 0) & (widths < step)))
        admitted_infeasible = int(np.sum(criterion & predicted & ~feasible))
        turned_away = float(np.mean(~criterion[feasible]))
        ok &= agree.mean() >= 0.999 and misses_narrow and admitted_infeasible == 0
        spread = f"{widths.min():.1e}..{widths.max():.1e}" if widths.size else "-"
        parts.append(
            f"{label}: beta<beta* agrees on {agree.mean():.2%} (required >= 99.9%), "
            f"{int((~agree).sum())} misses, missed interval widths {spread} "
            f"(grid step {step:.1e}); gate admits {admitted_infeasible} infeasible; "
            f"criterion turns away {turned_away:.1%} of feasible pairs"
        )
    assert verdict(2, ok, "; ".join(parts))


def test_criterion_03_beta_star_closes_the_interval():
    rng = np.random.default_rng(1003)
    pairs = []
    while len(pairs) < 1000:
        gs, gw = sample_ordered_pairs(rng, 1)
        if beta_star(float(gs[0]), float(gw[0])) > 0:
            pairs.append((float(gs[0]), float(gw[0])))
    gs = np.array([p[0] for p in pairs])
    gw = np.array([p[1] for p in pairs])
    ub = delta_upper_bound(gw)
    lo = np.zeros(len(pairs))
    hi = np.ones(len(pairs))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = delta_lower_bound(gs, mid) < ub
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    err = float(np.max(np.abs(beta_star(gs, gw) - 0.5 * (lo + hi))))
    ok = err < 1e-8
    assert verdict(3, ok, f"beta_star vs interval-closing bisection root: max|err|={err:.2e}")


def _grid_utilities(gs, gw, beta, alpha, deltas):
    """U(R_s) and U(R_w) at the splits ``deltas``."""
    return utility(noma_rate_strong_ref(gs, beta, deltas), alpha), utility(noma_rate_weak_ref(gw, deltas), alpha)


def _dense_grid_max(gs, gw, beta, alpha, deltas, run=1000):
    """The max of U(R_s) + U(R_w) over the grid ``deltas``, bit for bit.

    U(R_s) rises and U(R_w) falls in delta, so no point of a run of ``run``
    grid steps exceeds its right-end U(R_s) plus its left-end U(R_w).  A run
    whose bound lies below the best run end by more than 1e-12 of the two
    terms' magnitudes (far above their rounding) cannot hold the maximum and
    is skipped; the other runs are evaluated point by point.
    """
    ends = np.append(np.arange(0, deltas.size, run), deltas.size - 1)
    us, uw = _grid_utilities(gs, gw, beta, alpha, deltas[ends])
    best = float(np.max(us + uw))
    bound, scale = us[1:] + uw[:-1], np.abs(us[1:]) + np.abs(uw[:-1])
    starts = ends[:-1][bound >= best - 1e-12 * scale]
    if starts.size:
        index = np.minimum(starts[:, None] + np.arange(run + 1), deltas.size - 1)
        us, uw = _grid_utilities(gs, gw, beta, alpha, deltas[index])
        best = max(best, float(np.max(us + uw)))
    return best


def test_criterion_04_optimizer_matches_dense_grid():
    rng = np.random.default_rng(1004)
    instances = []
    while len(instances) < 1000:
        gs, gw = sample_ordered_pairs(rng, 1)
        gs, gw = float(gs[0]), float(gw[0])
        if (gs - gw) <= msd_threshold(gs, gw):
            continue
        beta = rng.uniform(0.0, 0.999) * min(beta_star(gs, gw), 1.0)
        alpha = float(np.exp(rng.uniform(np.log(0.3), np.log(35.0))))
        instances.append((gs, gw, beta, alpha))
    start = time.monotonic()
    worst, mismatched = 0.0, []
    for k, (gs, gw, beta, alpha) in enumerate(instances):
        g = gate([gs], [gw], beta)
        delta = split(g, Strategy.OPTIMAL, FairnessConfig(alpha=alpha))
        deltas = np.linspace(
            delta_lower_bound(gs, beta), delta_upper_bound(gw), 1_000_000
        )
        grid_best = _dense_grid_max(gs, gw, beta, alpha, deltas)
        if k < 20:
            # The brute-force max over every point, in blocks of 2^15 points
            # whose temporaries stay in cache: the pruned max must equal it.
            brute = max(
                float(np.max(np.add(*_grid_utilities(gs, gw, beta, alpha, block))))
                for block in np.split(deltas, range(1 << 15, deltas.size, 1 << 15))
            )
            if brute != grid_best:
                mismatched.append((k, brute, grid_best))
        worst = max(worst, abs(float(summed_utility(gs, gw, beta, delta[0], alpha)) - grid_best))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 60.0 and not mismatched
    assert verdict(
        4,
        ok,
        f"solver vs 1e6-point grid on 1000 instances: max|obj err|={worst:.2e}, "
        f"{elapsed:.1f}s; grid max == brute force on {20 - len(mismatched)}/20 {mismatched}",
    )


def test_criterion_05_high_alpha_perfect_sic_split_is_the_lower_bound():
    lb = delta_lower_bound(GS, 0.0)
    devs = {}
    for alpha in (2.5, 3.0, 5.0, 20.0):
        d = solve_optimal(PairLink(gamma_s=GS, gamma_w=GW, beta=0.0), FairnessConfig(alpha=alpha))
        devs[alpha] = abs(d.allocation.delta_s - lb)
    worst = max(devs.values())
    ok = worst < 1e-3
    assert verdict(
        5, ok, f"beta=0, alpha in {{2.5,3,5,20}}: max|delta_s - delta_lb|={worst:.2e}"
    )


def _alpha_star(beta, delta_ub, iters=40):
    """Largest alpha in [0, 1] at which the objective still rises at delta_ub."""
    lo, hi = 0.0, 1.0
    if alpha_fair_slope_ref(GS, GW, beta, delta_ub, lo) < 0:
        return lo
    if alpha_fair_slope_ref(GS, GW, beta, delta_ub, hi) >= 0:
        return hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if alpha_fair_slope_ref(GS, GW, beta, delta_ub, mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_06_small_alpha_split_is_the_upper_bound():
    # Claim under test: for alpha in (0, 1) the optimal split sits at delta_ub
    # exactly while the alpha-fair objective still rises there, i.e. for
    # alpha <= alpha*(beta).  alpha* lies inside (0, 1) and rises with beta,
    # so the optimum moves to the upper bound as SIC imperfection grows.
    # Above alpha* the optimum is interior and beats delta_ub.  The slope
    # and the objective come from mpmath oracles on the rate definitions.
    ub = bisect_delta_weak(GW)
    ok = True
    cases = []
    for alpha in (0.3, 0.6, 0.9):
        for frac in (0.0, 0.5, 0.9):
            beta = frac * BSTAR
            slope = alpha_fair_slope_ref(GS, GW, beta, ub, alpha)
            d = solve_optimal(
                PairLink(gamma_s=GS, gamma_w=GW, beta=beta), FairnessConfig(alpha=alpha)
            ).allocation.delta_s
            if slope >= 0:
                ok &= abs(d - ub) < 1e-3
                cases.append(
                    f"a={alpha} b={frac}b*: slope {slope:+.3f}, |d_s-d_ub|={abs(d - ub):.1e}"
                )
            else:
                with mpmath.workdps(40):
                    gain = float(
                        alpha_fair_objective_ref(GS, GW, beta, d, alpha)
                        - alpha_fair_objective_ref(GS, GW, beta, ub, alpha)
                    )
                ok &= d < ub - 1e-3 and gain > 0
                cases.append(
                    f"a={alpha} b={frac}b*: slope {slope:+.3f}, d_s={d:.4f} vs d_ub={ub:.4f}, "
                    f"U gain {gain:.1e}"
                )
    stars = [_alpha_star(frac * BSTAR, ub) for frac in (0.0, 0.5, 0.9)]
    ok &= 0.0 < stars[0] < stars[1] < stars[2] < 1.0
    assert verdict(
        6,
        ok,
        "alpha*(beta) at beta in {0,.5,.9}b* = " + "/".join(f"{a:.3f}" for a in stars)
        + "; " + "; ".join(cases),
    )


def test_criterion_07_near_beta_star_split_is_the_upper_bound_for_any_alpha():
    ub = delta_upper_bound(GW)
    beta = BSTAR * (1 - 1e-6)
    worst = 0.0
    for alpha in (0.5, 1.0, 3.0, 25.0):
        d = solve_optimal(PairLink(gamma_s=GS, gamma_w=GW, beta=beta), FairnessConfig(alpha=alpha))
        worst = max(worst, abs(d.allocation.delta_s - ub))
    ok = worst < 1e-3
    assert verdict(
        7, ok, f"beta=beta*(1-1e-6), alpha in {{0.5,1,3,25}}: max|delta_s - delta_ub|={worst:.2e}"
    )


def test_criterion_08_suboptimal_tracks_optimal():
    rng = np.random.default_rng(1008)
    gaps = []
    while len(gaps) < 1000:
        gs, gw = sample_ordered_pairs(rng, 1)
        gs, gw = float(gs[0]), float(gw[0])
        if (gs - gw) <= msd_threshold(gs, gw):
            continue
        beta = rng.uniform(0.0, 0.999) * min(beta_star(gs, gw), 1.0)
        alpha = float(np.exp(rng.uniform(np.log(0.3), np.log(35.0))))
        link = PairLink(gamma_s=gs, gamma_w=gw, beta=beta)
        cfg = FairnessConfig(alpha=alpha, tau=0.5)
        t_opt = alpha_throughput(*noma_rates(link, solve_optimal(link, cfg).allocation), alpha)
        t_sub = alpha_throughput(*noma_rates(link, solve_suboptimal(link, cfg).allocation), alpha)
        gaps.append((t_opt - t_sub) / t_opt)
    gaps = np.array(gaps)
    q = {p: float(np.quantile(gaps, p / 100)) for p in (0, 10, 25, 50, 75, 90, 100)}
    median = q[50]
    ok = median < 0.05
    assert verdict(
        8,
        ok,
        "relative throughput gap (optimal - suboptimal)/optimal over 1000 links: "
        f"median={median:.4%}, distribution "
        + " ".join(f"p{p}={v:.2%}" for p, v in q.items()),
    )


def test_criterion_09_near_far_throughput_crosses_below_oma(campaign_rows):
    values, _, elapsed = campaign_rows
    nf_below = [b for b in MC_BETAS if values[(b, "near_far", "t_alpha")] < values[(b, "oma", "t_alpha")]]
    small = MC_BETAS[:2]
    gated_ok = all(
        values[(b, s, "t_alpha")] >= values[(b, "oma", "t_alpha")]
        for b in small
        for s in ("optimal", "suboptimal")
    )
    trace = " ".join(
        f"b={b}: nf={values[(b, 'near_far', 't_alpha')]:.4f}/oma={values[(b, 'oma', 't_alpha')]:.4f}"
        for b in MC_BETAS
    )
    ok = bool(nf_below) and gated_ok and elapsed < 300.0
    assert verdict(
        9,
        ok,
        f"{MC_TRIALS} trials, alpha=1: near-far falls below OMA at beta={nf_below}, "
        f"gated strategies above OMA near 0: {gated_ok}, campaign {elapsed:.0f}s; {trace}",
    )


def test_criterion_10_mean_user_rate_ordering(campaign_rows):
    # Claim under test: the gated strategies keep both users at or above OMA,
    # while near-far's strong user falls below OMA as SIC imperfection grows.
    # On shared channels each pair's near-far strong rate at delta_ub falls
    # with beta, so the near-far - OMA gap falls strictly across MC_BETAS;
    # from some swept beta on it is below zero by more than 3 combined
    # standard errors.  Where the crossing lies is a property of the radio
    # model, so it is reported, not pinned.
    values, stderr, _ = campaign_rows
    gated_ok = True
    for b in (0.01, 0.06):
        for s in ("optimal", "suboptimal"):
            for m in ("mur_strong", "mur_weak"):
                gated_ok &= values[(b, s, m)] >= values[(b, "oma", m)] - 1e-9
    nf = [(b, "near_far", "mur_strong") for b in MC_BETAS]
    oma = [(b, "oma", "mur_strong") for b in MC_BETAS]
    gap = {b: values[n] - values[o] for b, n, o in zip(MC_BETAS, nf, oma)}
    se = {b: math.hypot(stderr[n], stderr[o]) for b, n, o in zip(MC_BETAS, nf, oma)}
    falling = all(gap[lo] > gap[hi] for lo, hi in zip(MC_BETAS, MC_BETAS[1:]))
    below = [gap[b] < -3.0 * se[b] for b in MC_BETAS]
    first = next((b for i, b in enumerate(MC_BETAS) if all(below[i:])), None)
    ok = gated_ok and falling and first is not None
    trace = " ".join(f"b={b}: {gap[b]:+.4f}+-{se[b]:.4f}" for b in MC_BETAS)
    assert verdict(
        10,
        ok,
        f"gated strong/weak rates >= OMA at beta 0.01/0.06: {gated_ok}; "
        f"near-far - OMA strong rate falls with beta: {falling}; "
        f"below OMA by > 3 stderr from beta={first}; {trace}",
    )


def test_criterion_11_campaign_determinism(tmp_path):
    def simulate(out, threads):
        code = cli_main(
            [
                "simulate", "--seed", "7", "--trials", "8",
                "--alphas", "1", "--betas", "0.01,0.06",
                "--threads", str(threads), "--out-dir", str(out),
            ]
        )
        assert code == 0
        return (out / "campaign.csv").read_bytes(), (out / "campaign.json").read_bytes()

    first = simulate(tmp_path / "a", threads=1)
    second = simulate(tmp_path / "b", threads=1)
    threaded = simulate(tmp_path / "c", threads=2)
    ok = first == second == threaded
    assert verdict(
        11,
        ok,
        "byte-identical campaign artifacts across reruns and thread counts: "
        f"{ok} ({len(first[0])} CSV bytes)",
    )
