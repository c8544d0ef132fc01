import math
import warnings

import numpy as np
import pytest

from noma_fair import allocator
from noma_fair.allocator import (
    _GRID_POINTS,
    DecisionMode,
    allocate_fixed_bound,
    gate,
    solve_optimal,
    solve_suboptimal,
    split,
    summed_utility,
)
from noma_fair.bounds import beta_star, delta_lower_bound, delta_upper_bound, msd_threshold
from noma_fair.fairness import FairnessConfig, alpha_throughput, utility
from noma_fair.rates import (
    PairLink,
    Strategy,
    db_to_linear,
    noma_rates,
    oma_rate,
)

from _oracles import WRAPPERS, noma_rate_strong_ref, noma_rate_weak_ref, sample_ordered_pairs

GS = db_to_linear(9.0)
GW = db_to_linear(2.0)
BETA_STAR = beta_star(GS, GW)


def feasible_link(rng, alpha_range=(0.3, 35.0)):
    """A random pair admitted by the criterion, with beta inside the bound."""
    while True:
        gs, gw = sample_ordered_pairs(rng, 1)
        gs, gw = float(gs[0]), float(gw[0])
        if (gs - gw) > msd_threshold(gs, gw):
            break
    beta = rng.uniform(0.0, 0.999) * min(beta_star(gs, gw), 1.0)
    alpha = float(np.exp(rng.uniform(np.log(alpha_range[0]), np.log(alpha_range[1]))))
    return PairLink(gamma_s=gs, gamma_w=gw, beta=beta), alpha


def one_link_gate(link):
    """The link's admission by the array rules, on arrays of size 1."""
    return gate([link.gamma_s], [link.gamma_w], link.beta)


def objective_of(link, alpha, delta):
    r_s = noma_rate_strong_ref(link.gamma_s, link.beta, delta)
    r_w = noma_rate_weak_ref(link.gamma_w, delta)
    return utility(r_s, alpha) + utility(r_w, alpha)


class TestSolveOptimal:
    def test_high_alpha_perfect_sic_sits_at_lower_bound(self):
        link = PairLink(gamma_s=GS, gamma_w=GW, beta=0.0)
        d = solve_optimal(link, FairnessConfig(alpha=3.0))
        assert d.mode is DecisionMode.NOMA_PAIRED
        assert abs(d.allocation.delta_s - delta_lower_bound(GS, 0.0)) < 1e-3

    def test_near_beta_star_sits_at_upper_bound_any_alpha(self):
        beta = BETA_STAR * (1 - 1e-6)
        for alpha in [0.5, 1.0, 3.0, 25.0]:
            link = PairLink(gamma_s=GS, gamma_w=GW, beta=beta)
            d = solve_optimal(link, FairnessConfig(alpha=alpha))
            assert d.mode is DecisionMode.NOMA_PAIRED
            assert abs(d.allocation.delta_s - delta_upper_bound(GW)) < 1e-3

    def test_small_alpha_sits_at_upper_bound(self):
        link = PairLink(gamma_s=GS, gamma_w=GW, beta=0.01)
        d = solve_optimal(link, FairnessConfig(alpha=0.5))
        assert abs(d.allocation.delta_s - delta_upper_bound(GW)) < 1e-3

    def test_criterion_failure_falls_back_to_oma(self):
        link = PairLink(gamma_s=3.0, gamma_w=3.0, beta=0.0)
        d = solve_optimal(link, FairnessConfig(alpha=1.0))
        assert d.mode is DecisionMode.OMA_FALLBACK
        assert d.allocation is None
        assert np.isnan(split(one_link_gate(link), Strategy.OPTIMAL, FairnessConfig(alpha=1.0))).all()

    def test_beta_at_bound_falls_back_to_oma(self):
        link = PairLink(gamma_s=GS, gamma_w=GW, beta=BETA_STAR)
        d = solve_optimal(link, FairnessConfig(alpha=1.0))
        assert d.mode is DecisionMode.OMA_FALLBACK

    def test_diagnostics_populated(self):
        link = PairLink(gamma_s=GS, gamma_w=GW, beta=0.05)
        d = solve_optimal(link, FairnessConfig(alpha=1.0))
        g = one_link_gate(link)
        assert d.mode is DecisionMode.NOMA_PAIRED and g.admitted[0]
        assert g.criterion.satisfied[0]
        assert g.criterion.beta_star[0] == BETA_STAR
        assert g.delta_lb[0] < g.delta_ub[0]

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            link, alpha = feasible_link(rng)
            cfg = FairnessConfig(alpha=alpha)
            delta = split(one_link_gate(link), Strategy.OPTIMAL, cfg)
            assert solve_optimal(link, cfg).allocation.delta_s == delta[0]
            lb = delta_lower_bound(link.gamma_s, link.beta)
            ub = delta_upper_bound(link.gamma_w)
            grid_best = float(np.max(objective_of(link, alpha, np.linspace(lb, ub, 100000))))
            assert summed_utility(link.gamma_s, link.gamma_w, link.beta, delta[0], alpha) >= grid_best - 1e-6

    def test_constraints_hold_for_random_decisions(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            link, alpha = feasible_link(rng)
            d = solve_optimal(link, FairnessConfig(alpha=alpha))
            assert d.mode is DecisionMode.NOMA_PAIRED
            r_s, r_w = noma_rates(link, d.allocation)
            assert r_s >= oma_rate(link.gamma_s) - 1e-9
            assert r_w >= oma_rate(link.gamma_w) - 1e-9
            g = one_link_gate(link)
            assert g.delta_lb[0] - 1e-12 <= d.allocation.delta_s <= g.delta_ub[0] + 1e-12

    def test_split_moves_from_lower_to_upper_bound_with_beta(self):
        # At alpha > 2 the optimum starts at delta_lb and converges to
        # delta_ub as the imperfection approaches its admissible limit.
        cfg = FairnessConfig(alpha=3.0)
        betas = np.linspace(0.0, BETA_STAR * (1 - 1e-9), 25)
        deltas = []
        for beta in betas:
            d = solve_optimal(PairLink(gamma_s=GS, gamma_w=GW, beta=beta), cfg)
            deltas.append(d.allocation.delta_s)
        deltas = np.array(deltas)
        assert abs(deltas[0] - delta_lower_bound(GS, 0.0)) < 1e-6
        assert abs(deltas[-1] - delta_upper_bound(GW)) < 1e-6
        assert np.all(np.diff(deltas) >= -1e-7)


class TestSolveSuboptimal:
    def test_small_ratio_high_alpha_takes_lower_bound(self):
        link = PairLink(gamma_s=GS, gamma_w=GW, beta=0.0)
        cfg = FairnessConfig(alpha=3.0, tau=0.5)
        d = solve_suboptimal(link, cfg)
        assert d.allocation.delta_s == delta_lower_bound(GS, 0.0)
        assert d.allocation.delta_s == split(one_link_gate(link), Strategy.SUBOPTIMAL, cfg)[0]

    def test_small_ratio_low_alpha_takes_upper_bound(self):
        link = PairLink(gamma_s=GS, gamma_w=GW, beta=0.0)
        d = solve_suboptimal(link, FairnessConfig(alpha=0.5, tau=0.5))
        assert d.allocation.delta_s == delta_upper_bound(GW)

    def test_large_ratio_takes_upper_bound_for_any_alpha(self):
        link = PairLink(gamma_s=GS, gamma_w=GW, beta=0.9 * BETA_STAR)
        for alpha in [0.5, 3.0]:
            d = solve_suboptimal(link, FairnessConfig(alpha=alpha, tau=0.5))
            assert d.allocation.delta_s == delta_upper_bound(GW)

    def test_ratio_threshold_switches_at_tau(self):
        # beta/beta_star just below tau = 0.5 keeps delta_lb at alpha > 1;
        # just above it moves the split to delta_ub.
        cfg = FairnessConfig(alpha=3.0, tau=0.5)
        below, above = (PairLink(gamma_s=GS, gamma_w=GW, beta=r * BETA_STAR) for r in (0.49, 0.51))
        assert solve_suboptimal(below, cfg).allocation.delta_s == one_link_gate(below).delta_lb[0]
        assert solve_suboptimal(above, cfg).allocation.delta_s == one_link_gate(above).delta_ub[0]

    def test_alpha_one_counts_as_low(self):
        link = PairLink(gamma_s=GS, gamma_w=GW, beta=0.0)
        d = solve_suboptimal(link, FairnessConfig(alpha=1.0, tau=0.5))
        assert d.allocation.delta_s == delta_upper_bound(GW)

    def test_gates_match_optimal(self):
        for beta in [BETA_STAR, min(1.0, BETA_STAR * 1.5)]:
            link = PairLink(gamma_s=GS, gamma_w=GW, beta=beta)
            d = solve_suboptimal(link, FairnessConfig(alpha=3.0))
            assert d.mode is DecisionMode.OMA_FALLBACK
        d = solve_suboptimal(PairLink(gamma_s=3.0, gamma_w=3.0, beta=0.0), FairnessConfig(alpha=3.0))
        assert d.mode is DecisionMode.OMA_FALLBACK

    def test_near_optimality_median_gap(self):
        rng = np.random.default_rng(33)
        gaps = []
        for _ in range(300):
            link, alpha = feasible_link(rng)
            cfg = FairnessConfig(alpha=alpha, tau=0.5)
            d_opt = solve_optimal(link, cfg)
            d_sub = solve_suboptimal(link, cfg)
            t_opt = alpha_throughput(*noma_rates(link, d_opt.allocation), alpha)
            t_sub = alpha_throughput(*noma_rates(link, d_sub.allocation), alpha)
            gaps.append((t_opt - t_sub) / t_opt)
        assert float(np.median(gaps)) < 0.05


class TestAllocateFixedBound:
    def test_upper(self):
        link = PairLink(gamma_s=GS, gamma_w=GW, beta=0.02)
        d = allocate_fixed_bound(link, Strategy.UPPER_BOUND)
        assert d.allocation.delta_s == delta_upper_bound(GW)
        assert d.allocation.delta_s == split(one_link_gate(link), Strategy.UPPER_BOUND, None)[0]

    def test_lower(self):
        link = PairLink(gamma_s=GS, gamma_w=GW, beta=0.02)
        d = allocate_fixed_bound(link, Strategy.LOWER_BOUND)
        assert d.allocation.delta_s == delta_lower_bound(GS, 0.02)

    def test_gate(self):
        link = PairLink(gamma_s=3.0, gamma_w=3.0, beta=0.0)
        d = allocate_fixed_bound(link, Strategy.UPPER_BOUND)
        assert d.mode is DecisionMode.OMA_FALLBACK

    def test_rejects_non_bound_source(self):
        link = PairLink(gamma_s=GS, gamma_w=GW, beta=0.0)
        with pytest.raises(ValueError):
            allocate_fixed_bound(link, Strategy.OPTIMAL)



class TestBatchedDecision:
    def test_equals_size_one_decisions_bit_for_bit(self):
        # Links admitted, rejected by the criterion (equal SINRs among them),
        # rejected by the beta gate, and a few ulps inside beta_star, each
        # with its own beta as the sweep's beta_star token gives it.
        rng = np.random.default_rng(606)
        gs, gw = sample_ordered_pairs(rng, 240, -5.0, 40.0)
        gw[:20] = gs[:20]
        star = beta_star(gs, gw)
        beta = rng.uniform(0.0, 0.3, gs.size)
        beta[20:100] = np.where(star[20:100] > 0, star[20:100] * (1 - 1e-9), 0.0)
        beta[100:120] = np.where(star[100:120] > 0, star[100:120] * (1 - 1e-15), 0.0)
        g = gate(gs, gw, beta)
        assert 0 < g.admitted.sum() < gs.size

        def bits(values):
            return np.asarray(values, dtype=float).tobytes()

        ones = [gate([gs[i]], [gw[i]], beta[i]) for i in range(gs.size)]
        assert bits(g.delta_lb) == bits([o.delta_lb[0] for o in ones])
        assert bits(g.delta_ub) == bits([o.delta_ub[0] for o in ones])
        assert bits(g.criterion.satisfied) == bits([o.criterion.satisfied[0] for o in ones])
        for alpha in (0.5, 1.0, 3.0):
            cfg = FairnessConfig(alpha=alpha)
            for strategy in Strategy:
                delta = split(g, strategy, cfg)
                one = [
                    WRAPPERS[strategy](PairLink(gamma_s=gs[i], gamma_w=gw[i], beta=beta[i]), cfg)
                    for i in range(gs.size)
                ]
                if strategy is Strategy.OMA:
                    assert one == [None] * gs.size and np.isnan(delta).all()
                    continue
                alloc = [d.allocation for d in one]
                assert bits(~np.isnan(delta)) == bits([a is not None for a in alloc]), strategy
                assert bits(delta) == bits([np.nan if a is None else a.delta_s for a in alloc]), strategy

        # A column of betas gates every link at each of them: its rows must be
        # the one-beta gates and splits.
        betas = np.array([0.0, 0.01, 0.06, 0.2, 1.0])
        column = gate(gs, gw, betas[:, None])
        rows = [gate(gs, gw, b) for b in betas]
        assert column.admitted.shape == (betas.size, gs.size)
        assert 0 < column.admitted.sum() < column.admitted.size
        assert bits(column.delta_lb) == bits([r.delta_lb for r in rows])
        assert bits(column.admitted) == bits([r.admitted for r in rows])
        for alpha in (0.5, 1.0, 3.0):
            cfg = FairnessConfig(alpha=alpha)
            for strategy in Strategy:
                assert bits(split(column, strategy, cfg)) == bits([split(r, strategy, cfg) for r in rows]), strategy

    def test_optimal_solver_stays_batched(self, monkeypatch, whole_grids, slope_links):
        # One split(OPTIMAL) call takes the slope's sign at every link that is
        # not flat once per bisection step, a fixed count, evaluates the
        # objective once at every such link's window, once more per block of
        # links whose window is not proved (their whole grids), then in lock
        # step over every bracket: the count must not grow with the links
        # beyond those whole-grid evaluations and the brackets' most
        # golden-section steps.
        calls = []
        objective = allocator.summed_utility

        def counted(*args):
            calls.append(1)
            return objective(*args)

        monkeypatch.setattr(allocator, "summed_utility", counted)
        rng = np.random.default_rng(64)
        gs, gw = sample_ordered_pairs(rng, 400, 0.0, 30.0)
        keep = np.flatnonzero(gate(gs, gw, 0.0).criterion.satisfied)[:64]
        assert keep.size == 64
        gs, gw = gs[keep], gw[keep]
        beta = rng.uniform(0.0, 0.9, 64) * beta_star(gs, gw)
        assert 64 <= allocator._SCAN_BLOCK

        def count(n, alpha):
            g = gate(gs[:n], gw[:n], beta[:n])
            assert g.admitted.all()
            calls.clear()
            whole_grids.clear()
            slope_links.clear()
            split(g, Strategy.OPTIMAL, FairnessConfig(alpha=alpha))
            # The bisection takes every searched link's sign at once, step by step.
            assert len(slope_links) == (_GRID_POINTS - 1).bit_length() and len(set(slope_links)) == 1
            # The links fill one scan block, which scans the whole grids of
            # its unproved links, if it holds any, in one evaluation.
            assert len(whole_grids) <= 1 and all(whole_grids), whole_grids
            return len(calls), len(whole_grids), sum(whole_grids), slope_links[0]

        # A grid bracket is one or two grid steps wide.
        g = gate(gs, gw, beta)
        step = (g.delta_ub - g.delta_lb) / (_GRID_POINTS - 1)
        most = max(
            math.ceil(math.log(allocator._SOLVER_TOL / w) / math.log(allocator._INV_PHI)) - 1
            for w in np.concatenate((step, 2 * step))
        )
        for alpha in (1.0, 35.0):
            for n in (1, 16, 64):
                made, blocks, unproved, searched = count(n, alpha)
                # The windows, the whole-grid blocks, golden section's first
                # pair and its steps, and the refined points.
                assert made <= 3 + blocks + most, (n, alpha, made, blocks)
            assert made < 64
            # At alpha = 1 every link is searched and every window proved; at
            # 35 the flat objectives are decided without a search.
            assert unproved == 0, (alpha, unproved)
            assert (searched == 64) if alpha == 1.0 else (searched < 64), (alpha, searched)

    def test_alpha_400_raises_only_the_utility_overflow(self):
        # At alpha = 400 the utility of a rate below about 0.17 bit overflows
        # to -inf, and NumPy warns of it.  On links of the wider domain the
        # solver's flat test and slope signs add no other warning (an -inf
        # meeting a +inf would warn of an invalid value); none is silenced.
        rng = np.random.default_rng(27)
        n = 2 * allocator._SCAN_BLOCK + 16
        gw = 10 ** rng.uniform(-1.2, 3.0, n)
        gs = gw * 10 ** rng.uniform(0.0, 9.5, n)
        g = gate(gs, gw, np.minimum(rng.uniform(0.0, 1 - 1e-12, n) * np.maximum(beta_star(gs, gw), 0.0), 1.0))
        assert g.admitted.sum() > 2 * allocator._SCAN_BLOCK
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            delta = split(g, Strategy.OPTIMAL, FairnessConfig(alpha=400.0))
        assert {(w.category, str(w.message)) for w in caught} == {(RuntimeWarning, "overflow encountered in power")}
        on = g.admitted
        assert np.all((g.delta_lb[on] <= delta[on]) & (delta[on] <= g.delta_ub[on]))
