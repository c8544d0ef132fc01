import numpy as np
import pytest

from noma_fair.bounds import (
    allocation_bounds,
    beta_star,
    delta_lower_bound,
    delta_upper_bound,
    msd_threshold,
    pairing_criterion,
)
from noma_fair.rates import PairLink

from _oracles import (
    bisect_delta_strong,
    bisect_delta_weak,
    grid_feasible,
    noma_rate_strong_ref,
    noma_rate_weak_ref,
    oma_rate_ref,
    sample_ordered_pairs,
)

GS_9DB = 7.943
GW_2DB = 1.585


class TestDeltaUpperBound:
    def test_exact_value(self):
        assert delta_upper_bound(3.0) == 1.0 / 3.0

    def test_small_sinr_limit(self):
        assert delta_upper_bound(1e-12) == pytest.approx(0.5, abs=1e-9)

    def test_matches_bisection_root(self):
        # Defining equality: weak NOMA rate equals weak OMA rate at the bound.
        assert delta_upper_bound(GW_2DB) == pytest.approx(
            bisect_delta_weak(GW_2DB), abs=1e-10
        )

    def test_range(self):
        rng = np.random.default_rng(1)
        for gw in 10 ** rng.uniform(-2, 3, 200):
            assert 0.0 < delta_upper_bound(gw) <= 0.5

    def test_domain_error(self):
        with pytest.raises(ValueError):
            delta_upper_bound(-1.0)


class TestDeltaLowerBound:
    def test_perfect_sic_value(self):
        assert delta_lower_bound(3.0, 0.0) == 1.0 / 3.0

    def test_full_imperfection_value(self):
        assert delta_lower_bound(3.0, 1.0) == 2.0 / 3.0

    def test_matches_bisection_root(self):
        assert delta_lower_bound(GS_9DB, 0.05) == pytest.approx(
            bisect_delta_strong(GS_9DB, 0.05), abs=1e-10
        )

    def test_strictly_increasing_in_beta(self):
        rng = np.random.default_rng(2)
        for gs in 10 ** rng.uniform(0, 3, 100):
            betas = np.sort(rng.uniform(0, 1, 10))
            vals = delta_lower_bound(gs, betas)
            assert np.all(np.diff(vals) > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            delta_lower_bound(0.0, 0.1)
        with pytest.raises(ValueError):
            delta_lower_bound(1.0, 1.5)


class TestMsdThreshold:
    def test_vanishing_weak_sinr(self):
        # The threshold climbs to gamma_s itself, making the test unmeetable
        # in the limit.
        assert msd_threshold(5.0, 1e-13) == pytest.approx(5.0, rel=1e-6)

    def test_reference_pair_satisfied_and_grid_confirmed(self):
        crit = pairing_criterion(GS_9DB, GW_2DB)
        assert crit.satisfied
        assert grid_feasible(GS_9DB, GW_2DB, beta=0.0)

    def test_equal_sinrs_rejected(self):
        assert msd_threshold(3.0, 3.0) == 0.5
        assert not pairing_criterion(3.0, 3.0).satisfied


class TestBetaStar:
    def test_equal_sinrs_give_zero(self):
        assert beta_star(3.0, 3.0) == 0.0
        assert beta_star(7.0, 7.0) == 0.0

    def test_matches_interval_closing_root(self):
        # beta* is where delta_lb(beta) meets delta_ub.
        ub = delta_upper_bound(GW_2DB)
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if delta_lower_bound(GS_9DB, mid) < ub:
                lo = mid
            else:
                hi = mid
        assert beta_star(GS_9DB, GW_2DB) == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_negative_for_inverted_pair(self):
        assert beta_star(1.0, 2.0) < 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta_star(-1.0, 1.0)


class TestAllocationBounds:
    def test_degenerate_pair_collapses(self):
        b = allocation_bounds(PairLink(gamma_s=3.0, gamma_w=3.0, beta=0.0))
        assert b.delta_lb == b.delta_ub == 1.0 / 3.0

    def test_reference_pair_feasible(self):
        b = allocation_bounds(PairLink(gamma_s=GS_9DB, gamma_w=GW_2DB, beta=0.0))
        assert b.delta_lb < b.delta_ub
        assert grid_feasible(GS_9DB, GW_2DB)

    def test_interval_closes_at_beta_star(self):
        bs = beta_star(GS_9DB, GW_2DB)
        b = allocation_bounds(PairLink(gamma_s=GS_9DB, gamma_w=GW_2DB, beta=bs))
        assert abs(b.delta_ub - b.delta_lb) < 1e-9


class TestProperties:
    def test_bound_rate_consistency_both_directions(self):
        # R_w above OMA iff delta below the upper bound, and R_s above OMA
        # iff delta above the lower bound.
        rng = np.random.default_rng(11)
        gs, gw = sample_ordered_pairs(rng, 300)
        betas = rng.uniform(0, 1, 300)
        deltas = rng.uniform(0.001, 0.999, 300)
        weak_above = noma_rate_weak_ref(gw, deltas) > oma_rate_ref(gw)
        strong_above = noma_rate_strong_ref(gs, betas, deltas) > oma_rate_ref(gs)
        assert np.array_equal(weak_above, deltas < delta_upper_bound(gw))
        assert np.array_equal(strong_above, deltas > delta_lower_bound(gs, betas))

    def test_criterion_is_stricter_than_interval_nonempty(self):
        # The pairing criterion implies a nonempty split interval at beta=0,
        # but not conversely: it matches a + 1/b > 1 + b exactly, which is a
        # strictly stronger cut than a > b (interval nonempty).
        rng = np.random.default_rng(12)
        gs, gw = sample_ordered_pairs(rng, 5000)
        satisfied = (gs - gw) > msd_threshold(gs, gw)
        a, b = np.sqrt(1 + gs), np.sqrt(1 + gw)
        assert np.array_equal(satisfied, a + 1 / b > 1 + b)
        nonempty = delta_lower_bound(gs, 0.0) < delta_upper_bound(gw)
        assert np.all(nonempty[satisfied])
        assert np.any(nonempty & ~satisfied)

    def test_beta_star_closes_interval_for_random_pairs(self):
        rng = np.random.default_rng(13)
        gs, gw = sample_ordered_pairs(rng, 2000)
        bs = beta_star(gs, gw)
        keep = bs > 1e-6
        gs, gw, bs = gs[keep], gw[keep], bs[keep]
        betas = rng.uniform(0, 1, len(gs))
        nonempty = delta_lower_bound(gs, betas) < delta_upper_bound(gw)
        assert np.array_equal(nonempty, betas < bs)

    def test_interval_width_shrinks_with_beta(self):
        rng = np.random.default_rng(14)
        gs, gw = sample_ordered_pairs(rng, 100)
        betas = np.linspace(0, 1, 15)
        for i in range(len(gs)):
            width = delta_upper_bound(gw[i]) - delta_lower_bound(gs[i], betas)
            assert np.all(np.diff(width) < 0)
