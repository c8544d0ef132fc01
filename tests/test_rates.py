import math
import re

import mpmath
import numpy as np
import pytest

from noma_fair.bounds import beta_star, delta_lower_bound, delta_upper_bound, msd_threshold
from noma_fair.fairness import alpha_throughput, utility
from noma_fair.pairing import user_table
from noma_fair.rates import (
    PairLink,
    PowerAllocation,
    db_to_linear,
    linear_to_db,
    noma_rates,
    noma_sinr_strong,
    noma_sinr_weak,
    oma_rate,
)

from _oracles import sample_ordered_pairs


def alloc(delta_s):
    return PowerAllocation(delta_s)


class TestOmaRate:
    def test_exact_value(self):
        # (1/2) * log2(4)
        assert oma_rate(3.0) == 1.0

    def test_zero_limit(self):
        r = oma_rate(1e-12)
        assert 0.0 < r < 1e-11

    def test_nine_db_against_high_precision(self):
        gamma = db_to_linear(9.0)
        with mpmath.workdps(50):
            expected = float(mpmath.log(1 + mpmath.mpf(gamma), 2) / 2)
        assert oma_rate(gamma) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            oma_rate(bad)

    def test_vectorized(self):
        out = oma_rate(np.array([3.0, 15.0]))
        assert out.tolist() == [1.0, 2.0]


class TestNomaSinrs:
    def test_perfect_sic_strong(self):
        s = noma_sinr_strong(3.0, 0.0, 1.0 / 3.0)
        assert s == pytest.approx(1.0, rel=1e-15)

    def test_weak(self):
        w = noma_sinr_weak(3.0, 1.0 / 3.0)
        assert w == pytest.approx(1.0, rel=1e-15)

    def test_full_imperfection_strong(self):
        s = noma_sinr_strong(3.0, 1.0, 1.0 / 3.0)
        assert s == pytest.approx(1.0 / 3.0, rel=1e-14)


class TestNomaRates:
    def test_strong_boundary_equals_oma(self):
        link = PairLink(gamma_s=3.0, gamma_w=3.0, beta=0.0)
        r_s, _ = noma_rates(link, alloc(1.0 / 3.0))
        assert r_s == pytest.approx(oma_rate(3.0), rel=1e-15)

    def test_weak_boundary_equals_oma(self):
        link = PairLink(gamma_s=3.0, gamma_w=3.0, beta=0.0)
        _, r_w = noma_rates(link, alloc(1.0 / 3.0))
        assert r_w == pytest.approx(oma_rate(3.0), rel=1e-15)

    def test_against_high_precision(self):
        gamma_s, gamma_w, beta, delta = 7.943, 1.585, 0.03, 0.3
        link = PairLink(gamma_s=gamma_s, gamma_w=gamma_w, beta=beta)
        r_s, r_w = noma_rates(link, alloc(delta))
        with mpmath.workdps(50):
            gs, gw, b, d = map(mpmath.mpf, (gamma_s, gamma_w, beta, delta))
            sinr_s = d * gs / (1 + b * (1 - d) * gs)
            sinr_w = (1 - d) * gw / (1 + d * gw)
            exp_s = float(mpmath.log(1 + sinr_s, 2))
            exp_w = float(mpmath.log(1 + sinr_w, 2))
        assert r_s == pytest.approx(exp_s, rel=1e-13)
        assert r_w == pytest.approx(exp_w, rel=1e-13)


class TestValidation:
    def test_pair_link_ordering(self):
        with pytest.raises(ValueError):
            PairLink(gamma_s=1.0, gamma_w=2.0, beta=0.0)

    def test_pair_link_equal_sinrs_accepted(self):
        PairLink(gamma_s=2.0, gamma_w=2.0, beta=0.5)

    @pytest.mark.parametrize("db", [-30.0, -2.5, 0.0, 2.0, 9.0, 60.0])
    def test_linear_to_db_inverts_db_to_linear(self, db):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_linear_to_db_rejects_a_non_positive_value(self, value):
        with pytest.raises(ValueError, match=rf"^cannot convert non-positive value {value!r} to dB$"):
            linear_to_db(value)

    @pytest.mark.parametrize("beta", [-0.1, 1.1])
    def test_pair_link_beta_range(self, beta):
        with pytest.raises(ValueError):
            PairLink(gamma_s=2.0, gamma_w=1.0, beta=beta)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
    def test_power_allocation_range(self, delta):
        with pytest.raises(ValueError):
            PowerAllocation(delta)

    def test_power_split_sums_to_one(self):
        # The weak user is given the rest of the power, 1 - delta_s.
        _, r_w = noma_rates(PairLink(gamma_s=4.0, gamma_w=2.0), PowerAllocation(0.3))
        assert r_w == pytest.approx(math.log2(1.0 + (1.0 - 0.3) * 2.0 / (1.0 + 0.3 * 2.0)), rel=1e-15)


# Each entry: (argument name, call with the bad value in that argument, accepts arrays)
POSITIVE_FINITE_ARGS = {
    "oma_rate": ("gamma", oma_rate, True),
    "delta_upper_bound": ("gamma_w", delta_upper_bound, True),
    "delta_lower_bound": ("gamma_s", lambda v: delta_lower_bound(v, 0.1), True),
    "msd_threshold.gamma_s": ("gamma_s", lambda v: msd_threshold(v, 1.0), True),
    "msd_threshold.gamma_w": ("gamma_w", lambda v: msd_threshold(5.0, v), True),
    "beta_star.gamma_s": ("gamma_s", lambda v: beta_star(v, 1.0), True),
    "beta_star.gamma_w": ("gamma_w", lambda v: beta_star(5.0, v), True),
    "utility": ("x", lambda v: utility(v, 2.0), True),
    "alpha_throughput.r_s": ("r_s", lambda v: alpha_throughput(v, 1.0, 2.0), True),
    "alpha_throughput.r_w": ("r_w", lambda v: alpha_throughput(1.0, v, 2.0), True),
    "PairLink.gamma_s": ("gamma_s", lambda v: PairLink(gamma_s=v, gamma_w=1.0), False),
    "PairLink.gamma_w": ("gamma_w", lambda v: PairLink(gamma_s=5.0, gamma_w=v), False),
    "user_table.gamma": ("gamma", lambda v: user_table([0], [0], [v], [1.0]), False),
    "user_table.channel_gain": ("channel_gain", lambda v: user_table([0], [0], [1.0], [v]), False),
}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case", POSITIVE_FINITE_ARGS)
def test_positive_finite_check_names_its_argument(case, bad):
    name, call, accepts_arrays = POSITIVE_FINITE_ARGS[case]
    for value in [bad, np.array([1.0, bad])] if accepts_arrays else [bad]:
        with pytest.raises(ValueError, match=rf"\b{name} must be positive and finite"):
            call(value)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["gamma", "channel_gain"])
def test_user_table_names_its_first_failing_user(column, bad):
    # Users 10 and 11 are valid; 12 and 13 fail in the one column.
    values = {"gamma": [1.0, 2.0, 3.0, 4.0], "channel_gain": [1e-9, 2e-9, 3e-9, 4e-9]}
    values[column][2:] = [bad, bad]
    expected = f"user 12: {column} must be positive and finite, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        user_table([10, 11, 12, 13], [0, 0, 1, 1], values["gamma"], values["channel_gain"])


def test_user_table_checks_users_in_order_and_gamma_before_gain():
    # User 1 fails in its gain only; user 2 fails in both columns.
    with pytest.raises(ValueError, match=r"^user 1: channel_gain must be positive and finite, got 0\.0$"):
        user_table([0, 1, 2], [0, 0, 0], [1.0, 1.0, math.nan], [1.0, 0.0, math.nan])
    with pytest.raises(ValueError, match=r"^user 2: gamma must be positive and finite, got nan$"):
        user_table([0, 1, 2], [0, 0, 0], [1.0, 1.0, math.nan], [1.0, 1.0, -1.0])


def test_positive_finite_check_names_an_arrays_first_failing_entry():
    # Entries 1 and 2 fail; the message names the first and counts both.
    expected = "x must be positive and finite, got 0.0 at flat index 1 (2 of 4 entries fail)"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        utility(np.array([[1.0, 0.0], [math.nan, 2.0]]), 2.0)


def test_positive_finite_check_passes_an_empty_array():
    assert utility(np.array([]), 2.0).shape == (0,)
    assert oma_rate(np.zeros((0, 3))).shape == (0, 3)


class TestProperties:
    """Randomized checks of the rate functions' shape."""

    def test_strong_increasing_weak_decreasing_in_delta(self):
        rng = np.random.default_rng(101)
        gs, gw = sample_ordered_pairs(rng, 50)
        deltas = np.sort(rng.uniform(0.01, 0.99, 40))
        for i in range(len(gs)):
            link = PairLink(gamma_s=gs[i], gamma_w=gw[i], beta=rng.uniform(0, 1))
            rates = [noma_rates(link, alloc(d)) for d in deltas]
            r_s = np.array([r[0] for r in rates])
            r_w = np.array([r[1] for r in rates])
            assert np.all(np.diff(r_s) > 0)
            assert np.all(np.diff(r_w) < 0)

    def test_strong_rate_degrades_with_beta_weak_unaffected(self):
        rng = np.random.default_rng(202)
        gs, gw = sample_ordered_pairs(rng, 50)
        betas = np.sort(rng.uniform(0, 1, 20))
        for i in range(len(gs)):
            delta = rng.uniform(0.05, 0.95)
            rates = [
                noma_rates(PairLink(gamma_s=gs[i], gamma_w=gw[i], beta=b), alloc(delta))
                for b in betas
            ]
            r_s = np.array([r[0] for r in rates])
            r_w = np.array([r[1] for r in rates])
            assert np.all(np.diff(r_s) <= 0)
            assert np.unique(r_w).size == 1

    def test_perfect_sic_ceiling(self):
        rng = np.random.default_rng(303)
        gs, gw = sample_ordered_pairs(rng, 100)
        for i in range(len(gs)):
            delta = rng.uniform(0.01, 0.99)
            link = PairLink(gamma_s=gs[i], gamma_w=gw[i], beta=0.0)
            r_s, _ = noma_rates(link, alloc(delta))
            assert r_s == pytest.approx(math.log2(1 + delta * gs[i]), rel=1e-14)

    def test_boundary_equalities_at_bounds(self):
        # Allocating exactly at a bound reproduces that user's OMA rate.
        rng = np.random.default_rng(404)
        gs, gw = sample_ordered_pairs(rng, 200)
        checked = 0
        for i in range(len(gs)):
            bs = beta_star(gs[i], gw[i])
            if bs <= 0:
                continue
            beta = rng.uniform(0, min(bs, 1.0)) * 0.999
            link = PairLink(gamma_s=gs[i], gamma_w=gw[i], beta=beta)
            r_s, _ = noma_rates(link, alloc(delta_lower_bound(gs[i], beta)))
            _, r_w = noma_rates(link, alloc(delta_upper_bound(gw[i])))
            assert r_s == pytest.approx(oma_rate(gs[i]), rel=1e-12)
            assert r_w == pytest.approx(oma_rate(gw[i]), rel=1e-12)
            checked += 1
        assert checked > 100
