import math

import mpmath
import numpy as np
import pytest

from noma_fair import allocator
from noma_fair.fairness import FairnessConfig, alpha_throughput, utility

# Alphas outside the domain: negative, NaN and infinite.
BAD_ALPHAS = (-0.5, math.nan, math.inf, -math.inf)


def config_error(alpha) -> str:
    """FairnessConfig's message for a bad alpha."""
    with pytest.raises(ValueError) as info:
        FairnessConfig(alpha=alpha)
    return str(info.value)


class TestUtility:
    def test_log_branch_at_one(self):
        assert utility(1.0, 1.0) == 0.0

    def test_power_branch(self):
        assert utility(1.0, 3.0) == -0.5

    def test_half_alpha_against_high_precision(self):
        with mpmath.workdps(50):
            expected = float(mpmath.mpf(2) ** mpmath.mpf("0.5") / mpmath.mpf("0.5"))
        assert utility(2.0, 0.5) == pytest.approx(expected, rel=1e-15)
        assert utility(2.0, 0.5) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    def test_throughput_limit(self):
        assert utility(3.7, 0.0) == 3.7

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            utility(bad, 1.0)

    def test_negative_alpha_rejected(self):
        # So are NaN and infinite alphas, with FairnessConfig's message.
        for alpha in BAD_ALPHAS:
            with pytest.raises(ValueError) as info:
                utility(1.0, alpha)
            assert str(info.value) == config_error(alpha)

    def test_strictly_increasing_and_concave(self):
        rng = np.random.default_rng(21)
        xs = np.sort(rng.uniform(0.05, 20.0, 200))
        for alpha in [0.3, 1.0, 2.0, 5.0]:
            u = utility(xs, alpha)
            slopes = np.diff(u) / np.diff(xs)
            assert np.all(slopes > 0)
            assert np.all(np.diff(slopes) < 0)


class TestAlphaThroughput:
    def test_geometric_mean_of_ones(self):
        assert alpha_throughput(1.0, 1.0, 1.0) == 1.0

    def test_geometric_mean(self):
        assert alpha_throughput(4.0, 1.0, 1.0) == 2.0

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 20.0])
    def test_equal_rates_are_a_fixed_point(self, alpha):
        c = 2.37
        assert alpha_throughput(c, c, alpha) == pytest.approx(c, rel=1e-12)

    def test_arithmetic_mean_at_alpha_zero(self):
        assert alpha_throughput(3.0, 1.0, 0.0) == pytest.approx(2.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            alpha_throughput(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            alpha_throughput(1.0, -1.0, 2.0)
        for alpha in BAD_ALPHAS:
            with pytest.raises(ValueError) as info:
                alpha_throughput(2.0, 3.0, alpha)
            assert str(info.value) == config_error(alpha)

    def test_bounded_by_min_and_max(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            r_s, r_w = rng.uniform(0.01, 10.0, 2)
            alpha = rng.uniform(0.01, 40.0)
            t = alpha_throughput(r_s, r_w, alpha)
            assert min(r_s, r_w) - 1e-12 <= t <= max(r_s, r_w) + 1e-12

    def test_non_increasing_in_alpha(self):
        rng = np.random.default_rng(23)
        alphas = np.linspace(0.0, 30.0, 40)
        for _ in range(50):
            r_s = rng.uniform(1.0, 10.0)
            r_w = rng.uniform(0.05, r_s * 0.9)
            ts = np.array([alpha_throughput(r_s, r_w, a) for a in alphas])
            assert np.all(np.diff(ts) < 1e-12)

    def test_continuity_through_alpha_one(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            r_s, r_w = rng.uniform(0.05, 10.0, 2)
            gm = math.sqrt(r_s * r_w)
            assert abs(alpha_throughput(r_s, r_w, 1.0 - 1e-6) - gm) < 1e-4
            assert abs(alpha_throughput(r_s, r_w, 1.0 + 1e-6) - gm) < 1e-4

    @pytest.mark.parametrize("gap", [1e-2, 1e-6, 1e-10, 1e-15])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_accurate_next_to_alpha_one(self, gap, side):
        # The log-sum-exp form divides its rounding error by 1 - alpha; at
        # alpha = 1 - 1e-15 it was 8% off and left [min, max] for equal rates.
        alpha = 1.0 + side * gap
        for r_s, r_w in [(0.5, 0.7), (2.37, 2.37), (9.5, 1e-4)]:
            with mpmath.workdps(60):
                p = 1 - mpmath.mpf(alpha)
                mean = ((mpmath.mpf(r_s) ** p + mpmath.mpf(r_w) ** p) / 2) ** (1 / p)
            assert alpha_throughput(r_s, r_w, alpha) == pytest.approx(float(mean), rel=1e-13)

    def test_large_alpha_stays_finite(self):
        assert math.isfinite(alpha_throughput(9.5, 1e-4, 35.0))


class TestFairnessConfig:
    def test_defaults(self):
        cfg = FairnessConfig(alpha=1.0)
        assert cfg.tau == 0.5
        assert allocator._SOLVER_TOL == 1e-9  # no longer a setting

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-1.0),
            dict(alpha=1.0, tau=0.0),
            dict(alpha=1.0, tau=1.0),
            dict(alpha=math.inf),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FairnessConfig(**kwargs)
