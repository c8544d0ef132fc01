import math
import tracemalloc

import numpy as np
import pytest

from noma_fair.fairness import FairnessConfig
from noma_fair.netsim import (
    NetworkConfig,
    NetworkRealization,
    PathlossModel,
    Strategy,
    TrialMetrics,
    StrategyMetrics,
    compute_sinrs,
    drop_network,
    evaluate_strategies,
    run_campaign,
)
from noma_fair.rates import oma_rate

from _oracles import received_power_mw_ref

SMALL = NetworkConfig(trials=4, seed=7)


class TestDropNetwork:
    def test_deterministic_given_seed_and_trial(self):
        a = drop_network(SMALL, 3)
        b = drop_network(SMALL, 3)
        assert np.array_equal(a.bs_xy, b.bs_xy)
        assert np.array_equal(a.user_xy, b.user_xy)

    def test_trials_differ(self):
        a = drop_network(SMALL, 0)
        b = drop_network(SMALL, 1)
        assert not np.array_equal(a.user_xy, b.user_xy)

    def test_poisson_counts(self):
        counts = [len(drop_network(SMALL, t).bs_xy) for t in range(10000)]
        mean = float(np.mean(counts))
        # mean of 1e4 draws from Poisson(25): 3 sigma is 0.15
        assert abs(mean - 25.0) < 0.15

    def test_positions_inside_window(self):
        net = drop_network(SMALL, 0)
        side = math.sqrt(SMALL.area_km2)
        assert np.all((net.bs_xy >= 0) & (net.bs_xy <= side))
        assert np.all((net.user_xy >= 0) & (net.user_xy <= side))

    def test_tiny_area_resamples_until_a_station_exists(self):
        cfg = NetworkConfig(trials=1, seed=3, area_km2=1e-3)
        net = drop_network(cfg, 0)
        assert len(net.bs_xy) >= 1
        assert net.resamples >= 0
        # empty user draws are fine downstream
        users = compute_sinrs(net, cfg)
        metrics = evaluate_strategies(users, [Strategy.OMA], FairnessConfig(alpha=1.0), 0.0)
        assert metrics.population == len(users)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(bs_density=0.0)
        with pytest.raises(ValueError):
            NetworkConfig(trials=0)


class TestComputeSinrs:
    def test_single_station_is_noise_limited(self):
        cfg = NetworkConfig(trials=1, seed=5)
        net = NetworkRealization(
            bs_xy=np.array([[0.5, 0.5]]),
            user_xy=np.array([[0.3, 0.4], [0.8, 0.1], [0.5, 0.5]]),
            side_km=1.0,
            seed=5,
            trial_index=0,
        )
        users = compute_sinrs(net, cfg)
        noise_mw = 10 ** (cfg.noise_power_dbm / 10)
        tx_mw = 10 ** (cfg.tx_power_dbm / 10)
        for u in users:
            assert u.serving_bs_id == 0
            assert u.gamma == pytest.approx(tx_mw * u.channel_gain / noise_mw, rel=1e-12)

    def test_association_tie_breaks_to_lower_station_id(self, monkeypatch):
        # At 0 dBm and a flat 0 dB pathloss the received powers are exactly
        # the fading draws, which here hand out the rows of prx.
        prx = np.array([[2.0, 2.0], [1.0, 3.0]])
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedFading(prx))
        cfg = NetworkConfig(
            trials=1,
            seed=5,
            tx_power_dbm=0.0,
            noise_power_dbm=10 * math.log10(0.5),
            pathloss=PathlossModel(intercept_db=0.0, slope_db=0.0),
        )
        net = NetworkRealization(
            bs_xy=np.array([[0.2, 0.2], [0.7, 0.7]]),
            user_xy=np.array([[0.4, 0.4], [0.6, 0.6]]),
            side_km=1.0,
            seed=5,
            trial_index=0,
        )
        users = compute_sinrs(net, cfg)
        assert [u.serving_bs_id for u in users] == [0, 1]
        assert users[0].gamma == pytest.approx(2.0 / (0.5 + 2.0), rel=1e-12)
        assert users[1].gamma == pytest.approx(3.0 / (0.5 + 1.0), rel=1e-12)

    def test_independent_recomputation_of_sinrs(self):
        # Straight-line recomputation from the (reproducible) power matrix.
        cfg = NetworkConfig(trials=1, seed=11)
        net = drop_network(cfg, 0)
        users = compute_sinrs(net, cfg)
        prx = received_power_mw_ref(net, cfg)  # same substream, same matrix
        noise_mw = 10 ** (cfg.noise_power_dbm / 10)
        rng = np.random.default_rng(0)
        for u in (users[i] for i in rng.choice(len(users), size=min(100, len(users)), replace=False)):
            others = [prx[u.user_id, b] for b in range(prx.shape[1]) if b != u.serving_bs_id]
            expected = prx[u.user_id, u.serving_bs_id] / (noise_mw + math.fsum(others))
            assert 10 * math.log10(u.gamma) == pytest.approx(
                10 * math.log10(expected), rel=1e-10
            )

    def test_min_distance_clamp_recorded(self):
        cfg = NetworkConfig(trials=1, seed=5, pathloss=PathlossModel(min_distance_km=0.2))
        net = drop_network(cfg, 0)
        compute_sinrs(net, cfg)
        assert net.clamped_links > 0

    def test_memory_stays_below_one_users_by_stations_matrix(self):
        # A 36 km^2 drop: about 4,300 users x 930 stations, a 31 MB matrix.
        cfg = NetworkConfig(trials=1, seed=1, area_km2=36.0)
        net = drop_network(cfg, 0)
        matrix_bytes = 8 * len(net.user_xy) * len(net.bs_xy)
        tracemalloc.start()
        try:
            users = compute_sinrs(net, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(users) == len(net.user_xy)
        assert peak < matrix_bytes, (peak, matrix_bytes)


class _FixedFading:
    """Stands in for the fading generator: each draw is the next rows of ``values``."""

    def __init__(self, values):
        self.values = values
        self.taken = 0

    def exponential(self, scale, size):
        rows = self.values[self.taken : self.taken + size[0]]
        self.taken += size[0]
        assert rows.shape == size
        return scale * rows


def first_trial(cfg, strategies, fairness, beta):
    """Every strategy on trial 0 of ``cfg``."""
    return evaluate_strategies(compute_sinrs(drop_network(cfg, 0), cfg), strategies, fairness, beta)


class TestRunTrial:
    """One trial: drop, SINRs and evaluate_strategies."""

    def test_oma_mean_rate_is_population_mean(self):
        cfg = NetworkConfig(trials=1, seed=9)
        users = compute_sinrs(drop_network(cfg, 0), cfg)
        metrics = evaluate_strategies(users, [Strategy.OMA], FairnessConfig(alpha=1.0), 0.0)
        m = metrics.per_strategy[Strategy.OMA]
        expected = float(np.mean([oma_rate(u.gamma) for u in users]))
        assert m.mean_oma_rate == pytest.approx(expected, rel=1e-12)
        assert m.pair_count == 0
        assert m.oma_count == metrics.population

    def test_counts_reconcile_for_all_strategies(self):
        cfg = NetworkConfig(trials=1, seed=9)
        metrics = first_trial(cfg, list(Strategy), FairnessConfig(alpha=1.0), 0.02)
        for m in metrics.per_strategy.values():
            assert 2 * m.pair_count + m.oma_count == metrics.population

    def test_perfect_sic_noma_beats_oma_throughput(self):
        cfg = NetworkConfig(trials=1, seed=9)
        metrics = first_trial(cfg, [Strategy.OPTIMAL, Strategy.OMA], FairnessConfig(alpha=1.0), 0.0)
        assert (
            metrics.per_strategy[Strategy.OPTIMAL].mean_t_alpha
            >= metrics.per_strategy[Strategy.OMA].mean_t_alpha
        )

    def test_near_far_strong_users_suffer_at_large_beta(self):
        cfg = NetworkConfig(trials=1, seed=9)
        metrics = first_trial(cfg, [Strategy.NEAR_FAR, Strategy.OMA], FairnessConfig(alpha=1.0), 0.3)
        assert (
            metrics.per_strategy[Strategy.NEAR_FAR].mean_strong_rate
            < metrics.per_strategy[Strategy.OMA].mean_strong_rate
        )

    def test_weak_rates_independent_of_beta_for_fixed_split(self):
        cfg = NetworkConfig(trials=1, seed=13)
        low = first_trial(cfg, [Strategy.NEAR_FAR], FairnessConfig(alpha=1.0), 0.01)
        high = first_trial(cfg, [Strategy.NEAR_FAR], FairnessConfig(alpha=1.0), 0.09)
        assert (
            low.per_strategy[Strategy.NEAR_FAR].mean_weak_rate
            == high.per_strategy[Strategy.NEAR_FAR].mean_weak_rate
        )

    def test_metrics_validation(self):
        with pytest.raises(ValueError):
            TrialMetrics(
                population=5,
                per_strategy={
                    Strategy.OMA: StrategyMetrics(None, None, None, None, None, 1, 5)
                },
            )


class TestRunCampaign:
    def test_single_point_single_trial_matches_evaluate_strategies(self):
        cfg = NetworkConfig(trials=1, seed=21)
        rows = run_campaign(cfg, [(1.0, 0.02)], [Strategy.OMA, Strategy.NEAR_FAR])
        metrics = first_trial(cfg, [Strategy.OMA, Strategy.NEAR_FAR], FairnessConfig(alpha=1.0), 0.02)
        by_key = {(r.strategy, r.metric): r for r in rows}
        oma = metrics.per_strategy[Strategy.OMA]
        assert by_key[("oma", "t_alpha")].value == oma.mean_t_alpha
        assert by_key[("oma", "t_alpha")].trials == 1
        assert by_key[("oma", "t_alpha")].stderr == 0.0
        nf = metrics.per_strategy[Strategy.NEAR_FAR]
        assert by_key[("near_far", "mur_strong")].value == nf.mean_strong_rate

    def test_stderr_scales_with_trial_count(self):
        base = NetworkConfig(trials=40, seed=2)
        big = NetworkConfig(trials=160, seed=2)
        r40 = run_campaign(base, [(1.0, 0.0)], [Strategy.OMA])
        r160 = run_campaign(big, [(1.0, 0.0)], [Strategy.OMA])
        s40 = next(r.stderr for r in r40 if r.metric == "t_alpha")
        s160 = next(r.stderr for r in r160 if r.metric == "t_alpha")
        ratio = s40 / s160
        assert 1.4 < ratio < 2.9  # ideal: 2

    @pytest.mark.parametrize("threads", [2, 3, 7])  # 7 workers for 6 trials
    def test_thread_count_does_not_change_results(self, threads):
        cfg = NetworkConfig(trials=6, seed=33)
        sweep = [(1.0, 0.01), (3.0, 0.05)]
        strategies = [Strategy.OPTIMAL, Strategy.NEAR_FAR, Strategy.OMA]
        seq = run_campaign(cfg, sweep, strategies, threads=1)
        par = run_campaign(cfg, sweep, strategies, threads=threads)
        assert seq == par

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(SMALL, [], [Strategy.OMA])

    @pytest.mark.parametrize(
        "sweep, strategies, message",
        [
            ([(1.0, 0.01)], [Strategy.OMA, Strategy.OMA], "repeated strategy 'oma'"),
            ([(1.0, 0.01), (2.0, 0.0), (1, 0.01)], [Strategy.OMA], r"repeated sweep point \(1, 0.01\)"),
        ],
    )
    def test_repeats_rejected(self, sweep, strategies, message):
        with pytest.raises(ValueError, match=message):
            run_campaign(SMALL, sweep, strategies)
