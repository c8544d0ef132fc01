import errno
import math
import os
import signal
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from noma_fair import netsim
from noma_fair.cli import main
from noma_fair.fairness import FairnessConfig
from noma_fair.netsim import (
    _METRICS,
    NetworkConfig,
    NetworkRealization,
    Strategy,
    TrialMetrics,
    StrategyMetrics,
    _campaign_table,
    compute_sinrs,
    drop_network,
    evaluate_strategies,
    run_campaign,
)
from noma_fair.rates import oma_rate
from noma_fair.report import ResultRow

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
        # Mean 0.025 stations: substreams [3, 0, 0, k] for k < 4 draw none.
        cfg = NetworkConfig(trials=1, seed=3, area_km2=1e-3)
        for k in range(4):
            assert np.random.default_rng([3, 0, 0, k]).poisson(cfg.bs_density * cfg.area_km2) == 0
        net = drop_network(cfg, 0)
        assert len(net.bs_xy) >= 1
        assert net.resamples == 4
        # empty user draws are fine downstream
        users = compute_sinrs(net, cfg)
        metrics = evaluate_strategies(users, [Strategy.OMA], FairnessConfig(alpha=1.0), 0.0)
        assert metrics.population == len(users)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(bs_density=0.0)
        with pytest.raises(ValueError):
            NetworkConfig(trials=0)
        with pytest.raises(ValueError, match="seed"):
            NetworkConfig(seed=-1)

    def test_rejects_a_link_budget_that_leaves_no_rate(self):
        # The SNR of a user at the minimum distance, with unit fading and no
        # interference: 46 + 95 - 128.1 + 37.6 * 3 = 125.7 dB by default.
        keys = ("tx_power_dbm", "noise_power_dbm", "pathloss_intercept_db", "pathloss_slope_db",
                "pathloss_min_distance_km")
        for changed in ({"noise_power_dbm": 300.0}, {"tx_power_dbm": -250.0}, {"pathloss_intercept_db": 450.0},
                        {"pathloss_slope_db": -60.0}, {"pathloss_min_distance_km": 1e6}):
            with pytest.raises(ValueError) as caught:
                NetworkConfig(**changed)
            assert all(key in str(caught.value) for key in keys), caught.value
        # 1 + SNR rounds to 1 below about -159.5 dB of SNR (noise above about 190.2 dBm).
        assert NetworkConfig(noise_power_dbm=150.0).noise_power_dbm == 150.0
        assert NetworkConfig(noise_power_dbm=190.0).noise_power_dbm == 190.0
        with pytest.raises(ValueError, match=r"= -160\.3 dB leaves a user at that distance an OMA rate of 0$"):
            NetworkConfig(noise_power_dbm=191.0)

    def test_rejects_a_window_that_rarely_holds_a_station(self):
        # About 1 / (bs_density * area_km2) draws until a station exists.
        for density, area in ((1e-9, 1.0), (0.01, 0.05)):
            with pytest.raises(ValueError, match=r"^bs_density \* area_km2 must be >= 0\.001, got "):
                NetworkConfig(bs_density=density, area_km2=area)
        assert NetworkConfig(bs_density=1e-3).bs_density == 1e-3

    @pytest.mark.parametrize("key, value", [("trials", 2.5), ("trials", 3.0), ("seed", 1.5), ("seed", "1"),
                                            ("trials", True), ("seed", False)])
    def test_trials_and_seed_must_be_integers(self, key, value):
        # Else a float trial count fails in range() and a float seed in NumPy's
        # seeding, blamed on trial 0; both are named as the key and its value.
        # A bool is a Python int, but not a trial count or a seed.
        with pytest.raises(ValueError) as caught:
            NetworkConfig(**{key: value})
        assert str(caught.value) == f"{key} must be an integer >= {int(key == 'trials')}, got {value!r}"

    def test_campaign_rows_are_the_row_table_with_its_coded_columns_expanded(self):
        # The campaign hands the render its codes: the key columns come as
        # (codes, distinct values), coded by the rows' sweep point, strategy and
        # metric; the mean, count and stderr columns are lists.
        sweep = [(a, b) for a in (0.0, 1, 25.0) for b in (0.01, 0.1)]
        table = _campaign_table(SMALL, sweep, [Strategy.NEAR_FAR, Strategy.OMA], tau=0.5, threads=1)
        assert [isinstance(column, tuple) for column in table] == [True] * 6 + [False] * 3
        assert [distinct for _, distinct in table[2:6]] == [[None], [None], ["near_far", "oma"], list(_METRICS)]
        columns = [[column[1][c] for c in column[0]] if isinstance(column, tuple) else column for column in table]
        rows = run_campaign(SMALL, sweep, [Strategy.NEAR_FAR, Strategy.OMA], tau=0.5)
        assert len(rows) == len(columns[0]) and {type(row.alpha) for row in rows} == {int, float}
        assert list(map(repr, rows)) == list(map(repr, map(ResultRow, *columns)))

    def test_numpy_integer_trials_and_seed_are_accepted(self):
        sweep = [(1.0, 0.01)]
        given = run_campaign(NetworkConfig(trials=np.int64(2), seed=np.uint32(3)), sweep, [Strategy.OMA])
        assert list(map(repr, given)) == list(map(repr, run_campaign(NetworkConfig(trials=2, seed=3), sweep, [Strategy.OMA])))


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
        assert users.user_id.tolist() == [0, 1, 2]
        assert users.serving_bs_id.tolist() == [0, 0, 0]
        assert users.gamma == pytest.approx(tx_mw * users.channel_gain / noise_mw, rel=1e-12)

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
            pathloss_intercept_db=0.0,
            pathloss_slope_db=0.0,
        )
        net = NetworkRealization(
            bs_xy=np.array([[0.2, 0.2], [0.7, 0.7]]),
            user_xy=np.array([[0.4, 0.4], [0.6, 0.6]]),
            side_km=1.0,
            seed=5,
            trial_index=0,
        )
        users = compute_sinrs(net, cfg)
        assert users.serving_bs_id.tolist() == [0, 1]
        assert users.gamma == pytest.approx([2.0 / (0.5 + 2.0), 3.0 / (0.5 + 1.0)], rel=1e-12)

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
        cfg = NetworkConfig(trials=1, seed=5, pathloss_min_distance_km=0.2)
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

    def exponential(self, size):
        rows = self.values[self.taken : self.taken + size[0]]
        self.taken += size[0]
        assert rows.shape == size
        return rows


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
        expected = float(np.mean(oma_rate(users.gamma)))
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

    def test_oma_rates_gathered_once_per_served_mask(self, monkeypatch):
        # At a beta every gated strategy serves the same users OMA, near_far
        # the singles and oma everyone, at every alpha: an mc-fast-shaped
        # trial gathers the OMA rates (the one-dimensional _means calls) at
        # most once per beta and twice more, not once per table row.
        gathers = []
        means = netsim._means

        def counted(x):
            gathers.append(x.ndim == 1)
            return means(x)

        monkeypatch.setattr(netsim, "_means", counted)
        cfg = NetworkConfig(trials=1, seed=1)
        users = compute_sinrs(drop_network(cfg, 0), cfg)
        fairs = [FairnessConfig(alpha=a) for a in (0.5, 1.0, 3.0, 25.0)]
        betas = [0.01, 0.04, 0.08]
        strategies = [Strategy.SUBOPTIMAL, Strategy.UPPER_BOUND, Strategy.LOWER_BOUND, Strategy.NEAR_FAR, Strategy.OMA]
        table = netsim._trial_tables([users], strategies, fairs, betas)[0]
        assert table.shape[:3] == (len(fairs), len(betas), len(strategies))
        assert 2 < sum(gathers) <= len(betas) + 2 < table[..., 0].size


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

    @pytest.mark.parametrize("threads", [2, 3, 4, 7])  # 4: uneven shares; 7 threads for 6 trials
    def test_thread_count_does_not_change_results(self, threads, monkeypatch, forks):
        # A budget of one entry forks a child for every share, even of one trial, on Linux.
        monkeypatch.setattr(netsim, "_CHUNK_ENTRIES", 1)
        cfg = NetworkConfig(trials=6, seed=33)
        sweep = [(a, b) for a in (1.0, 3.0) for b in (0.01, 0.05)]
        strategies = [Strategy.OPTIMAL, Strategy.NEAR_FAR, Strategy.OMA]
        seq = run_campaign(cfg, sweep, strategies, threads=1)
        par = run_campaign(cfg, sweep, strategies, threads=threads)
        assert seq == par
        assert len(forks) == (min(threads, 6) - 1 if sys.platform == "linux" else 0)

    @pytest.mark.skipif(sys.platform != "linux", reason="campaigns fork on Linux only")
    def test_a_worker_is_forked_only_for_a_chunk_budget_of_work(self, forks):
        # At --threads 2, the benchmark's mc-fast shape (about 10.5k entries a
        # trial) runs in one process at two trials and forks from 50; its
        # mc-optimal shape (about 41.3k, 35.3k of them the optimal scan's 98
        # points per candidate link) runs in one process up to 12 trials and
        # forks from 13; a 36 km2 oma window (about 3.9M, the SINR matrix)
        # forks at two.
        fast = [(a, b) for a in (0.5, 1.0, 3.0, 25.0) for b in (0.01, 0.04, 0.08)]
        closed = [Strategy.SUBOPTIMAL, Strategy.UPPER_BOUND, Strategy.LOWER_BOUND, Strategy.NEAR_FAR, Strategy.OMA]
        made = []
        for trials in (2, 49, 50):
            run_campaign(NetworkConfig(trials=trials), fast, closed, threads=2)
            made.append(len(forks))
        acceptance = [(1.0, b) for b in (0.01, 0.02, 0.04, 0.06, 0.08, 0.1)]
        strategies = [Strategy.OPTIMAL, Strategy.SUBOPTIMAL, Strategy.NEAR_FAR, Strategy.OMA]
        for trials in (2, 12, 13):
            run_campaign(NetworkConfig(trials=trials), acceptance, strategies, threads=2)
            made.append(len(forks))
        run_campaign(NetworkConfig(trials=2, area_km2=36.0), [(1.0, 0.04)], [Strategy.OMA], threads=2)
        made.append(len(forks))
        assert made == [0, 0, 1, 1, 1, 2, 3]

    @pytest.mark.parametrize("budget", [None, 3500])  # one chunk of six trials; chunks of three
    def test_failure_inside_a_chunk_names_its_trial_and_point(self, monkeypatch, budget):
        # Trials 2 and 4 fail, trial 4 at an earlier point.  The failing chunk
        # is re-run a trial at a time, so the lower trial and its first
        # failing (alpha, beta) are named.
        cfg = NetworkConfig(trials=6, seed=5)
        gammas = {t: set(compute_sinrs(drop_network(cfg, t), cfg).gamma.tolist()) for t in (2, 4)}
        split, tables, chunks = netsim.split, netsim._trial_tables, []

        def failing(gate, strategy, fairness):
            here, betas = set(gate.gamma_s.tolist()), gate.beta.ravel().tolist()
            if here & gammas[2] and fairness.alpha == 3.0 and 0.05 in betas:
                raise ArithmeticError("boom in trial 2")
            if here & gammas[4]:
                raise ArithmeticError("boom in trial 4")
            return split(gate, strategy, fairness)

        def counted(chunk, *args):
            chunks.append(len(chunk))
            return tables(chunk, *args)

        monkeypatch.setattr(netsim, "split", failing)
        monkeypatch.setattr(netsim, "_trial_tables", counted)
        if budget is not None:
            monkeypatch.setattr(netsim, "_CHUNK_ENTRIES", budget)
        sweep = [(a, b) for a in (1.0, 3.0) for b in (0.01, 0.05)]
        with pytest.raises(RuntimeError, match=r"^trial 2, alpha=3\.0, beta=0\.05: boom in trial 2$"):
            run_campaign(cfg, sweep, [Strategy.SUBOPTIMAL, Strategy.OMA])
        assert chunks[0] == 6 if budget is None else 1 < chunks[0] < 6

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(SMALL, [], [Strategy.OMA])

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_campaign(SMALL, [(1.0, 0.01)], [Strategy.OMA], threads=threads)

    @pytest.mark.parametrize(
        "sweep, strategies, message",
        [
            ([(1.0, 0.01)], [Strategy.OMA, Strategy.OMA], "repeated strategy 'oma'"),
            ([(1.0, 0.01), (2.0, 0.0), (1, 0.01)], [Strategy.OMA], "sweep must be the alpha-major grid"),
            # Alphas or betas that print alike at 9 significant digits would repeat rows' key cells.
            ([(1.0, 0.01), (1.0000000001, 0.01)], [Strategy.OMA],
             r"^repeated alpha 1\.0000000001, which prints like 1\.0 at 9 significant digits$"),
            ([(1.0, 0.01), (1.0, 0.0100000000001)], [Strategy.OMA],
             r"^repeated beta 0\.0100000000001, which prints like 0\.01 at 9 significant digits$"),
        ],
    )
    def test_repeats_rejected(self, sweep, strategies, message):
        with pytest.raises(ValueError, match=message):
            run_campaign(SMALL, sweep, strategies)

    @pytest.mark.parametrize(
        "sweep",
        [
            [(1.0, 0.01), (2.0, 0.01), (1.0, 0.05), (2.0, 0.05)],  # beta-major
            [(1.0, 0.01), (1.0, 0.05), (2.0, 0.01)],  # (2.0, 0.05) missing
            [(1.0, 0.01), (1.0, 0.05), (2.0, 0.01), (2.0, 0.05), (2.0, 0.05)],  # a point twice
        ],
        ids=["reordered", "missing_point", "repeated_point"],
    )
    def test_sweep_that_is_not_the_grid_rejected(self, sweep):
        message = r"sweep must be the alpha-major grid of alphas \[1.0, 2.0\] x betas \[0.01, 0.05\]"
        with pytest.raises(ValueError, match=message):
            run_campaign(SMALL, sweep, [Strategy.OMA])


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this process if the block takes longer than ``seconds``."""

    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(sys.platform != "linux", reason="campaigns fork on Linux only")
class TestForkedShares:
    """The parent runs the first share of trials while a forked child runs each
    other share; whatever happens, no child outlives the campaign."""

    SWEEP = [(1.0, 0.01), (1.0, 0.05)]

    @pytest.fixture(autouse=True)
    def no_child_left(self, monkeypatch):
        # A budget of one entry forks a child for every share of these small campaigns.
        monkeypatch.setattr(netsim, "_CHUNK_ENTRIES", 1)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_success_leaves_no_child(self, threads, tmp_path, forks):
        cfg = NetworkConfig(trials=6, seed=33)
        strategies = [Strategy.SUBOPTIMAL, Strategy.OMA]
        parent = os.getpid()
        try:
            rows = run_campaign(cfg, self.SWEEP, strategies, threads=threads)
        finally:
            if os.getpid() != parent:  # a child came back into the caller, which it must never do
                (tmp_path / f"returned-{os.getpid()}").touch()
                os._exit(0)
        assert not list(tmp_path.iterdir())
        assert len(forks) == threads - 1
        assert rows == run_campaign(cfg, self.SWEEP, strategies, threads=1)

    def test_a_child_that_leaves_no_result_is_named(self, monkeypatch, tmp_path, capsys, forks):
        parent, chunk = os.getpid(), netsim._chunk

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return chunk(*args)

        monkeypatch.setattr(netsim, "_chunk", dying)
        with pytest.raises(RuntimeError, match=r"^trials 3-5: worker left no result$"):
            run_campaign(NetworkConfig(trials=6, seed=5), self.SWEEP, [Strategy.OMA], threads=2)
        argv = ["simulate", "--seed", "5", "--trials", "6", "--strategies", "oma", "--threads", "2"]
        assert main([*argv, "--out-dir", str(tmp_path / "o")]) == 1
        assert "runtime error: trials 3-5: worker left no result" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        assert len(forks) == 2

    def test_a_failing_parent_does_not_wait_on_a_full_pipe(self, monkeypatch, forks):
        # The child's 20 trials of tables exceed a 64 KiB pipe, so it blocks
        # writing them until the parent kills it.
        cfg = NetworkConfig(trials=40, seed=5)
        sweep = [(a, b) for a in (0.5, 1.0, 2.0, 3.0) for b in (0.01, 0.02, 0.04, 0.06, 0.08)]
        strategies = [Strategy.SUBOPTIMAL, Strategy.UPPER_BOUND, Strategy.LOWER_BOUND, Strategy.OMA]
        assert 20 * len(sweep) * len(strategies) * 6 * 8 > 64 * 1024
        trial_0 = set(compute_sinrs(drop_network(cfg, 0), cfg).gamma.tolist())
        split = netsim.split

        def failing(gate, strategy, fairness):
            if trial_0 & set(gate.gamma_s.tolist()):
                raise ArithmeticError("boom in trial 0")
            return split(gate, strategy, fairness)

        monkeypatch.setattr(netsim, "split", failing)
        with _deadline(60), pytest.raises(RuntimeError, match=r"^trial 0, alpha=0\.5, beta=0\.01: boom in trial 0$"):
            run_campaign(cfg, sweep, strategies, threads=2)
        assert len(forks) == 1

    def test_a_failing_parent_does_not_wait_on_a_running_child(self, monkeypatch, forks):
        # The child's share would take a minute; trial 0 fails in the parent's.
        cfg = NetworkConfig(trials=4, seed=5)
        trial_0 = set(compute_sinrs(drop_network(cfg, 0), cfg).gamma.tolist())
        parent, chunk, split = os.getpid(), netsim._chunk, netsim.split

        def slow(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return chunk(*args)

        def failing(gate, strategy, fairness):
            if trial_0 & set(gate.gamma_s.tolist()):
                raise ArithmeticError("boom in trial 0")
            return split(gate, strategy, fairness)

        monkeypatch.setattr(netsim, "_chunk", slow)
        monkeypatch.setattr(netsim, "split", failing)
        with _deadline(10), pytest.raises(RuntimeError, match=r"^trial 0, alpha=1\.0, beta=0\.01: boom in trial 0$"):
            run_campaign(cfg, self.SWEEP, [Strategy.SUBOPTIMAL, Strategy.OMA], threads=2)
        assert len(forks) == 1

    def test_a_failed_fork_closes_its_pipe(self, monkeypatch, forks):
        # The third share's fork fails: its pipe is closed and the OSError
        # propagates, and no_child_left finds the second share's child reaped.
        fork = os.fork

        def failing():
            if forks:
                raise BlockingIOError(errno.EAGAIN, "fork failed")
            return fork()

        monkeypatch.setattr(os, "fork", failing)
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError, match="fork failed"):
            run_campaign(NetworkConfig(trials=6, seed=5), self.SWEEP, [Strategy.OMA], threads=3)
        assert len(os.listdir("/proc/self/fd")) == fds
        assert len(forks) == 1
