"""Property tests of the decision table over the paper's link domain.

gamma_w in [0.1, 100], gamma_s / gamma_w in [1, 1000], beta in [0, 1] and
alpha in [0, 25].  The batched campaign kernel is checked against its
per-pair scalar reference on small drawn cells, the campaign rows against
that reference aggregated trial by trial, the batched optimal solver
against its per-link reference on drawn sets of links, and the row-blocked
SINRs against the full-matrix reference on drawn windows, and the
single-rendering CSV/JSON emitters against the row-by-row writers on drawn
row sets.  Hypothesis runs derandomized, so every run draws the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noma_fair.allocator import (
    _GRID_BLOCK,
    DECISIONS,
    DecisionMode,
    gate,
    link_facts,
    split,
    summed_utility,
)
from noma_fair.bounds import allocation_bounds, beta_star, pairing_criterion
from noma_fair.fairness import FairnessConfig, alpha_throughput
from noma_fair.netsim import (
    _BLOCK_ENTRIES,
    NetworkConfig,
    NetworkRealization,
    PathlossModel,
    compute_sinrs,
    evaluate_strategies,
    run_campaign,
)
from noma_fair.pairing import UserChannel
from noma_fair.rates import PairLink, Strategy, noma_rates, oma_rate
from noma_fair.report import METRIC_NAMES, ResultRow, emit_campaign_csv, emit_campaign_json, sort_rows

from _oracles import (
    candidate_pairs_ref,
    compute_sinrs_ref,
    emit_campaign_csv_ref,
    emit_campaign_json_ref,
    evaluate_strategies_ref,
    maximize_on_interval_ref,
    run_campaign_ref,
)

GATED = (Strategy.OPTIMAL, Strategy.SUBOPTIMAL, Strategy.UPPER_BOUND, Strategy.LOWER_BOUND)

links = st.builds(
    lambda gw, ratio, beta: PairLink(gamma_s=gw * ratio, gamma_w=gw, beta=beta),
    st.floats(0.1, 100.0),
    st.floats(1.0, 1000.0),
    st.floats(0.0, 1.0),
)
alphas = st.floats(0.0, 25.0)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=1000)


def test_one_decision_per_strategy():
    assert len(DECISIONS) == len(Strategy)
    assert set(DECISIONS) == set(Strategy)


@PROPERTY
@given(links, alphas)
def test_every_decision_keeps_its_promises(link, alpha):
    cfg = FairnessConfig(alpha=alpha)
    crit = pairing_criterion(link.gamma_s, link.gamma_w)
    bounds = allocation_bounds(link)
    oma = (oma_rate(link.gamma_s), oma_rate(link.gamma_w))
    for strategy, decide in DECISIONS.items():
        decision = decide(link, cfg)
        if strategy is Strategy.OMA:
            assert decision is None
            continue
        paired = decision.allocation is not None
        assert decision.mode is (DecisionMode.NOMA_PAIRED if paired else DecisionMode.OMA_FALLBACK)
        if strategy is Strategy.NEAR_FAR:
            assert paired and decision.allocation.delta_s == bounds.delta_ub
        else:
            assert strategy in GATED
            assert paired == (crit.satisfied and bounds.delta_lb < bounds.delta_ub), strategy
        if not paired:
            continue
        assert decision.allocation.source is strategy
        if strategy in GATED:
            assert bounds.delta_lb <= decision.allocation.delta_s <= bounds.delta_ub, strategy
            r_s, r_w = noma_rates(link, decision.allocation)
            assert r_s >= oma[0] - 1e-12 and r_w >= oma[1] - 1e-12, strategy


@PROPERTY
@given(st.floats(0.1, 100.0), st.floats(1.0, 1000.0), st.integers(6, 17), alphas)
def test_gate_and_splits_agree_next_to_beta_star(gw, ratio, k, alpha):
    # beta = beta_star * (1 - 10^-k): the interval is a few ulps wide, empty
    # or inverted by rounding, and every gated decision must read it alike.
    crit = pairing_criterion(gw * ratio, gw)
    assume(crit.satisfied)
    link = PairLink(gamma_s=gw * ratio, gamma_w=gw, beta=crit.beta_star * (1 - 10.0**-k))
    bounds = allocation_bounds(link)
    cfg = FairnessConfig(alpha=alpha)
    oma = (oma_rate(link.gamma_s), oma_rate(link.gamma_w))
    paired = {}
    for strategy in GATED:
        decision = DECISIONS[strategy](link, cfg)
        paired[strategy] = decision.allocation is not None
        assert paired[strategy] == (bounds.delta_lb < bounds.delta_ub), strategy
        if paired[strategy]:
            assert bounds.delta_lb <= decision.allocation.delta_s <= bounds.delta_ub, strategy
            r_s, r_w = noma_rates(link, decision.allocation)
            assert r_s >= oma[0] - 1e-12 and r_w >= oma[1] - 1e-12, strategy
    assert paired[Strategy.OPTIMAL] == paired[Strategy.SUBOPTIMAL]


@PROPERTY
@given(links, alphas, st.floats(0.0, 25.0))
def test_alpha_throughput_is_a_mean_that_falls_with_alpha(link, alpha, step):
    cfg = FairnessConfig(alpha=alpha)
    for strategy, decide in DECISIONS.items():
        decision = decide(link, cfg)
        if decision is None or decision.allocation is None:
            r_s, r_w = oma_rate(link.gamma_s), oma_rate(link.gamma_w)
        else:
            r_s, r_w = noma_rates(link, decision.allocation)
        lo, hi = min(r_s, r_w), max(r_s, r_w)
        t = alpha_throughput(r_s, r_w, alpha)
        assert lo * (1 - 1e-12) <= t <= hi * (1 + 1e-12), strategy
        assert alpha_throughput(r_s, r_w, alpha + step) <= t * (1 + 1e-12), strategy


@st.composite
def drops(draw):
    """Users of 0-4 cells of 0-7 users each, listed in a drawn order.

    Gains come partly from a small pool, so that equal gains with different
    user ids occur; SINRs are drawn apart from the gains, so that the gain
    order often disagrees with the SINR order.
    """
    cells = draw(st.lists(st.integers(0, 9), unique=True, max_size=4))
    cell_of = [c for c in cells for _ in range(draw(st.integers(0, 7)))]
    n = len(cell_of)
    ids = draw(st.permutations(range(n)))
    gains = st.sampled_from([1e-10, 3e-10, 1e-9]) | st.floats(1e-12, 1e-6)
    gammas = st.sampled_from([1.0, 5.0]) | st.floats(0.1, 1000.0)
    users = [
        UserChannel(user_id=ids[i], serving_bs_id=c, gamma=draw(gammas), channel_gain=draw(gains))
        for i, c in enumerate(cell_of)
    ]
    return draw(st.permutations(users))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    drops(),
    st.sampled_from([0.0, 1 - 1e-3, 1.0, 1 + 1e-3, 25.0]) | alphas,
    st.just("edge") | st.sampled_from([0.0, 0.01, 0.04, 0.08, 0.2]) | st.floats(0.0, 1.0),
    st.integers(0, 13),
)
def test_batched_kernel_equals_scalar_reference(users, alpha, beta, pick):
    if beta == "edge":
        # beta_star * (1 - 1e-12) of a drawn candidate: a few-ulp interval.
        cells = {}
        for u in users:
            cells.setdefault(u.serving_bs_id, []).append(u)
        cands = [c for cell in cells.values() for c in candidate_pairs_ref(cell)[0]]
        stars = [b for b in (beta_star(s.gamma, w.gamma) for s, w in cands) if b > 0]
        assume(stars)
        beta = stars[pick % len(stars)] * (1 - 1e-12)
    cfg = FairnessConfig(alpha=alpha)
    strategies = list(Strategy)
    assert evaluate_strategies(users, strategies, cfg, beta) == evaluate_strategies_ref(
        users, strategies, cfg, beta
    )


@pytest.mark.parametrize("threads", [1, 2])
def test_campaign_rows_equal_per_trial_reference(threads):
    # A 0.05 km2 window: a trial without users and two without a candidate,
    # so metrics with no value in a trial are averaged over fewer trials.
    cfg = NetworkConfig(area_km2=0.05, trials=16, seed=21)
    sweep = [(a, b) for a in (0.0, 1.0, 2.5, 25.0) for b in (0.0, 0.03, 0.2)]
    strategies = list(Strategy)
    expected = run_campaign_ref(cfg, sweep, strategies)
    trials = {r.metric: r.trials for r in expected if r.strategy == "oma" and r.beta == 0.0}
    assert trials["mur_strong"] < trials["t_alpha"] < cfg.trials
    got = run_campaign(cfg, sweep, strategies, threads=threads)
    assert sort_rows(got) == sort_rows(expected)


def test_batched_optimal_split_equals_per_link_reference():
    # Every drawn set of links is solved in one split() call and compared
    # link by link, with ==, against the one-link-at-a-time search.
    # beta is a drawn fraction of each link's beta_star, up to
    # beta_star * (1 - 1e-12), whose few-ulp intervals make every bracket
    # narrower than solver_tol.
    seen = {"links": 0, "several_brackets": 0, "narrow_brackets": 0, "several_blocks": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        st.integers(1, 48).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.floats(0.1, 100.0),
                    st.floats(1.0, 1000.0),
                    st.sampled_from([0.0, 0.5, 1 - 1e-12]) | st.floats(0.0, 1 - 1e-12),
                ),
                min_size=n,
                max_size=n,
            )
        ),
        st.sampled_from([0.0, 1 - 1e-3, 1.0, 1 + 1e-3, 25.0]) | alphas,
        st.sampled_from([1e-9, 1e-9, 1e-6, 1e-3]),  # the default tol, twice as often
    )
    def check(drawn, alpha, tol):
        gw, ratio, share = (np.array(column) for column in zip(*drawn))
        gs = gw * ratio
        links = link_facts(gs, gw)
        beta = np.minimum(share * np.maximum(links.criterion.beta_star, 0.0), 1.0)
        g = gate(links, beta)
        delta, value = split(g, Strategy.OPTIMAL, FairnessConfig(alpha=alpha, solver_tol=tol))
        seen["several_blocks"] += int(np.count_nonzero(g.admitted) > _GRID_BLOCK)
        for i in range(len(drawn)):
            if not g.admitted[i]:
                assert np.isnan(delta[i]) and np.isnan(value[i])
                continue
            args = float(gs[i]), float(gw[i]), float(beta[i])
            want_delta, want_value, brackets = maximize_on_interval_ref(
                lambda d: summed_utility(*args, d, alpha), float(g.delta_lb[i]), float(links.delta_ub[i]), tol
            )
            assert (delta[i], value[i]) == (want_delta, want_value), (args, alpha, tol)
            seen["links"] += 1
            seen["several_brackets"] += len(brackets) > 1
            seen["narrow_brackets"] += any(hi - lo <= tol for lo, hi in brackets)

    check()
    # The draws must reach multi-peak links, the no-iteration branch and
    # calls that span several grid blocks.
    assert min(seen.values()) >= 20, seen


def test_blocked_sinrs_equal_full_matrix_reference():
    # Each drawn window is computed block by block and compared, with ==,
    # against the full users x stations matrix.  The user count is drawn
    # relative to the block of the drawn station count.
    seen = {"no_users": 0, "one_user": 0, "block-1": 0, "block": 0, "block+1": 0,
            "several": 0, "one_station": 0, "clamped": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        st.integers(1, 400),
        st.sampled_from(["no_users", "one_user", "block-1", "block", "block+1", "several"]),
        st.integers(2, 4),
        st.floats(0.0, 1.0),
        st.sampled_from([0.2, 1.0, 6.0]),
        st.sampled_from([1e-3, 0.05, 0.3]),
        st.sampled_from([1.0, 0.4]),
        st.integers(0, 2**32 - 1),
    )
    def check(n_bs, shape, blocks, partial, side, min_km, fading_scale, seed):
        step = max(1, _BLOCK_ENTRIES // n_bs)
        n_users = {
            "no_users": 0,
            "one_user": 1,
            "block-1": step - 1,
            "block": step,
            "block+1": step + 1,
            "several": blocks * step + int(partial * (step - 1)),
        }[shape]
        cfg = NetworkConfig(fading_scale=fading_scale, pathloss=PathlossModel(min_distance_km=min_km))
        rng = np.random.default_rng(seed)
        bs_xy, user_xy = rng.uniform(0.0, side, (n_bs, 2)), rng.uniform(0.0, side, (n_users, 2))
        blocked, full = (
            NetworkRealization(bs_xy, user_xy, side, seed=seed % 1000, trial_index=seed % 7, resamples=2)
            for _ in range(2)
        )
        assert compute_sinrs(blocked, cfg) == compute_sinrs_ref(full, cfg)
        assert (blocked.clamped_links, blocked.resamples) == (full.clamped_links, full.resamples)
        seen[shape] += 1
        seen["one_station"] += n_bs == 1 and n_users > 0
        seen["clamped"] += blocked.clamped_links > 0

    check()
    assert min(seen.values()) >= 5, seen


def test_emitters_equal_row_by_row_reference(tmp_path):
    # Each drawn row set is written by both emitters and by the row-by-row
    # references, and the bytes compared with ==.  Values come from small
    # pools so that sort keys repeat and -0.0 meets 0.0 in one column.
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, 1e-10, 1.23456789e11]
    numbers = st.sampled_from(special) | st.floats(allow_nan=True, allow_infinity=True)
    keys = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0])
    rows = st.builds(
        ResultRow,
        alpha=keys,
        beta=keys | numbers,
        gamma_s_db=st.none() | numbers,
        gamma_w_db=st.none() | keys,
        strategy=st.sampled_from(["oma", "near_far", "optimal", "sous-optimal \u00e9\u03b1", 'a,"b"']),
        metric=st.sampled_from(METRIC_NAMES),
        value=numbers,
        trials=st.integers(1, 10**6),
        stderr=numbers,
    )
    cases = ("signed_zeros", "nan", "inf", "-inf", "none_gamma", "integral", "1e-10",
             "1.23456789e+11", "trials>1", "non_ascii", "duplicate_keys")
    seen = dict.fromkeys(cases, 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(rows, min_size=1, max_size=24))
    def check(drawn):
        for emit, ref, suffix in (
            (emit_campaign_csv, emit_campaign_csv_ref, ".csv"),
            (emit_campaign_json, emit_campaign_json_ref, ".json"),
        ):
            got, want = tmp_path / ("got" + suffix), tmp_path / ("want" + suffix)
            emit(drawn, got)
            ref(drawn, want)
            assert got.read_bytes() == want.read_bytes(), drawn
        floats = [v for r in drawn for v in (r.alpha, r.beta, r.gamma_s_db, r.gamma_w_db, r.value, r.stderr)]
        columns = [[getattr(r, key) for r in drawn] for key in ("alpha", "beta", "value", "stderr")]
        seen["signed_zeros"] += any(
            {math.copysign(1.0, v) for v in column if v == 0.0} == {1.0, -1.0} for column in columns
        )
        seen["nan"] += any(v != v for v in floats if v is not None)
        seen["inf"] += math.inf in floats
        seen["-inf"] += -math.inf in floats
        seen["none_gamma"] += None in floats
        seen["integral"] += 1.0 in floats
        seen["1e-10"] += 1e-10 in floats
        seen["1.23456789e+11"] += 1.23456789e11 in floats
        seen["trials>1"] += any(r.trials > 1 for r in drawn)
        seen["non_ascii"] += any(not r.strategy.isascii() for r in drawn)
        sort_keys = [(r.alpha, r.beta, r.strategy, r.metric) for r in drawn]
        seen["duplicate_keys"] += len(set(sort_keys)) < len(sort_keys)

    check()
    assert min(seen.values()) >= 50, seen
