"""Property tests of the decisions over the paper's link domain.

gamma_w in [0.1, 100], gamma_s / gamma_w in [1, 1000], beta in [0, 1] and
alpha in [0, 25].  The batched campaign kernel is checked against its
per-pair scalar reference on small drawn cells, its table over several
alphas and betas against its one-point tables, its tables of a chunk of
trials against the trials' one-trial tables, the campaign rows against
that reference aggregated trial by trial, the campaign's reduction once per
NaN pattern against the column-by-column one, the batched optimal solver
against its per-link reference on drawn sets of links, and the row-blocked
SINRs against the full-matrix reference on drawn windows, and the
single-rendering CSV/JSON emitters against the row-by-row writers on drawn
row sets.  Each closed form called on Python floats gives a Python float
(a bool for the criterion's test) with the bits of the same call on arrays
of size 1.  On a wider domain (``wide_links``: gamma_w from -12 dB,
gamma_s / gamma_w up to 95 dB) the optimal solver's flat-link bound and
slope-placed windows are checked against the whole-grid search, its grid
points against np.linspace, its slope signs against the mpmath slope, and
the objective's slope for a single sign change.  The
artifacts ``sweep`` and ``simulate`` write from their row tables must be
those writers' bytes for the rows of ``emit_delta_sweep`` and of the
campaign reference.  ``pair`` must serve a link as a one-candidate
campaign trial does.  Hypothesis runs derandomized, so every run draws the
same cases.
"""

import collections
import dataclasses
import functools
import itertools
import math
from argparse import Namespace

import hypothesis
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noma_fair import allocator, cli
from noma_fair.allocator import (
    _GRID_POINTS,
    _SOLVER_TOL,
    _SPAN,
    DecisionMode,
    _slope_up,
    gate,
    split,
    summed_utility,
)
from noma_fair.bounds import (
    allocation_bounds,
    beta_star,
    delta_lower_bound,
    delta_upper_bound,
    msd_threshold,
    pairing_criterion,
)
from noma_fair.cli import main
from noma_fair.fairness import FairnessConfig, alpha_throughput, utility
from noma_fair.netsim import (
    _BLOCK_ENTRIES,
    NetworkConfig,
    NetworkRealization,
    _aggregate,
    _trial_tables,
    compute_sinrs,
    drop_network,
    evaluate_strategies,
    run_campaign,
)
from noma_fair.pairing import match, user_table
from noma_fair.rates import (
    PairLink,
    Strategy,
    _noma_rate_pair,
    _require_beta,
    _require_positive_finite,
    db_to_linear,
    noma_rates,
    oma_rate,
)
from noma_fair.report import (
    _BLOCK_ROWS,
    BETA_STAR_TOKEN,
    CSV_HEADER,
    METRIC_NAMES,
    ResultRow,
    emit_artifacts,
    emit_campaign_csv,
    emit_campaign_json,
    emit_delta_sweep,
    format_value,
)

from _oracles import (
    WRAPPERS,
    _sorted_ref,
    aggregate_columns_ref,
    alpha_fair_slope_ref,
    candidate_pairs_ref,
    compute_sinrs_ref,
    emit_campaign_csv_ref,
    emit_campaign_json_ref,
    evaluate_strategies_ref,
    maximize_on_interval_ref,
    parse_campaign_csv_ref,
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
# The wider domain of the SINRs that campaigns admit: gamma_w (linear) from -12 dB,
# gamma_s / gamma_w up to 95 dB, and beta as a share of beta_star up to
# beta_star * (1 - 1e-12), whose split intervals are a few ulps wide.
wide_links = st.tuples(
    st.floats(-12.0, 30.0).map(db_to_linear),
    st.floats(0.0, 95.0).map(db_to_linear),
    st.sampled_from([0.0, 0.5, 1 - 1e-12]) | st.floats(0.0, 1 - 1e-12),
)
wide_alphas = st.sampled_from([0.0, 0.3, 1.0, 2.0, 5.0, 35.0]) | st.floats(0.0, 40.0)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=1000)


def test_one_decision_per_strategy():
    # split decides every strategy and no other; the size-1 wrappers cover each once.
    assert len(WRAPPERS) == len(Strategy)
    assert set(WRAPPERS) == set(Strategy)
    g = gate([9.0, 3.0], [2.0, 3.0], 0.01)
    for strategy in Strategy:
        assert split(g, strategy, FairnessConfig(alpha=1.0)).shape == (2,), strategy
    with pytest.raises(ValueError, match="unknown strategy"):
        split(g, "bogus", FairnessConfig(alpha=1.0))


@PROPERTY
@given(links, alphas)
def test_every_decision_keeps_its_promises(link, alpha):
    cfg = FairnessConfig(alpha=alpha)
    crit = pairing_criterion(link.gamma_s, link.gamma_w)
    bounds = allocation_bounds(link)
    oma = (oma_rate(link.gamma_s), oma_rate(link.gamma_w))
    g = gate([link.gamma_s], [link.gamma_w], link.beta)
    for strategy, decide in WRAPPERS.items():
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
        assert decision.allocation.delta_s == split(g, strategy, cfg)[0], strategy
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
        decision = WRAPPERS[strategy](link, cfg)
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
    for strategy, decide in WRAPPERS.items():
        decision = decide(link, cfg)
        if decision is None or decision.allocation is None:
            r_s, r_w = oma_rate(link.gamma_s), oma_rate(link.gamma_w)
        else:
            r_s, r_w = noma_rates(link, decision.allocation)
        lo, hi = min(r_s, r_w), max(r_s, r_w)
        t = alpha_throughput(r_s, r_w, alpha)
        assert lo * (1 - 1e-12) <= t <= hi * (1 + 1e-12), strategy
        assert alpha_throughput(r_s, r_w, alpha + step) <= t * (1 + 1e-12), strategy


@PROPERTY
@given(
    st.floats(-30.0, 60.0).map(db_to_linear),
    st.floats(-30.0, 60.0).map(db_to_linear),
    st.floats(0.0, 1.0),
    st.sampled_from([1.0]) | st.floats(0.99, 1.01, exclude_min=True, exclude_max=True) | st.floats(0.0, 40.0),
)
def test_closed_forms_give_python_numbers_equal_to_their_size_1_array_entry(gs, gw, beta, alpha):
    # The closed forms' one calling convention: the input checks return the
    # float arrays they checked, each closed form computes on those with
    # NumPy's loops, and a result from Python floats is a Python float (a
    # bool for the criterion's test) whose bits are those of entry 0 of the
    # same call on arrays of size 1.
    forms = {
        "oma_rate": (oma_rate, (gs,)),
        "delta_upper_bound": (delta_upper_bound, (gw,)),
        "delta_lower_bound": (delta_lower_bound, (gs, beta)),
        "msd_threshold": (msd_threshold, (gs, gw)),
        "beta_star": (beta_star, (gs, gw)),
        "utility": (lambda x: utility(x, alpha), (gs,)),
        "alpha_throughput": (lambda r_s, r_w: alpha_throughput(r_s, r_w, alpha), (gs, gw)),
    }
    for field in ("msd_threshold", "beta_star", "satisfied"):
        forms[f"pairing_criterion.{field}"] = (lambda *links, f=field: getattr(pairing_criterion(*links), f), (gs, gw))
    for name, (form, args) in forms.items():
        got, entry = form(*args), form(*(np.array([a]) for a in args))[0]
        if name.endswith("satisfied"):
            assert type(got) is bool and got == entry, (name, args)
        else:
            assert type(got) is float and got.hex() == float(entry).hex(), (name, args, alpha, got, entry)
    for check, args in (
        (_require_positive_finite, ("gamma", gs)),
        (_require_beta, (beta,)),
        (_require_positive_finite, ("gamma", np.array([gw]))),
        (_require_beta, (np.array([beta]),)),
    ):
        got = check(*args)
        assert type(got) is np.ndarray and got.dtype == float and got.shape == np.shape(args[-1]), (check, args)
        assert got.tolist() == np.asarray(args[-1]).tolist(), (check, args)


def test_pair_serves_a_link_as_a_one_candidate_trial():
    # pair's served rates (NOMA when admitted, OMA when rejected), t_alpha,
    # rate sum and mode against the campaign metrics of a trial whose one
    # cell holds the link's two users, compared with ==.  Each example draws
    # its band first (solver, admitted or not, alpha band), then an alpha in
    # the band and a link built to land on that side of the gate, so that
    # every band gets about a sixteenth of the examples whatever literals
    # Hypothesis's constant pool holds.  The bands count what pair reports.
    seen = collections.Counter()
    alpha_bands = {
        "0": st.just(0.0),
        "(0, 1)": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "1": st.just(1.0),
        ">1": st.sampled_from([1.0 + 1e-3, 3.0, 25.0]) | st.floats(1.0, 25.0, exclude_min=True),
    }

    # Derandomized Hypothesis seeds a test from its source, so an edit to check
    # would re-draw the examples that the band counts below were met on.  The
    # seed is the one its source gave before it was pinned.
    @hypothesis.seed(37594339349312461837484375898415676759979543160611653165557364402402021213275679814335136801317517341765586735730555)
    @PROPERTY
    @given(
        st.sampled_from(list(itertools.product(("optimal", "suboptimal"), (True, False), alpha_bands))),
        st.floats(-10.0, 20.0),
        st.just(FairnessConfig.tau) | st.floats(0.05, 0.95),
        st.data(),
    )
    def check(band, gw_db, tau, data):
        solver, admitted, alpha_band = band
        alpha = data.draw(alpha_bands[alpha_band])
        if admitted:
            # The criterion holds where sqrt(1 + gamma_s) > b + 1 - 1/b, b = sqrt(1 + gamma_w), and a
            # beta below beta_star leaves a nonempty split interval.
            b = math.sqrt(1.0 + db_to_linear(gw_db))
            offset_db = 10.0 * math.log10(((b + 1.0 - 1.0 / b) ** 2 - 1.0) / (b * b - 1.0))
            offset_db += data.draw(st.floats(0.01, 30.0))
            share = data.draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.99))
        else:  # equal SINRs fail the criterion; from beta_star on the interval is empty (at beta_star up to rounding)
            offset_db = data.draw(st.just(0.0) | st.floats(0.0, 30.0))
            share = data.draw(st.sampled_from([1.0, 2.0]) | st.floats(1.0, 2.0))
        gs_db = gw_db + offset_db
        star = beta_star(db_to_linear(gs_db), db_to_linear(gw_db))
        beta = share * star if admitted else star + (share - 1.0) * (1.0 - star)
        users = user_table([0, 1], [0, 0], [db_to_linear(gs_db), db_to_linear(gw_db)], [2e-9, 1e-9])
        table = _trial_tables([users], [Strategy(solver)], [FairnessConfig(alpha=alpha, tau=tau)], [beta])
        mur_s, mur_w, mur_oma, t, asr, pairs = table[0, 0, 0, 0].tolist()
        report = cli._pair_report(
            Namespace(gamma_s_db=gs_db, gamma_w_db=gw_db, beta=beta, alpha=alpha, tau=tau, solver=solver)
        )
        paired = report["mode"] == "noma_paired"
        oma = report["rate_strong_oma"], report["rate_weak_oma"]
        served = (report["rate_strong_noma"], report["rate_weak_noma"]) if paired else oma
        assert report["utility_sum"] == utility(served[0], alpha) + utility(served[1], alpha)
        assert (mur_s, mur_w, t, asr, pairs) == (*served, report["t_alpha"], served[0] + served[1], paired)
        assert math.isnan(mur_oma) if paired else mur_oma == (oma[0] + oma[1]) / 2
        seen[solver, paired, alpha_band] += 1

    check()
    bands = itertools.product(("optimal", "suboptimal"), (True, False), ("0", "1", ">1"))
    assert all(seen[band] >= 10 for band in bands), seen


@st.composite
def drops(draw):
    """A user table of 0-4 cells of 0-7 users each, in a drawn row order.

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
    rows = draw(st.permutations([(ids[i], c, draw(gammas), draw(gains)) for i, c in enumerate(cell_of)]))
    return user_table(*(list(zip(*rows)) or [()] * 4))


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


def _cells(*cells):
    """A user table with one cell per tuple of SINRs; gains follow the SINRs."""
    rows = [(c, g) for c, gammas in enumerate(cells) for g in gammas]
    cell, gamma = (list(column) for column in zip(*rows)) if rows else ([], [])
    return user_table(range(len(rows)), cell, gamma, [1e-9 * g for g in gamma])


def _assert_stack_equals_one_beta_passes(users, betas):
    # Every strategy at alphas on both sides of suboptimal's switch and at the
    # alpha = 0 and alpha = 1 branches: the (alphas x betas x strategies x 6)
    # table of a trial must be, byte for byte, its one-point tables stacked.
    strategies = list(Strategy)
    fairs = [FairnessConfig(alpha=a) for a in (0.0, 0.5, 1.0, 1.0 + 1e-12, 3.0)]
    got = _trial_tables([users], strategies, fairs, betas)[0]
    want = np.stack([[_trial_tables([users], strategies, [f], [b])[0, 0, 0] for b in betas] for f in fairs])
    assert got.shape == (len(fairs), len(betas), len(strategies), 6)
    assert got.tobytes() == want.tobytes(), betas


# Two candidates with beta_star 0.061 and 0.092 (criterion met) in cell 0,
# and an odd user out in cell 1.
TWO_LINKS = _cells((100.0, 8.0, 2.0, 1.0), (3.0,))


@pytest.mark.parametrize(
    "users, betas, admitted",
    [
        (_cells(), (0.0, 0.04), None),
        (_cells((5.0,), (20.0,), (0.5,)), (0.0, 0.04, 1.0), None),
        # beta = 0 admits both, 0.07 lies above one beta_star, 0.5 above both.
        (TWO_LINKS, (0.0, 0.07, 0.5), [2, 1, 0]),
        (TWO_LINKS, (0.5, 0.07), [0, 1]),
        (TWO_LINKS, (0.07,), [1]),
    ],
    ids=["no_users", "only_singles", "every_candidate_rejected_at_one_beta", "rejected_first", "one_beta"],
)
def test_one_pass_over_betas_equals_one_beta_passes(users, betas, admitted):
    if admitted is None:
        assert (match(users)[1] < 0).all()
    else:
        # Each beta's gate admits the stated number of candidates.
        opt = _trial_tables([users], [Strategy.OPTIMAL], [FairnessConfig(alpha=1.0)], betas)[0, 0]
        assert opt[:, 0, 5].tolist() == admitted
    _assert_stack_equals_one_beta_passes(users, betas)


def test_one_pass_over_betas_equals_one_beta_passes_on_network_trials():
    cfg = NetworkConfig(seed=3)
    for t in range(3):
        users = compute_sinrs(drop_network(cfg, t), cfg)
        _assert_stack_equals_one_beta_passes(users, (0.0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.3, 1.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(drops(), st.lists(st.sampled_from([0.0, 0.01, 0.04, 0.2, 1.0]) | st.floats(0.0, 1.0),
                         min_size=1, max_size=5, unique=True))
def test_one_pass_over_drawn_betas_equals_one_beta_passes(users, betas):
    _assert_stack_equals_one_beta_passes(users, betas)


def test_chunked_kernel_equals_one_trial_tables():
    # Drawn trials, cut into drawn chunks: each chunk's per-trial tables must
    # be, byte for byte, its trials' one-trial tables, and the chunk's user
    # tables must come back unchanged.  Trials without users and trials of
    # singles only are drawn, also next to trials with candidates.
    seen = collections.Counter()
    singles = st.lists(st.floats(0.1, 1000.0), min_size=1, max_size=4).map(lambda g: _cells(*zip(g)))

    # Pinned to the seed its source gave, as in test_pair_serves_a_link_as_a_one_candidate_trial.
    @hypothesis.seed(13826335183101934751358680617175656734724432884702120904782486618248071185559280968315256578047928717074059833882620)
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        st.lists(drops() | singles, min_size=1, max_size=6),
        st.lists(st.integers(1, 6), min_size=6, max_size=6),
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 25.0]) | alphas, min_size=1, max_size=3, unique=True),
        st.lists(st.sampled_from([0.0, 0.01, 0.04, 0.2, 1.0]) | st.floats(0.0, 1.0),
                 min_size=1, max_size=3, unique=True),
        st.permutations(list(Strategy)).flatmap(lambda s: st.integers(1, len(s)).map(lambda n: s[:n])),
    )
    def check(trials, sizes, alphas_, betas, strategies):
        fairs = [FairnessConfig(alpha=a) for a in alphas_]
        want = [_trial_tables([users], strategies, fairs, betas)[0] for users in trials]
        copies = [users.copy() for users in trials]
        lo = 0
        for size in sizes:
            chunk = trials[lo : lo + size]
            if not chunk:
                break
            got = _trial_tables(chunk, strategies, fairs, betas)
            assert got.shape == (len(chunk), *want[0].shape)
            assert got.tobytes() == np.stack(want[lo : lo + size]).tobytes()
            seen["multi_trial_chunk"] += len(chunk) > 1
            lo += size
        assert all(users.tobytes() == copy.tobytes() for users, copy in zip(trials, copies))
        kinds = {"no_users" if not len(u) else "only_singles" if (match(u)[1] < 0).all() else "candidates"
                 for u in trials}
        seen.update(kinds)
        seen["mixed"] += len(kinds) > 1

    check()
    assert min(seen[k] for k in ("no_users", "only_singles", "candidates", "mixed", "multi_trial_chunk")) >= 10, seen


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("shape", ["small_window", "one_trial", "mc_fast"])
def test_campaign_rows_equal_per_trial_reference(shape, threads):
    if shape == "small_window":
        # A 0.05 km2 window: a trial without users and two without a candidate,
        # so metrics with no value in a trial are averaged over fewer trials.
        cfg = NetworkConfig(area_km2=0.05, trials=16, seed=21)
        sweep = [(a, b) for a in (0.0, 1.0, 2.5, 25.0) for b in (0.0, 0.03, 0.2)]
        strategies = list(Strategy)
        expected = run_campaign_ref(cfg, sweep, strategies)
        trials = {r.metric: r.trials for r in expected if r.strategy == "oma" and r.beta == 0.0}
        assert trials["mur_strong"] < trials["t_alpha"] < cfg.trials
    elif shape == "one_trial":
        # Every metric is one trial's value, with stderr 0.
        cfg = NetworkConfig(trials=1, seed=21)
        sweep = [(a, b) for a in (0.0, 1.0, 25.0) for b in (0.0, 0.03, 0.2)]
        strategies = list(Strategy)
        expected = run_campaign_ref(cfg, sweep, strategies)
        assert {(r.trials, r.stderr) for r in expected} == {(1, 0.0)}
    else:
        # The mc-fast workload's invocation: each of the five metric columns
        # of every (point, strategy) is free of NaN.
        cfg = NetworkConfig(trials=2, seed=1)
        sweep = [(a, b) for a in (0.5, 1.0, 3.0, 25.0) for b in (0.01, 0.04, 0.08)]
        strategies = [Strategy.SUBOPTIMAL, Strategy.UPPER_BOUND, Strategy.LOWER_BOUND, Strategy.NEAR_FAR, Strategy.OMA]
        expected = run_campaign_ref(cfg, sweep, strategies)
        assert len(expected) == len(sweep) * len(strategies) * 5
        assert {r.trials for r in expected} == {cfg.trials}
    got = run_campaign(cfg, sweep, strategies, threads=threads)
    assert _sorted_ref(got) == _sorted_ref(expected)


def test_grouped_aggregation_equals_column_by_column_reference():
    # A drawn (columns x trials) table whose columns share NaN patterns: all
    # NaN, none and, from two trials on, ``mixed`` patterns that hold both,
    # each on at least one column.  Means, counts and stderrs must have the
    # bits of the column-by-column reduction.  NumPy sums a contiguous row of
    # 8 or more values in eight interleaved partial sums, and of more than
    # 128 in halves, where a strided block is summed in order.
    seen = {"one_trial": 0, "2-7": 0, "8-128": 0, "over_128": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.integers(1, 600), st.integers(1, 6), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def check(trials, mixed, extra, seed):
        rng = np.random.default_rng(seed)
        mixed = mixed if trials > 1 else 0
        patterns = np.vstack((np.zeros(trials, bool), np.ones(trials, bool),
                              rng.random((mixed, trials)) < rng.random((mixed, 1))))
        for pattern in patterns[2:]:
            pattern[rng.choice(trials, 2, replace=False)] = True, False
        which = np.concatenate((np.arange(len(patterns)), rng.integers(0, len(patterns), extra)))
        columns = rng.lognormal(0.0, 1.0, (len(which), trials)) * 10.0 ** rng.uniform(-3.0, 3.0, (len(which), 1))
        columns[~patterns[which]] = np.nan
        got, want = _aggregate(columns), aggregate_columns_ref(columns)
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        seen["one_trial" if trials == 1 else "2-7" if trials < 8 else "8-128" if trials <= 128 else "over_128"] += 1

    check()
    assert min(seen.values()) >= 5, seen


def test_batched_optimal_split_equals_per_link_reference():
    # Every drawn set of links is solved in one batched search, at a drawn
    # bracket width tol, and compared link by link, with ==, against the
    # one-link-at-a-time search; split() must give the batched search's
    # result at the solver's own width and NaN for every rejected link.
    # beta is a drawn fraction of each link's beta_star, up to
    # beta_star * (1 - 1e-12), whose few-ulp intervals make every bracket
    # narrower than tol.
    seen = {"links": 0, "several_brackets": 0, "narrow_brackets": 0, "over_16_links": 0}

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
        beta = np.minimum(share * np.maximum(beta_star(gs, gw), 0.0), 1.0)
        g = gate(gs, gw, beta)
        split_delta = split(g, Strategy.OPTIMAL, FairnessConfig(alpha=alpha))
        on = np.flatnonzero(g.admitted)
        delta = np.full(len(drawn), np.nan)
        if on.size:
            delta[on] = allocator._maximize_on_interval(
                gs[on], gw[on], beta[on], alpha, g.delta_lb[on], g.delta_ub[on], tol
            )
        if tol == allocator._SOLVER_TOL:
            assert delta.tobytes() == split_delta.tobytes()
        seen["over_16_links"] += int(on.size > 16)
        for i in range(len(drawn)):
            if not g.admitted[i]:
                assert np.isnan(split_delta[i])
                continue
            args = float(gs[i]), float(gw[i]), float(beta[i])
            want_delta, _, brackets = maximize_on_interval_ref(
                lambda d: summed_utility(*args, d, alpha), float(g.delta_lb[i]), float(g.delta_ub[i]), tol
            )
            assert delta[i] == want_delta, (args, alpha, tol)
            seen["links"] += 1
            seen["several_brackets"] += len(brackets) > 1
            seen["narrow_brackets"] += any(hi - lo <= tol for lo, hi in brackets)

    check()
    # The draws must reach multi-peak links, the no-iteration branch and
    # calls of more than 16 links.
    assert min(seen.values()) >= 20, seen


def _wide_gate(drawn):
    """The gate of ``wide_links`` draws, each beta its share of the link's beta_star."""
    gw, ratio, share = (np.array(column) for column in zip(*drawn))
    gs = gw * ratio
    return gate(gs, gw, np.minimum(share * np.maximum(beta_star(gs, gw), 0.0), 1.0))


def _scan_kind(args, lo, hi, alpha):
    """How the solver searches a link: "flat" when its value at lo ties the
    bound U(R_s(hi)) + U(R_w(lo)), so that it is not searched; otherwise
    "window" when the _SPAN points around the first grid point whose slope is
    not positive (found by the solver's bisection) are proved inside the grid,
    "clipped" when they are proved and reach a grid end, "whole" when they
    are not proved and the whole grid is scanned."""
    (us_lo, us_hi), (uw_lo, uw_hi) = (utility(r, alpha) for r in _noma_rate_pair(*args, np.array([lo, hi])))
    if us_lo + uw_lo - 1e-14 * (abs(us_hi) + abs(uw_lo)) >= us_hi + uw_lo - 1e-12:
        return "flat"
    xs = np.linspace(lo, hi, _GRID_POINTS)
    up, right = _slope_up(*args, xs, alpha), _GRID_POINTS - 1
    for step in (512, 256, 128, 64, 32, 16, 8, 4, 2, 1):
        mid = max(right - step, 0)
        right = right if up[mid] else mid
    first = min(max(right - _SPAN // 2, 0), _GRID_POINTS - _SPAN)
    window = summed_utility(*args, xs[first : first + _SPAN], alpha)
    best = window.max()
    floor = best - allocator._BRACKET_SLACK - 1e-12 * max(1.0, abs(best))
    clipped = (first == 0, first + _SPAN == _GRID_POINTS)
    if not (clipped[0] or window[0] < floor) or not (clipped[1] or window[-1] < floor):
        return "whole"
    return "clipped" if any(clipped) else "window"


def _blocks(n):
    """The link counts of the whole-grid evaluations of ``n`` links whose window is not proved."""
    return [min(allocator._SCAN_BLOCK, n - k) for k in range(0, n, allocator._SCAN_BLOCK)]


def test_scan_window_equals_whole_grid_reference_on_wide_links(whole_grids, slope_links):
    # Flat links taken at lo, the windows placed by the slope's sign, and the
    # whole grid where a window is not proved must give the whole-grid
    # search's delta_s, with ==, on drawn sets of links of the wider domain,
    # at the drawn alpha, at 1 (where interior optima are common) and at 35
    # (where flat objectives are).  Every kind of search is reached: a flat
    # link, a proved window inside the grid, one at a grid end, the
    # whole-grid fallback, and a call that mixes whole grids with proved
    # windows.  Only the links that are not flat take slope signs, and the
    # unproved ones fill one whole-grid evaluation.
    seen = dict.fromkeys(("flat", "window", "clipped", "whole", "mixed_block"), 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        (st.just(48) | st.integers(1, 48)).flatmap(lambda n: st.lists(wide_links, min_size=n, max_size=n)),
        wide_alphas,
        st.booleans(),
    )
    def check(drawn, drawn_alpha, next_to_star):
        # Every beta at beta_star * (1 - 1e-9) when next_to_star: objectives
        # too flat for a window at any alpha.
        g = _wide_gate([(gw, ratio, 1 - 1e-9 if next_to_star else share) for gw, ratio, share in drawn])
        on = np.flatnonzero(g.admitted)
        assume(on.size)
        links = g.gamma_s[on], g.gamma_w[on], g.beta[on]
        for alpha in (drawn_alpha, 1.0, 35.0):
            whole_grids.clear()
            slope_links.clear()
            delta = allocator._maximize_on_interval(*links, alpha, g.delta_lb[on], g.delta_ub[on], _SOLVER_TOL)
            kinds = collections.Counter()
            for k, i in enumerate(on):
                args = tuple(float(column[k]) for column in links)
                lo, hi = float(g.delta_lb[i]), float(g.delta_ub[i])
                want, _, _ = maximize_on_interval_ref(lambda d: summed_utility(*args, d, alpha), lo, hi, _SOLVER_TOL)
                assert delta[k] == want, (args, alpha)
                kinds[_scan_kind(args, lo, hi, alpha)] += 1
            assert whole_grids == _blocks(kinds["whole"]), (whole_grids, kinds)
            assert set(slope_links) == {on.size - kinds["flat"]}, (slope_links, kinds)
            seen.update({kind: seen[kind] + n for kind, n in kinds.items()})
            seen["mixed_block"] += bool(kinds["whole"]) and bool(kinds["window"] or kinds["clipped"])

    check()
    floors = {"flat": 20, "window": 20, "clipped": 20, "whole": 20, "mixed_block": 20}
    assert all(seen[kind] >= floor for kind, floor in floors.items()), seen


def test_flat_links_equal_whole_grid_reference(slope_links):
    # A link whose value at delta_lb ties the bound U(R_s(delta_ub)) +
    # U(R_w(delta_lb)), which no split exceeds, is decided at delta_lb with
    # no search: on drawn sets of links of the wider domain, at alpha 1 and
    # 35, every flat link's delta_s is delta_lb and the whole-grid search's,
    # with ==, and no flat link takes a slope sign.  Every beta at
    # beta_star * (1 - 1e-12) when next_to_star: intervals a few ulps wide,
    # flat at any alpha.
    seen = {1.0: 0, 35.0: 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.lists(wide_links, min_size=1, max_size=24), st.booleans())
    def check(drawn, next_to_star):
        g = _wide_gate([(gw, ratio, 1 - 1e-12 if next_to_star else share) for gw, ratio, share in drawn])
        on = np.flatnonzero(g.admitted)
        assume(on.size)
        links = g.gamma_s[on], g.gamma_w[on], g.beta[on]
        for alpha in seen:
            slope_links.clear()
            delta = allocator._maximize_on_interval(*links, alpha, g.delta_lb[on], g.delta_ub[on], _SOLVER_TOL)
            flat = 0
            for k, i in enumerate(on):
                args = tuple(float(column[k]) for column in links)
                lo, hi = float(g.delta_lb[i]), float(g.delta_ub[i])
                if _scan_kind(args, lo, hi, alpha) != "flat":
                    continue
                want, _, _ = maximize_on_interval_ref(lambda d: summed_utility(*args, d, alpha), lo, hi, _SOLVER_TOL)
                assert delta[k] == want == lo, (args, alpha)
                flat += 1
            assert set(slope_links) == {on.size - flat}, (slope_links, flat)
            seen[alpha] += flat

    check()
    assert min(seen.values()) >= 20, seen


def test_several_scan_blocks_equal_whole_grid_reference(whole_grids):
    # One call over more links than two scan blocks hold, each link of the
    # wider domain, gives the whole-grid search's delta_s, with ==, with
    # every beta a drawn share of its link's beta_star at alpha 1 (windows
    # mostly proved) and at 35 (flat links and searched ones in one call),
    # and with every beta at beta_star * (1 - 1e-9) at alpha 1, whose
    # objectives are too flat for a window and take whole grids in several
    # blocks: one whole-grid evaluation per block of up to _SCAN_BLOCK
    # unproved links.
    rng = np.random.default_rng(27)
    n = 2 * allocator._SCAN_BLOCK + 16
    drawn = list(zip(10 ** rng.uniform(-1.2, 3.0, n), 10 ** rng.uniform(0.0, 9.5, n), rng.uniform(0.0, 1 - 1e-12, n)))
    for next_to_star, alpha in ((False, 1.0), (False, 35.0), (True, 1.0)):
        g = _wide_gate([(gw, ratio, 1 - 1e-9 if next_to_star else share) for gw, ratio, share in drawn])
        on = np.flatnonzero(g.admitted)
        assert on.size > 2 * allocator._SCAN_BLOCK
        links = g.gamma_s[on], g.gamma_w[on], g.beta[on]
        whole_grids.clear()
        delta = allocator._maximize_on_interval(*links, alpha, g.delta_lb[on], g.delta_ub[on], _SOLVER_TOL)
        unproved = 0
        for k, i in enumerate(on):
            args = tuple(float(column[k]) for column in links)
            lo, hi = float(g.delta_lb[i]), float(g.delta_ub[i])
            want, _, _ = maximize_on_interval_ref(lambda d: summed_utility(*args, d, alpha), lo, hi, _SOLVER_TOL)
            assert delta[k] == want, (args, alpha, next_to_star)
            unproved += _scan_kind(args, lo, hi, alpha) == "whole"
        assert whole_grids == _blocks(unproved), (whole_grids, unproved, alpha)
        assert (len(whole_grids) > 2) == next_to_star, (next_to_star, alpha, whole_grids)


def test_grid_points_equal_linspace_columns():
    # The scan's points, at drawn indices with both grid ends and in per-link
    # windows, are the columns of np.linspace over each link's split
    # interval, bit for bit; next to beta_star the grid steps are a few ulps.
    seen = {"few_ulp_steps": 0, "wide": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(wide_links, min_size=1, max_size=8), st.lists(st.integers(0, _GRID_POINTS - 1), max_size=8))
    def check(drawn, picks):
        g = _wide_gate(drawn)
        assume(g.admitted.any())
        lo, hi = g.delta_lb[g.admitted], g.delta_ub[g.admitted]
        full = np.linspace(lo, hi, _GRID_POINTS, axis=1)
        index = np.array([0, *picks, _GRID_POINTS - 1])
        assert allocator._grid(lo, hi, index).tobytes() == full[:, index].tobytes()
        windows = np.resize(index, lo.size)[:, None] % (_GRID_POINTS - _SPAN + 1) + np.arange(_SPAN)
        assert allocator._grid(lo, hi, windows).tobytes() == np.take_along_axis(full, windows, axis=1).tobytes()
        # Grid steps of a few ulps: neighboring points round to few distinct values.
        few = (hi - lo) / (_GRID_POINTS - 1) <= 100 * np.spacing(hi)
        seen["few_ulp_steps"] += int(few.sum())
        seen["wide"] += int((~few).sum())

    check()
    assert min(seen.values()) >= 20, seen


def test_slope_sign_equals_mpmath_slope_away_from_its_root():
    # The solver's slope sign, taken in log space, at a drawn split of an
    # admitted link of the wider domain, is the sign of the slope
    # differentiated in mpmath wherever that slope is more than 1e-9 of its
    # falling term R_w^-alpha |R_w'| away from zero.  The sign is drawn
    # first and alpha inside the link's alphas for it at the drawn split
    # (the drawn alpha where it has none), so that neither sign can be
    # starved.
    seen = {"rising": 0, "falling": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        st.sampled_from(sorted(seen)),
        wide_links,
        wide_alphas,
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        st.floats(0.05, 0.95),
    )
    def check(band, link, alpha, share, place):
        g = _wide_gate([link])
        assume(g.admitted[0])
        gs, gw, beta = (float(g.gamma_s[0]), float(g.gamma_w[0]), float(g.beta[0]))
        lo, hi = float(g.delta_lb[0]), float(g.delta_ub[0])
        d = min(lo + share * (hi - lo), hi)
        # At lo = hi = d, the "rising" alphas make the slope positive at d and the "falling" ones negative.
        if alphas := _band_alphas((gs, gw, beta), d, d, band):
            alpha = alphas[0] + place * (alphas[1] - alphas[0])
        slope = alpha_fair_slope_ref(gs, gw, beta, d, alpha)
        r_w = float(_noma_rate_pair(gs, gw, beta, d)[1])
        assume(abs(slope) > 1e-9 * r_w**-alpha * gw / ((1.0 + d * gw) * math.log(2.0)))
        assert bool(_slope_up(gs, gw, beta, np.array([d]), alpha)[0]) == (slope > 0), (gs, gw, beta, d, alpha)
        seen["rising" if slope > 0 else "falling"] += 1

    check()
    assert min(seen.values()) >= 50, seen


def test_golden_steps_equal_one_bracket_counts():
    # Every bracket's golden-section step count, taken with np.log, is the
    # one-bracket search's math.log count: over drawn widths (zero and
    # subnormal ones too) and over widths whose quotient tol / width is a
    # power of 1/phi to within a few ulps, where the ceiling is decided by
    # the last bits.
    seen = {"drawn": 0, "powers": 0, "near_integer": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        st.lists(st.floats(0.0, 1.0), max_size=8),
        st.lists(st.tuples(st.integers(0, 120), st.integers(-3, 3)), max_size=8),
        st.sampled_from([1e-9, 1e-6, 1e-3]),
    )
    def check(drawn, powers, tol):
        widths = list(drawn)
        for k, ulps in powers:
            widths.append(tol / allocator._INV_PHI**k)
            for _ in range(abs(ulps)):
                widths[-1] = math.nextafter(widths[-1], math.copysign(math.inf, ulps))
        want = [math.ceil(math.log(tol / w) / math.log(allocator._INV_PHI)) - 1 if w > tol else -1 for w in widths]
        assert allocator._golden_steps(np.array(widths, dtype=float), tol).tolist() == want, (widths, tol)
        quotients = [math.log(tol / w) / math.log(allocator._INV_PHI) for w in widths if w > tol]
        seen["drawn"] += len(drawn)
        seen["powers"] += len(powers)
        seen["near_integer"] += sum(abs(q - round(q)) < 1e-9 for q in quotients)

    check()
    assert min(seen.values()) >= 50, seen


def _band_alphas(at, lo, hi, band):
    """The alphas in [0, 40] at which the link ``at``'s slope is positive at
    hi ("rising"), negative at lo ("falling"), or positive at lo and negative
    at hi ("interior"), or None.  The slope's sign at a split is that of
    K - alpha L, K = ln R_s' - ln |R_w'| and L = ln R_s - ln R_w."""
    gs, gw, beta = at
    d = np.array([lo, hi])
    r_s, r_w = _noma_rate_pair(gs, gw, beta, d)
    ks = np.log(gs * (1 - beta) / (1 + beta * gs + d * gs * (1 - beta)) + beta * gs / (1 + beta * gs * (1 - d)))
    k, ell = ks - np.log(gw / (1 + d * gw)), np.log(r_s) - np.log(r_w)
    # Each (end, sign) asks sign * (K - alpha L) > 0 at that end.
    asks = {"rising": [(1, 1)], "falling": [(0, -1)], "interior": [(0, 1), (1, -1)]}[band]
    low, high = 0.0, 40.0
    for end, sign in asks:
        a, b = sign * k[end], sign * ell[end]
        if b > 0:
            high = min(high, a / b)
        elif b < 0:
            low = max(low, a / b)
        elif a <= 0:
            return None
    return (low, high) if low < high else None


def test_slope_changes_sign_at_most_once_on_wide_links():
    # The scan's window rests on single crossing: on every admitted link of
    # the wider domain, the slope of the summed utility (differentiated in
    # mpmath) is positive, then negative, across a fixed grid of the split
    # interval; either part may be empty, so the objective rises to one peak
    # and falls.  The band (where the slope changes sign) is drawn first and
    # alpha inside the link's alphas for it (the drawn alpha where it has
    # none), so that no band can be starved.
    seen = {"interior": 0, "rising": 0, "falling": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.sampled_from(sorted(seen)), wide_links, wide_alphas, st.floats(0.05, 0.95))
    def check(band, link, alpha, share):
        g = _wide_gate([link])
        assume(g.admitted[0])
        at = (float(g.gamma_s[0]), float(g.gamma_w[0]), float(g.beta[0]))
        if alphas := _band_alphas(at, float(g.delta_lb[0]), float(g.delta_ub[0]), band):
            alpha = alphas[0] + share * (alphas[1] - alphas[0])
        xs = np.linspace(g.delta_lb[0], g.delta_ub[0], 9)
        signs = [s for s in (np.sign(alpha_fair_slope_ref(*at, float(x), alpha)) for x in xs) if s]
        assert signs == sorted(signs, reverse=True), (at, alpha, signs)
        seen["interior" if len(set(signs)) > 1 else "rising" if signs[0] > 0 else "falling"] += 1

    check()
    assert min(seen.values()) >= 10, seen


def test_blocked_sinrs_equal_full_matrix_reference():
    # Each drawn window is computed block by block and its user table
    # compared, every field exactly, against the full users x stations
    # matrix.  The user count is set relative to the block of the station
    # count by each shape in turn, with one station and with a drawn count,
    # and every such case runs the same number of examples, so no draw can
    # starve one of them.  Each case has its own Hypothesis seed: a
    # derandomized run seeds from the test's code alone, so the cases would
    # otherwise replay the same draws.
    shapes = ("no_users", "one_user", "block-1", "block", "block+1", "several")
    seen = dict.fromkeys(shapes + ("one_station", "clamped"), 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=17)
    @given(
        st.integers(1, 400),
        st.integers(2, 4),
        st.floats(0.0, 1.0),
        st.sampled_from([0.2, 1.0, 6.0]),
        st.sampled_from([1e-3, 0.05, 0.3]),
        st.integers(0, 2**32 - 1),
    )
    def check(shape, one_station, n_bs, blocks, partial, side, min_km, seed):
        n_bs = 1 if one_station else n_bs
        step = max(1, _BLOCK_ENTRIES // n_bs)
        n_users = {
            "no_users": 0,
            "one_user": 1,
            "block-1": step - 1,
            "block": step,
            "block+1": step + 1,
            "several": blocks * step + int(partial * (step - 1)),
        }[shape]
        cfg = NetworkConfig(pathloss_min_distance_km=min_km)
        rng = np.random.default_rng(seed)
        bs_xy, user_xy = rng.uniform(0.0, side, (n_bs, 2)), rng.uniform(0.0, side, (n_users, 2))
        blocked, full = (
            NetworkRealization(bs_xy, user_xy, side, seed=seed % 1000, trial_index=seed % 7, resamples=2)
            for _ in range(2)
        )
        got, expected = compute_sinrs(blocked, cfg), compute_sinrs_ref(full, cfg)
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
        assert (blocked.clamped_links, blocked.resamples) == (full.clamped_links, full.resamples)
        seen[shape] += 1
        seen["one_station"] += n_bs == 1 and n_users > 0
        seen["clamped"] += blocked.clamped_links > 0

    for case, (shape, one_station) in enumerate(itertools.product(shapes, (True, False))):
        hypothesis.seed(case)(check)(shape, one_station)
    assert min(seen.values()) >= 5, seen


def test_emitters_equal_row_by_row_reference(tmp_path):
    # Each drawn row set is written by both emitters and by the row-by-row
    # references, and the bytes compared with ==.  Values come from small
    # pools so that sort keys repeat and -0.0 meets 0.0 in one column, and
    # the last few rows (but the first) take the first row's sort keys.
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
    # The cases are drawn first and planted in a drawn row: one of four
    # values (signed zeros with a copy of the row that holds -0.0), one of two
    # stderrs, and by a drawn flag each: a None gamma_s_db, trials > 1, a copy
    # of the row (duplicate keys), and alpha 1.0 and a non-ASCII strategy in
    # the first row, whose sort keys the last rows take.
    values = {"signed_zeros": 0.0, "nan": math.nan, "-inf": -math.inf, "1.23456789e+11": 1.23456789e11}

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        st.sampled_from(sorted(values)),
        st.sampled_from([math.inf, 1e-10]),
        st.tuples(*[st.booleans()] * 5),
        st.lists(rows, min_size=1, max_size=24),
        st.integers(0, 2),
        st.integers(0, 23),
    )
    def check(value, stderr, flags, drawn, copies, at):
        none_gamma, several_trials, duplicate, integral, non_ascii = flags
        at = at % len(drawn)
        row = dataclasses.replace(drawn[at], value=values[value], stderr=stderr)
        row = dataclasses.replace(row, gamma_s_db=None) if none_gamma else row
        row = dataclasses.replace(row, trials=7) if several_trials else row
        drawn = drawn[:at] + [row] + drawn[at + 1 :]
        drawn += [dataclasses.replace(row, value=-0.0)] * (value == "signed_zeros") + [row] * duplicate
        drawn[0] = dataclasses.replace(drawn[0], alpha=1.0) if integral else drawn[0]
        drawn[0] = dataclasses.replace(drawn[0], strategy="sous-optimal \u00e9\u03b1") if non_ascii else drawn[0]
        keys = {key: getattr(drawn[0], key) for key in ("alpha", "beta", "strategy", "metric")}
        tail = max(1, len(drawn) - copies)
        drawn = drawn[:tail] + [dataclasses.replace(row, **keys) for row in drawn[tail:]]
        for emit, ref, suffix in (
            (emit_campaign_csv, emit_campaign_csv_ref, ".csv"),
            (emit_campaign_json, emit_campaign_json_ref, ".json"),
        ):
            got, want = tmp_path / ("got" + suffix), tmp_path / ("want" + suffix)
            emit(drawn, got)
            ref(drawn, want)
            assert got.read_bytes() == want.read_bytes(), drawn
        # The same rows as a row table whose alpha and beta are float64 arrays,
        # so that NaNs, infinities and both zeros meet in a NumPy key column.
        table = [[getattr(r, key) for r in drawn] for key in CSV_HEADER]
        table[:2] = [np.array(column, dtype=np.float64) for column in table[:2]]
        got = tmp_path / "table.csv", tmp_path / "table.json"
        emit_artifacts(table, *got)
        for path, suffix in zip(got, (".csv", ".json")):
            assert path.read_bytes() == (tmp_path / ("want" + suffix)).read_bytes(), drawn
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


def test_coded_columns_render_as_expanded_columns_and_row_by_row_writers(tmp_path):
    # A producer may give a row-table column as (codes, distinct values): an
    # intp code per row and a list whose entries may be unused or repeated.  A
    # table with any subset of its columns so given must render the bytes of
    # the same table with those columns expanded, to lists and to float64 and
    # int64 arrays, and of the row-by-row writers.  Each example draws its band
    # first and plants it in a drawn coded column: an unused or a repeated
    # entry, -0.0 beside 0.0, a NaN, a None SINR, or a constant column (as the
    # producers give strategy, trials and stderr).
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, 1e-10, 1.23456789e11]
    numbers = st.sampled_from(special) | st.floats(allow_nan=True, allow_infinity=True)
    keys = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, math.nan])
    pools = dict(zip(CSV_HEADER, (
        keys, keys | numbers, st.none() | numbers, st.none() | keys,
        st.sampled_from(["oma", "near_far", "optimal", "sous-optimal \u00e9\u03b1", 'a,"b"']),
        st.sampled_from(METRIC_NAMES), numbers, st.integers(1, 10**6), numbers,
    )))
    floats = ("alpha", "beta", "gamma_s_db", "gamma_w_db", "value", "stderr")
    bands = {"unused": CSV_HEADER, "repeated": CSV_HEADER, "signed_zeros": floats, "nan": floats,
             "none_sinr": ("gamma_s_db", "gamma_w_db"), "constant": CSV_HEADER}
    seen = dict.fromkeys(bands, 0)

    def plant(band, distinct, codes, extra):
        """``band`` in a coded column, as its distinct values and codes."""
        if band == "constant":
            return distinct[:1], [0] * len(codes)
        distinct = distinct + {"unused": [extra], "repeated": [distinct[codes[0]]], "signed_zeros": [0.0, -0.0],
                               "nan": [math.nan], "none_sinr": [None]}[band]
        if band != "unused":  # the first and the last row take the planted entries
            codes = [len(distinct) - (band == "signed_zeros") - 1, *codes[1:-1], len(distinct) - 1]
        return distinct, codes

    @settings(derandomize=True, database=None, deadline=None, max_examples=480)
    @given(st.sampled_from(list(bands)), st.integers(2, 12), st.data())
    def check(band, n, data):
        key = data.draw(st.sampled_from(bands[band]))
        coded = {key, *data.draw(st.lists(st.sampled_from(CSV_HEADER), max_size=len(CSV_HEADER)))}
        table, lists = [], []
        for name in CSV_HEADER:
            distinct = data.draw(st.lists(pools[name], min_size=1, max_size=5))
            codes = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
            if name == key:
                distinct, codes = plant(band, distinct, codes, data.draw(pools[name]))
            lists.append([distinct[c] for c in codes])
            table.append((np.array(codes, dtype=np.intp), distinct) if name in coded else list(lists[-1]))
        arrays = [np.array(column, dtype=np.int64 if name == "trials" else float)
                  if name == "trials" or None not in column and name in floats else column
                  for name, column in zip(CSV_HEADER, lists)]
        rows = list(map(ResultRow, *lists))
        emit_campaign_csv_ref(rows, tmp_path / "want.csv")
        emit_campaign_json_ref(rows, tmp_path / "want.json")
        want = [(tmp_path / ("want" + suffix)).read_bytes() for suffix in (".csv", ".json")]
        for k, columns in enumerate((table, lists, arrays)):
            got = tmp_path / f"got{k}.csv", tmp_path / f"got{k}.json"
            emit_artifacts(columns, *got)
            assert [path.read_bytes() for path in got] == want, (band, key, sorted(coded), table)
        found = set()  # the bands this table's coded columns hold
        for name, (codes, distinct) in ((name, c) for name, c in zip(CSV_HEADER, table) if isinstance(c, tuple)):
            used = [distinct[c] for c in set(codes.tolist())]
            zeros = {math.copysign(1.0, v) for v in used if name in floats and v == 0.0}
            found |= {band for band, holds in (
                ("unused", len(used) < len(distinct)),
                ("repeated", len({repr(v) for v in distinct}) < len(distinct)),
                ("signed_zeros", zeros == {1.0, -1.0}),
                ("nan", any(v != v for v in used if name in floats and v is not None)),
                ("none_sinr", None in used),
                ("constant", len(distinct) == 1),
            ) if holds}
        for band in found:
            seen[band] += 1

    check()
    assert min(seen.values()) >= 50, seen


def _assert_written_as_by_the_reference(rows, csv_path, json_path, scratch):
    """The CSV and JSON at the two paths are the row-by-row writers' bytes for ``rows``."""
    emit_campaign_csv_ref(rows, scratch / "want.csv")
    emit_campaign_json_ref(rows, scratch / "want.json")
    assert csv_path.read_bytes() == (scratch / "want.csv").read_bytes()
    assert json_path.read_bytes() == (scratch / "want.json").read_bytes()


def _assert_table_written_as_by_the_reference(table, tmp_path):
    """A row table, as NumPy arrays and as lists, and its rows through the
    single emitters are all written as by the row-by-row writers."""
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in table]
    rows = list(map(ResultRow, *lists))
    for k, columns in enumerate((table, lists)):
        got = tmp_path / f"table{k}.csv", tmp_path / f"table{k}.json"
        emit_artifacts(columns, *got)
        _assert_written_as_by_the_reference(rows, *got, tmp_path)
    emit_campaign_csv(rows, tmp_path / "rows.csv")
    emit_campaign_json(rows, tmp_path / "rows.json")
    _assert_written_as_by_the_reference(rows, tmp_path / "rows.csv", tmp_path / "rows.json", tmp_path)


@pytest.mark.parametrize("extra", [0, 1])
def test_a_write_block_and_one_more_row_equal_row_by_row_writers(tmp_path, extra):
    # Artifacts are written a block of rows at a time: exactly one block, and
    # one block and one row, whose last row is written on its own.
    n = _BLOCK_ROWS + extra
    rng = np.random.default_rng(extra)
    pick = lambda pool: np.array(pool, dtype=object if isinstance(pool[0], str) else None)[rng.integers(0, len(pool), n)]
    table = [pick([0.0, 0.5, 1.0, 2.0]), pick([0.0, 0.01, 0.1]), rng.normal(10.0, 5.0, n).round(1),
             rng.normal(0.0, 5.0, n), pick(["oma", "optimal", 'a,"b"']), pick(METRIC_NAMES),
             rng.normal(size=n), rng.integers(1, 10**6, n), rng.exponential(size=n)]
    _assert_table_written_as_by_the_reference(table, tmp_path)


def test_cells_a_careless_factorization_would_alter_equal_row_by_row_writers(tmp_path):
    # Each column holds values that a factorization could merge or change:
    # a text with a trailing NUL beside the same text without it (which a
    # fixed-width NumPy string drops), a long non-ASCII text, numbers that
    # compare equal but are of other types, both zeros, NaNs of three bit
    # patterns, and trial counts beyond the int64 range.
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(float)
    assert len(set(nans.view(np.int64).tolist())) == 3 and np.isnan(nans).all()
    values = [1, 1.0, True, -0.0, 0.0, *nans.tolist()]
    n = len(values)
    long_text = "sous-optimal \u00e9\u03b1\u4e2d " * 40 + 'a,"b"'
    table = [[0.5] * n, [-0.0, 0.0, -0.0, 0.0, 0.0, 0.0, -0.0, 0.0], [None, 1.0, None, -0.0, 0.0, None, 2.5, True],
             [0.0, -0.0, None, True, 1, None, 1.0, -0.0], ["oma", "oma\x00", long_text, "oma\x00", "oma", long_text, "", "oma"],
             ["t_alpha"] * n, values, [1, 2**63, 2**63 + 1, 2**64 - 1, True, 1, 3, 2**63], values[::-1]]
    _assert_table_written_as_by_the_reference(table, tmp_path)
    # The number columns again as the NumPy arrays a producer may give.
    arrays = {1: np.array(table[1]), 6: np.array(values, dtype=float), 7: np.array(table[7], dtype=np.uint64),
              8: np.array(values[::-1], dtype=float), 4: np.array(table[4], dtype=object)}
    assert arrays[7][1:4].tolist() == table[7][1:4] and arrays[4][1] == "oma\x00"
    _assert_table_written_as_by_the_reference([arrays.get(k, column) for k, column in enumerate(table)], tmp_path)


def test_split_sweep_shape_equals_row_by_row_writers(tmp_path):
    # The split-sweep benchmark's shape, several write blocks of rows.
    values = [f"{2.1 + 0.1 * i:.4f}" for i in range(120)]
    betas, alphas = [0, 0.02, 0.05, BETA_STAR_TOKEN], [0.3, 0.6, 1, 3, 25, 35]
    base = tmp_path / "dense"
    assert main(["sweep", "--axis", "gamma-s", "--values", ",".join(values), "--gamma-w-db", "2",
                 "--betas", ",".join(map(str, betas)), "--alphas", ",".join(map(str, alphas)),
                 "--solver", "suboptimal", "--out", str(base)]) == 0
    rows = emit_delta_sweep([(float(v), 2.0) for v in values], betas, alphas, solver=Strategy.SUBOPTIMAL)
    assert len(rows) > 2 * _BLOCK_ROWS
    _assert_written_as_by_the_reference(rows, base.with_suffix(".csv"), base.with_suffix(".json"), tmp_path)
    # The shape interleaves links: 13 links have beta_star < 0.05, so at an
    # alpha their beta_star rows sort before other links' beta = 0.05 rows,
    # which a sort link by link would get wrong.
    written = parse_campaign_csv_ref(base.with_suffix(".csv"))
    star = [i for i, r in enumerate(written) if r.beta not in betas]
    assert len({written[i].gamma_s_db for i in star if written[i].beta < 0.05}) == 13
    first = written[star[0]]
    assert any(r.beta == 0.05 and r.alpha == first.alpha and r.gamma_s_db != first.gamma_s_db
               for r in written[star[0] :])


def test_sweep_artifacts_equal_row_by_row_writers(tmp_path):
    # `sweep` renders its row table without building rows; its artifacts
    # must be the row-by-row writers' bytes for emit_delta_sweep's rows,
    # taken one (link, beta entry, alpha) point at a time.
    # SINRs are in tenths of a dB, the swept ones as offsets from the fixed
    # one: a negative offset gives a misordered link (then only the token is
    # a valid beta), a zero one an equal link (skipped at the token), and a
    # small one a pair the criterion rejects.  Each example draws its band
    # first: "no_rows" takes offsets <= 0 at the beta_star token only, which
    # skips every point, so that the band gets about half the examples
    # whatever literals Hypothesis's constant pool holds.
    tenths = st.integers(-100, 200)
    bands = {
        "any": st.tuples(
            st.lists(st.sampled_from([0, -5, 2, 70]) | st.integers(-30, 300), min_size=1, max_size=6, unique=True),
            st.lists(st.sampled_from([0.0, 0.001, 0.02, 0.05, 0.3, 1.0, BETA_STAR_TOKEN]), min_size=1, max_size=4,
                     unique=True),
        ),
        "no_rows": st.tuples(st.lists(st.sampled_from([0, -5]) | st.integers(-30, 0), min_size=1, max_size=6,
                                      unique=True), st.just([BETA_STAR_TOKEN])),
    }
    alphas = st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5, 25.0]) | st.floats(0.0, 35.0),
                      min_size=1, max_size=3, unique_by=format_value)
    solvers = st.sampled_from([Strategy.OPTIMAL, Strategy.SUBOPTIMAL])
    cases = ("misordered", "equal", "rejected", "skipped", "no_rows", "optimal", "suboptimal", "numeric_beta")
    seen = dict.fromkeys(cases, 0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.sampled_from(list(bands)), st.sampled_from(["gamma-s", "gamma-w"]), tenths, alphas, solvers,
           st.floats(0.05, 0.95), st.data())
    def check(band, axis, fixed, alphas, solver, tau, data):
        offsets, betas = data.draw(bands[band])
        if axis == "gamma-s":
            values, links = [(fixed + k) / 10 for k in offsets], [((fixed + k) / 10, fixed / 10) for k in offsets]
        else:
            values, links = [(fixed - k) / 10 for k in offsets], [(fixed / 10, (fixed - k) / 10) for k in offsets]
        if min(offsets) < 0:
            betas = [BETA_STAR_TOKEN]  # a numeric beta needs every link ordered
        rows = [row for link, entry, alpha in itertools.product(links, betas, alphas)
                for row in emit_delta_sweep([link], [entry], [alpha], tau=tau, solver=solver)]
        fixed_flag = "--gamma-w-db" if axis == "gamma-s" else "--gamma-s-db"
        base = tmp_path / "got"
        argv = ["sweep", "--axis", axis, "--values=" + ",".join(map(repr, values)), f"{fixed_flag}={fixed / 10!r}",
                "--betas", ",".join(map(str, betas)), "--alphas", ",".join(map(repr, alphas)),
                "--tau", repr(tau), "--solver", solver.value, "--out", str(base)]
        assert main(argv) == (0 if rows else 2)
        assert band == "any" or not rows
        seen["no_rows"] += not rows
        if rows:
            _assert_written_as_by_the_reference(rows, base.with_suffix(".csv"), base.with_suffix(".json"), tmp_path)
        points = len(links) * len(betas) * len(alphas)
        metrics = collections.Counter(r.metric for r in rows)
        seen["misordered"] += min(offsets) < 0
        seen["equal"] += 0 in offsets
        seen["rejected"] += metrics["delta_s"] < metrics["delta_lb"]
        seen["skipped"] += metrics["delta_lb"] < points
        seen[solver.value] += 1
        seen["numeric_beta"] += betas != [BETA_STAR_TOKEN]

    check()
    assert min(seen.values()) >= 10, seen


@functools.cache
def _campaign_shape(shape: str):
    """The NetworkConfig fields, alphas, betas and strategies of a shape of
    test_campaign_rows_equal_per_trial_reference, and its reference rows."""
    network, alphas, betas, strategies = {
        "small_window": ({"area_km2": 0.05, "trials": 16, "seed": 21}, (0.0, 1.0, 2.5, 25.0), (0.0, 0.03, 0.2),
                         tuple(Strategy)),
        "one_trial": ({"trials": 1, "seed": 21}, (0.0, 1.0, 25.0), (0.0, 0.03, 0.2), tuple(Strategy)),
        "mc_fast": ({"trials": 2, "seed": 1}, (0.5, 1.0, 3.0, 25.0), (0.01, 0.04, 0.08),
                    (Strategy.SUBOPTIMAL, Strategy.UPPER_BOUND, Strategy.LOWER_BOUND, Strategy.NEAR_FAR, Strategy.OMA)),
    }[shape]
    sweep = [(a, b) for a in alphas for b in betas]
    return network, alphas, betas, strategies, run_campaign_ref(NetworkConfig(**network), sweep, list(strategies))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("shape", ["small_window", "one_trial", "mc_fast"])
def test_simulate_artifacts_equal_row_by_row_writers(tmp_path, shape, threads):
    # `simulate` renders the campaign's row table without building rows; its
    # artifacts must be the row-by-row writers' bytes for the rows of the
    # campaign aggregated trial by trial.
    network, alphas, betas, strategies, expected = _campaign_shape(shape)
    config = tmp_path / "shape.cfg"
    config.write_text("".join(f"{key} = {value!r}\n" for key, value in network.items()), encoding="utf-8")
    out = tmp_path / "run"
    argv = ["simulate", "--config", str(config), "--alphas", ",".join(map(repr, alphas)),
            "--betas", ",".join(map(repr, betas)), "--strategies", ",".join(s.value for s in strategies),
            "--threads", str(threads), "--out-dir", str(out)]
    assert main(argv) == 0
    _assert_written_as_by_the_reference(expected, out / "campaign.csv", out / "campaign.json", tmp_path)
