import numpy as np

from noma_fair.allocator import DecisionMode, gate, solve_optimal, solve_suboptimal, split
from noma_fair.bounds import beta_star, delta_upper_bound, msd_threshold
from noma_fair.fairness import FairnessConfig
from noma_fair.pairing import candidate_pairs, near_far_decision, user_table
from noma_fair.rates import PairLink, Strategy

from _oracles import grid_feasible

SOLVERS = {Strategy.OPTIMAL: solve_optimal, Strategy.SUBOPTIMAL: solve_suboptimal}


def user(uid, gamma, gain=None):
    """The row of a one-user table on station 0."""
    return user_table([uid], [0], [gamma], [gain or gamma])[0]


def ids(users):
    return sorted(u.user_id for u in users)


def decide(pop, beta, decision_fn):
    """(strong, weak, decision) for every candidate of one cell."""
    cands, _ = candidate_pairs(pop)
    return [
        (s, w, decision_fn(PairLink(gamma_s=s.gamma, gamma_w=w.gamma, beta=beta)))
        for s, w in cands
    ]


def gated(strong, weak, beta):
    """The candidate's admission at ``beta`` by the array rules, on arrays of size 1."""
    return gate([strong.gamma], [weak.gamma], beta)


def admitted(pop, beta, cfg, solve):
    return [
        (s, w, d)
        for s, w, d in decide(pop, beta, lambda link: solve(link, cfg))
        if d.mode is DecisionMode.NOMA_PAIRED
    ]


class TestCandidatePairs:
    def test_front_back_matching(self):
        pop = [user(1, 10.0), user(2, 8.0), user(3, 4.0), user(4, 2.0)]
        cands, singles = candidate_pairs(pop)
        assert [(s.user_id, w.user_id) for s, w in cands] == [(1, 4), (2, 3)]
        assert singles == []

    def test_single_user(self):
        cands, singles = candidate_pairs([user(7, 1.0)])
        assert cands == []
        assert ids(singles) == [7]

    def test_odd_count_leaves_middle_user(self):
        pop = [user(i, gamma) for i, gamma in enumerate([9.0, 7.0, 5.0, 3.0, 1.0])]
        cands, singles = candidate_pairs(pop)
        assert len(cands) == 2
        assert [u.user_id for u in singles] == [2]

    def test_gain_sort_with_id_tiebreak(self):
        pop = [user(3, 2.0, gain=5.0), user(1, 2.0, gain=5.0), user(2, 1.0, gain=1.0)]
        cands, singles = candidate_pairs(pop)
        # equal gains sort by id: order is 1, 3, 2, so 1 pairs with 2
        assert (cands[0][0].user_id, cands[0][1].user_id) == (1, 2)
        assert singles[0].user_id == 3

    def test_role_swap_when_interference_inverts_sinr(self):
        # Higher gain but lower SINR: the strong role follows the SINR.
        a = user(1, gamma=1.0, gain=9.0)
        b = user(2, gamma=4.0, gain=1.0)
        cands, _ = candidate_pairs([a, b])
        strong, weak = cands[0]
        assert strong.user_id == 2
        assert weak.user_id == 1


class TestNearFar:
    def test_allocates_upper_bound_without_gating(self):
        # Close SINRs fail the pairing criterion, near-far pairs them anyway.
        [(strong, weak, decision)] = decide([user(1, 10.0), user(2, 9.5)], 0.3, near_far_decision)
        assert (strong.user_id, weak.user_id) == (1, 2)
        g = gated(strong, weak, 0.3)
        assert not g.criterion.satisfied[0]
        assert decision.mode is DecisionMode.NOMA_PAIRED
        assert decision.allocation.delta_s == split(g, Strategy.NEAR_FAR, None)[0]
        assert decision.allocation.delta_s == g.delta_ub[0]
        assert decision.allocation.delta_s == delta_upper_bound(9.5)

    def test_empty_population(self):
        assert candidate_pairs([]) == ([], [])

    def test_deterministic(self):
        rng = np.random.default_rng(42)
        pop = [user(i, g) for i, g in enumerate(10 ** rng.uniform(0, 2, 9))]
        first = decide(pop, 0.1, near_far_decision)
        second = decide(list(reversed(pop)), 0.1, near_far_decision)
        assert first == second

    def test_partition(self):
        # Near-far admits every candidate: each user is in one pair or is the odd one out.
        rng = np.random.default_rng(43)
        for n in [1, 2, 5, 8, 13]:
            pop = [user(i, g) for i, g in enumerate(10 ** rng.uniform(0, 2, n))]
            cands, singles = candidate_pairs(pop)
            assert ids([u for pair in cands for u in pair] + singles) == ids(pop)
            assert 2 * len(cands) + len(singles) == n


class TestMsdPairing:
    """The gated solvers applied to the shared candidates."""

    def test_feasible_two_user_cell_is_paired(self):
        pop = [user(1, 7.943), user(2, 1.585)]
        assert grid_feasible(7.943, 1.585)
        for solve in SOLVERS.values():
            assert len(admitted(pop, 0.0, FairnessConfig(alpha=1.0), solve)) == 1
        assert candidate_pairs(pop)[1] == []

    def test_identical_sinr_population_all_single(self):
        pop = [user(i, 5.0) for i in range(6)]
        assert len(candidate_pairs(pop)[0]) == 3
        for solve in SOLVERS.values():
            assert admitted(pop, 0.0, FairnessConfig(alpha=1.0), solve) == []

    def test_all_candidates_failing_criterion_go_single(self):
        # close SINRs: every candidate misses the minimum-difference cut
        pop = [user(i, g) for i, g in enumerate([4.0, 3.9, 3.8, 3.7])]
        cfg = FairnessConfig(alpha=2.0)
        for solve in SOLVERS.values():
            decisions = decide(pop, 0.0, lambda link: solve(link, cfg))
            assert len(decisions) == 2
            for strong, weak, d in decisions:
                assert not gated(strong, weak, 0.0).criterion.satisfied[0]
                assert d.mode is DecisionMode.OMA_FALLBACK

    def test_beta_gate_rejects(self):
        gs, gw = 7.943, 1.585
        beta = min(1.0, beta_star(gs, gw) * 1.05)
        pop = [user(1, gs), user(2, gw)]
        for solve in SOLVERS.values():
            [(strong, weak, d)] = decide(pop, beta, lambda link: solve(link, FairnessConfig(alpha=1.0)))
            assert gated(strong, weak, beta).criterion.satisfied[0]  # rejected by the beta gate alone
            assert d.mode is DecisionMode.OMA_FALLBACK

    def test_admitted_pairs_satisfy_gates_post_hoc(self):
        rng = np.random.default_rng(44)
        pop = [user(i, g) for i, g in enumerate(10 ** rng.uniform(0, 3, 12))]
        beta = 0.02
        cfg = FairnessConfig(alpha=3.0)
        for strategy, solve in SOLVERS.items():
            pairs = admitted(pop, beta, cfg, solve)
            assert pairs  # seeded population admits at least one pair
            for strong, weak, d in pairs:
                gs, gw = strong.gamma, weak.gamma
                assert gs - gw > msd_threshold(gs, gw)
                assert beta < beta_star(gs, gw)
                assert d.allocation.delta_s == split(gated(strong, weak, beta), strategy, cfg)[0]
