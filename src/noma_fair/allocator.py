"""Power-split decisions for candidate NOMA pairs: array rules, scalar wrappers.

Each rule is written once, over arrays of links, in three stages:

* :func:`link_facts`: criterion, beta_star and delta_ub (SINRs alone).
* :func:`gate`: delta_lb at ``beta`` (one value, or one per link) and
  admission.  A pair is admitted when the criterion holds and the split
  interval [delta_lb, delta_ub] is nonempty (``delta_lb < delta_ub``,
  which is ``beta < beta_star`` away from rounding); otherwise it is
  served OMA.  An admitted split always lies in that interval.
* :func:`split`: every link's delta_s under one strategy.  Optimal
  maximizes the summed alpha-fair utility of the two NOMA rates over the
  interval.  Suboptimal is the endpoint rule: below the imperfection-ratio
  threshold ``tau`` it picks delta_lb for alpha > 1 and delta_ub for
  alpha <= 1; at or above tau, delta_ub for any alpha.  Upper_bound and
  lower_bound pin the split to one bound; near_far takes delta_ub ungated.

:func:`solve_optimal`, :func:`solve_suboptimal`, :func:`allocate_fixed_bound`
and :func:`near_far_decision` run the same stages on arrays of size 1;
:data:`DECISIONS` maps every :class:`~noma_fair.rates.Strategy` to one.

The 1-D objective is continuous on a compact interval but need not be
concave, so the optimal solver runs a coarse grid scan followed by
golden-section refinement of every near-best bracket, one admitted link at
a time; this is robust to multimodality without derivative machinery.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import (
    AllocationBounds,
    PairingCriterion,
    delta_lower_bound,
    delta_upper_bound,
    pairing_criterion,
)
from .fairness import FairnessConfig, utility
from .rates import (
    PairLink,
    PowerAllocation,
    Strategy,
    _require_split,
    noma_sinr_strong,
    noma_sinr_weak,
)

__all__ = [
    "DecisionMode",
    "DecisionDiagnostics",
    "AllocationDecision",
    "LinkFacts",
    "Gate",
    "link_facts",
    "gate",
    "split",
    "solve_optimal",
    "solve_suboptimal",
    "allocate_fixed_bound",
    "near_far_decision",
    "DECISIONS",
]

_GRID_POINTS = 1000
# Grid maxima within this slack of the best are all refined (multimodal guard).
_BRACKET_SLACK = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


class DecisionMode(str, enum.Enum):
    NOMA_PAIRED = "noma_paired"
    OMA_FALLBACK = "oma_fallback"


@dataclass(frozen=True)
class DecisionDiagnostics:
    """Why a pair was admitted or rejected."""

    bounds: AllocationBounds
    criterion: PairingCriterion


@dataclass(frozen=True)
class AllocationDecision:
    """Outcome of a pairing decision; ``allocation`` is None for an OMA fallback.

    ``objective`` is the achieved summed utility; it is filled by the
    fairness-driven solvers and left None by the fixed-bound and near-far
    paths, which carry no fairness exponent.
    """

    allocation: Optional[PowerAllocation]
    objective: Optional[float]
    diagnostics: DecisionDiagnostics

    @property
    def mode(self) -> DecisionMode:
        return DecisionMode.OMA_FALLBACK if self.allocation is None else DecisionMode.NOMA_PAIRED


@dataclass(frozen=True)
class LinkFacts:
    """Per-link arrays that depend on (gamma_s, gamma_w) alone."""

    gamma_s: np.ndarray
    gamma_w: np.ndarray
    criterion: PairingCriterion  # of arrays
    delta_ub: np.ndarray


@dataclass(frozen=True)
class Gate:
    """The links' admission at one imperfection level."""

    links: LinkFacts
    beta: np.ndarray  # 0-d, or one value per link
    delta_lb: np.ndarray
    admitted: np.ndarray


def link_facts(gamma_s, gamma_w) -> LinkFacts:
    """Criterion and delta_ub of 1-D arrays of links, strong SINR first."""
    gs, gw = np.asarray(gamma_s, dtype=float), np.asarray(gamma_w, dtype=float)
    return LinkFacts(gs, gw, pairing_criterion(gs, gw), delta_upper_bound(gw))


def gate(links: LinkFacts, beta) -> Gate:
    """delta_lb at ``beta`` and the admission mask: criterion and delta_lb < delta_ub."""
    delta_lb = delta_lower_bound(links.gamma_s, beta)
    admitted = links.criterion.satisfied & (delta_lb < links.delta_ub)
    return Gate(links, np.asarray(beta, dtype=float), delta_lb, admitted)


def _objective_fn(gamma_s: float, gamma_w: float, beta: float, alpha: float) -> Callable:
    """Summed alpha-fair utility of the two NOMA rates, as a function of delta_s.

    Vectorized over delta_s.  Positive rates are guaranteed on
    [delta_lb, delta_ub] because the endpoints already achieve the (positive)
    OMA rates.
    """

    def obj(delta_s):
        r_s = np.log2(1.0 + noma_sinr_strong(gamma_s, beta, delta_s))
        r_w = np.log2(1.0 + noma_sinr_weak(gamma_w, delta_s))
        return utility(r_s, alpha) + utility(r_w, alpha)

    return obj


def _golden_max(fn: Callable, lo: float, hi: float, tol: float) -> float:
    """Golden-section search for the maximizer of fn on [lo, hi]."""
    dist = hi - lo
    if dist <= tol:
        return 0.5 * (lo + hi)
    n = int(math.ceil(math.log(tol / dist) / math.log(_INV_PHI)))
    c = lo + _INV_PHI_SQ * dist
    d = lo + _INV_PHI * dist
    yc = fn(c)
    yd = fn(d)
    for _ in range(max(n - 1, 0)):
        if yc > yd:
            hi, d, yd = d, c, yc
            dist *= _INV_PHI
            c = lo + _INV_PHI_SQ * dist
            yc = fn(c)
        else:
            lo, c, yc = c, d, yd
            dist *= _INV_PHI
            d = lo + _INV_PHI * dist
            yd = fn(d)
    return 0.5 * (lo + d) if yc > yd else 0.5 * (c + hi)


def _maximize_on_interval(fn: Callable, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Grid scan plus golden-section refinement; returns (delta_s, objective).

    Every grid bracket within _BRACKET_SLACK of the best value is refined and
    the global best kept; exact ties go to the smaller delta_s, which favors
    the weak user.
    """
    xs = np.linspace(lo, hi, _GRID_POINTS)
    ys = fn(xs)
    best = float(np.max(ys))
    last = len(xs) - 1
    # The endpoints enter as exact candidates: golden section only ever
    # returns interior points, which loses real objective on boundary maxima
    # where the slope does not vanish.
    refined = [(float(ys[0]), float(xs[0])), (float(ys[last]), float(xs[last]))]
    for i in np.flatnonzero(ys >= best - _BRACKET_SLACK):
        if 0 < i < last and (ys[i] < ys[i - 1] or ys[i] < ys[i + 1]):
            continue  # not a local peak, its bracket is covered by a neighbor
        x = _golden_max(fn, xs[max(i - 1, 0)], xs[min(i + 1, last)], tol)
        refined.append((float(fn(x)), float(x)))
    top = max(v for v, _ in refined)
    delta = min(x for v, x in refined if v >= top - 1e-12)
    return delta, top


def split(
    g: Gate, strategy: Strategy, cfg: Optional[FairnessConfig]
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Every link's delta_s under ``strategy``, NaN where it is served OMA.

    The second value is the summed utility the optimal solver reached, one
    per link (NaN where rejected); None for every other strategy.  ``cfg``
    is read by the optimal and suboptimal rules only.
    """
    lb, ub = g.delta_lb, g.links.delta_ub
    paired = g.admitted
    objective = None
    if strategy is Strategy.OPTIMAL:
        pick, objective = np.full(lb.shape, np.nan), np.full(lb.shape, np.nan)
        gs, gw = g.links.gamma_s, g.links.gamma_w
        beta = np.broadcast_to(g.beta, lb.shape)
        for i in np.flatnonzero(paired):
            fn = _objective_fn(float(gs[i]), float(gw[i]), float(beta[i]), cfg.alpha)
            pick[i], objective[i] = _maximize_on_interval(fn, float(lb[i]), float(ub[i]), cfg.solver_tol)
    elif strategy is Strategy.SUBOPTIMAL:
        # Rejected links may have beta_star <= 0; their picks are dropped.
        with np.errstate(divide="ignore", invalid="ignore"):
            low = (g.beta / g.links.criterion.beta_star < cfg.tau) & (cfg.alpha > 1)
        pick = np.where(low, lb, ub)
    elif strategy is Strategy.UPPER_BOUND:
        pick = ub
    elif strategy is Strategy.LOWER_BOUND:
        pick = lb
    elif strategy is Strategy.NEAR_FAR:
        pick, paired = ub, np.ones(lb.shape, dtype=bool)
    elif strategy is Strategy.OMA:
        pick, paired = ub, np.zeros(lb.shape, dtype=bool)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    _require_split(pick[paired])
    return np.where(paired, pick, np.nan), objective


def _decide_one(link: PairLink, strategy: Strategy, cfg) -> AllocationDecision:
    """:func:`split` on one link, with its diagnostics and objective."""
    g = gate(link_facts([link.gamma_s], [link.gamma_w]), link.beta)
    delta, objective = split(g, strategy, cfg)
    c = g.links.criterion
    diag = DecisionDiagnostics(
        AllocationBounds(float(g.delta_lb[0]), float(g.links.delta_ub[0])),
        PairingCriterion(float(c.msd_threshold[0]), float(c.beta_star[0]), bool(c.satisfied[0])),
    )
    if np.isnan(delta[0]):
        return AllocationDecision(None, None, diag)
    d = float(delta[0])
    if objective is not None:
        objective = float(objective[0])
    elif strategy is Strategy.SUBOPTIMAL:
        objective = float(_objective_fn(link.gamma_s, link.gamma_w, link.beta, cfg.alpha)(d))
    return AllocationDecision(PowerAllocation(d, strategy), objective, diag)


def solve_optimal(link: PairLink, cfg: FairnessConfig) -> AllocationDecision:
    """Maximize the pair's summed alpha-fair utility over the feasible splits.

    Returns an OMA fallback when the pairing criterion fails or the split
    interval is empty.  Otherwise the returned split lies in
    [delta_lb, delta_ub], located to within ``cfg.solver_tol``, which keeps
    both NOMA rates at or above their OMA counterparts by construction.
    """
    return _decide_one(link, Strategy.OPTIMAL, cfg)


def solve_suboptimal(link: PairLink, cfg: FairnessConfig) -> AllocationDecision:
    """Endpoint rule approximating :func:`solve_optimal` at negligible cost.

    With the imperfection ratio beta/beta_star below ``cfg.tau`` the split is
    delta_lb for alpha > 1 (weak-user-favoring) and delta_ub for alpha <= 1;
    otherwise delta_ub for any alpha, since a large residual imperfection
    forces the most protective split for the strong user.
    """
    return _decide_one(link, Strategy.SUBOPTIMAL, cfg)


def allocate_fixed_bound(link: PairLink, which: Strategy) -> AllocationDecision:
    """Pin the split to delta_ub or delta_lb, with the same admission gate.

    ``which`` must be Strategy.UPPER_BOUND or LOWER_BOUND.
    """
    if which not in (Strategy.UPPER_BOUND, Strategy.LOWER_BOUND):
        raise ValueError(f"which must select a bound, got {which!r}")
    return _decide_one(link, which, None)


def near_far_decision(link: PairLink) -> AllocationDecision:
    """Ungated delta_ub allocation used by the near-far baseline.

    No rate guarantee for the strong user: with rising imperfection its NOMA
    rate can fall below its OMA rate, which is exactly the failure mode the
    gated strategies avoid.
    """
    return _decide_one(link, Strategy.NEAR_FAR, None)


# Every strategy's decision for one candidate; None means serve both as OMA.
DECISIONS: dict[Strategy, Callable[[PairLink, FairnessConfig], Optional[AllocationDecision]]] = {
    Strategy.OPTIMAL: solve_optimal,
    Strategy.SUBOPTIMAL: solve_suboptimal,
    Strategy.UPPER_BOUND: lambda link, _: allocate_fixed_bound(link, Strategy.UPPER_BOUND),
    Strategy.LOWER_BOUND: lambda link, _: allocate_fixed_bound(link, Strategy.LOWER_BOUND),
    Strategy.NEAR_FAR: lambda link, _: near_far_decision(link),
    Strategy.OMA: lambda link, _: None,
}
