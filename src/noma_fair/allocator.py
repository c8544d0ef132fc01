"""Power-split decisions for candidate NOMA pairs: array rules, scalar wrappers.

Each rule is written once, over arrays of links, in two stages:

* :func:`gate`: criterion, beta_star and delta_ub of the links, delta_lb
  at ``beta`` and admission.  ``beta`` broadcasts against the 1-D links: one
  value, one per link, or a column of betas that gates every link at each.
  A pair is admitted when the criterion holds and the split interval
  [delta_lb, delta_ub] is nonempty (``delta_lb < delta_ub``, which is
  ``beta < beta_star`` away from rounding); otherwise it is served OMA.  An
  admitted split always lies in that interval.
* :func:`split`: every gated link's delta_s under one strategy, the splits
  alone.  Optimal maximizes the summed alpha-fair utility of the two NOMA
  rates over the interval.  Suboptimal is the endpoint rule: below the
  imperfection-ratio threshold ``tau`` it picks delta_lb for alpha > 1 and
  delta_ub for alpha <= 1; at or above tau, delta_ub for any alpha.
  Upper_bound and lower_bound pin the split to one bound; near_far takes
  delta_ub ungated.
* :func:`served_rates`: the (strong, weak) rates the links are served at
  under those splits: the NOMA rates where a link is paired, its users' OMA
  rates where it is rejected.

:func:`solve_optimal`, :func:`solve_suboptimal`, :func:`allocate_fixed_bound`
and :func:`near_far_decision` run the same stages on arrays of size 1 and
return an :class:`AllocationDecision`; the campaign, ``sweep`` and ``pair``
call the stages themselves.

The 1-D objective, :func:`summed_utility`, is continuous on a compact
interval, where its slope changes sign at most once, from positive to
negative (pinned by ``test_slope_changes_sign_at_most_once_on_wide_links``).
The optimal solver scans a grid around its best coarse point (the whole grid
where the objective is too flat for that) and refines every near-best bracket
by golden section, every admitted link at once: the scans in blocks of links,
the brackets in lock step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import PairingCriterion, delta_lower_bound, delta_upper_bound, pairing_criterion
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
    "AllocationDecision",
    "Gate",
    "gate",
    "split",
    "served_rates",
    "summed_utility",
    "solve_optimal",
    "solve_suboptimal",
    "allocate_fixed_bound",
    "near_far_decision",
]

_GRID_POINTS = 1000
# The scan's stride, and the grid steps either side of its best point that a window spans.
_COARSE_STEP = 32
_COARSE = np.append(np.arange(0, _GRID_POINTS, _COARSE_STEP), _GRID_POINTS - 1)
_WINDOW = np.arange(2 * _COARSE_STEP + 1)
# The points the scan evaluates per link whose window is proved, which the campaign's worker rule charges.
_SCAN_POINTS = _COARSE.size + _WINDOW.size
# Links per scan block, which bounds its (links x points) temporaries.
_SCAN_BLOCK = 128
# Grid maxima within this slack of the best are all refined (rounding and flat tops make several).
_BRACKET_SLACK = 1e-9
# Width at which golden section stops narrowing a bracket.  Comparing
# objective values places an interior optimum only to about sqrt(eps), so
# a smaller width buys no precision (see solve_optimal).
_SOLVER_TOL = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


class DecisionMode(str, enum.Enum):
    NOMA_PAIRED = "noma_paired"
    OMA_FALLBACK = "oma_fallback"


@dataclass(frozen=True)
class AllocationDecision:
    """Outcome of a pairing decision; ``allocation`` is None for an OMA fallback."""

    allocation: Optional[PowerAllocation]

    @property
    def mode(self) -> DecisionMode:
        return DecisionMode.OMA_FALLBACK if self.allocation is None else DecisionMode.NOMA_PAIRED


@dataclass(frozen=True)
class Gate:
    """The links' admission at ``beta``; delta_lb and admitted have the
    links' shape broadcast against beta's."""

    gamma_s: np.ndarray
    gamma_w: np.ndarray
    criterion: PairingCriterion  # of arrays
    delta_ub: np.ndarray
    beta: np.ndarray
    delta_lb: np.ndarray
    admitted: np.ndarray


def gate(gamma_s, gamma_w, beta) -> Gate:
    """Gate 1-D arrays of links, strong SINR first, at ``beta``: criterion
    and delta_ub per link, delta_lb and admission (criterion and
    delta_lb < delta_ub) per (beta, link)."""
    gs, gw = np.asarray(gamma_s, dtype=float), np.asarray(gamma_w, dtype=float)
    criterion, delta_ub = pairing_criterion(gs, gw), delta_upper_bound(gw)
    delta_lb = delta_lower_bound(gs, beta)
    admitted = criterion.satisfied & (delta_lb < delta_ub)
    return Gate(gs, gw, criterion, delta_ub, np.asarray(beta, dtype=float), delta_lb, admitted)


def summed_utility(gamma_s, gamma_w, beta, delta_s, alpha: float):
    """Summed alpha-fair utility U(R_s) + U(R_w) of the two NOMA rates.

    Array-transparent: the link arrays and ``delta_s`` broadcast together.
    Positive rates are guaranteed on [delta_lb, delta_ub] because the
    endpoints already achieve the (positive) OMA rates.
    """
    r_s = np.log2(1.0 + noma_sinr_strong(gamma_s, beta, delta_s))
    r_w = np.log2(1.0 + noma_sinr_weak(gamma_w, delta_s))
    return utility(r_s, alpha) + utility(r_w, alpha)


def _golden_max(fn: Callable, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Golden-section maximizer of ``fn`` on every bracket [lo, hi] in lock step.

    ``fn`` maps an array of splits, one per bracket, to their values.  Each
    bracket's result is read off after its own number of steps, counted
    with ``math.log`` as a one-bracket search counts them (``np.log`` may
    differ in the last bit); brackets already read off keep stepping with
    the rest, and their further steps are discarded.  A bracket no wider
    than ``tol`` returns its midpoint.
    """
    dist = hi - lo
    out = 0.5 * (lo + hi)
    # The step after which each bracket is read off; -1 keeps the midpoint.
    last = np.array(
        [math.ceil(math.log(tol / w) / math.log(_INV_PHI)) - 1 if w > tol else -1 for w in dist.tolist()],
        dtype=int,
    )
    reads = set(last.tolist())
    c = lo + _INV_PHI_SQ * dist
    d = lo + _INV_PHI * dist
    yc, yd = fn(np.stack((c, d)))
    for k in range(last.max(initial=-1) + 1):
        if k:
            left = yc > yd  # keep [lo, d], else keep [c, hi]
            lo, hi = np.where(left, lo, c), np.where(left, d, hi)
            kept, y_kept = np.where(left, c, d), np.where(left, yc, yd)
            dist = dist * _INV_PHI
            new = lo + np.where(left, _INV_PHI_SQ, _INV_PHI) * dist
            y_new = fn(new)
            c, yc = np.where(left, new, kept), np.where(left, y_new, y_kept)
            d, yd = np.where(left, kept, new), np.where(left, y_kept, y_new)
        if k in reads:
            best = np.where(yc > yd, 0.5 * (lo + d), 0.5 * (c + hi))
            out = np.where(last == k, best, out)
    return out


def _grid(lo, hi, index):
    """Points ``index`` of each link's np.linspace(lo, hi, _GRID_POINTS), in its arithmetic."""
    x = index * ((hi - lo) / (_GRID_POINTS - 1))[:, None] + lo[:, None]
    return np.where(index == _GRID_POINTS - 1, hi[:, None], x)


def _maximize_on_interval(gs, gw, beta, alpha: float, lo, hi, tol: float):
    """Grid scan plus golden-section refinement of every link at once.

    Returns delta_s, one per link.  Every local peak of a link's grid of
    _GRID_POINTS splits within _BRACKET_SLACK of its best is refined; the
    endpoints enter as exact candidates (golden section returns interior
    points only, which loses real objective on boundary maxima).  Values
    within 1e-12 of the best tie and go to the smallest delta_s, which favors
    the weak user.  The scan takes every _COARSE_STEP-th point, then the
    window _COARSE_STEP either side of the best of them.  The objective being
    unimodal, the points outside a window lie below its edges: a window whose
    edges are grid ends, or below its best by more than the slack and the
    rounding, holds the whole grid's near-best points, peaks and brackets.
    The other links of the block (flat objectives) scan their whole grids.
    """
    far = _GRID_POINTS - _WINDOW.size  # the last window's first point
    found = []

    def scan(rows, index):
        xs = _grid(lo[rows], hi[rows], index)
        return xs, summed_utility(gs[rows, None], gw[rows, None], beta[rows, None], xs, alpha)

    def brackets(rows, xs, ys):
        edge = ys.shape[1] - 1
        link, i = np.nonzero(ys >= (ys.max(axis=1) - _BRACKET_SLACK)[:, None])
        below, above = np.maximum(i - 1, 0), np.minimum(i + 1, edge)
        # An interior point below a neighbor is not a peak: the neighbor's
        # bracket covers it.
        at = ys[link, i]
        peak = (i == 0) | (i == edge) | ((at >= ys[link, below]) & (at >= ys[link, above]))
        link, below, above = link[peak], below[peak], above[peak]
        return rows[link], xs[link, below], xs[link, above]

    for start in range(0, lo.size, _SCAN_BLOCK):
        rows = np.arange(start, min(start + _SCAN_BLOCK, lo.size))
        xs, ys = scan(rows, _COARSE)
        first = np.clip(_COARSE[ys.argmax(axis=1)] - _COARSE_STEP, 0, far)
        xs, ys = scan(rows, first[:, None] + _WINDOW)
        best = ys.max(axis=1)
        floor = best - _BRACKET_SLACK - 1e-12 * np.maximum(1.0, np.abs(best))
        proved = ((first == 0) | (ys[:, 0] < floor)) & ((first == far) | (ys[:, -1] < floor))
        found.append(brackets(rows[proved], xs[proved], ys[proved]))
        if not proved.all():
            found.append(brackets(rows[~proved], *scan(rows[~proved], np.arange(_GRID_POINTS))))
    (link, lows, highs), ends_x = map(np.concatenate, zip(*found)), np.stack((lo, hi), axis=1)
    ends_y = summed_utility(gs[:, None], gw[:, None], beta[:, None], ends_x, alpha)
    on = (gs[link], gw[link], beta[link])
    x = _golden_max(lambda d: summed_utility(*on, d, alpha), lows, highs, tol)
    y = summed_utility(*on, x, alpha)
    top = ends_y.max(axis=1)
    np.maximum.at(top, link, y)
    tie = top - 1e-12
    delta = np.where(ends_y >= tie[:, None], ends_x, np.inf).min(axis=1)
    np.minimum.at(delta, link, np.where(y >= tie[link], x, np.inf))
    return delta


def split(g: Gate, strategy: Strategy, cfg: Optional[FairnessConfig]) -> np.ndarray:
    """Every gated link's delta_s under ``strategy``, NaN where it is served
    OMA, in the shape of ``g.delta_lb``.  ``cfg`` is read by the optimal and
    suboptimal rules only."""
    lb, ub, paired = g.delta_lb, g.delta_ub, g.admitted
    if strategy is Strategy.OPTIMAL:
        pick, on = np.full(lb.shape, np.nan), np.nonzero(paired)
        if on[0].size:
            gs, gw, beta, hi = (np.broadcast_to(x, lb.shape)[on] for x in (g.gamma_s, g.gamma_w, g.beta, ub))
            pick[on] = _maximize_on_interval(gs, gw, beta, cfg.alpha, lb[on], hi, _SOLVER_TOL)
    elif strategy is Strategy.SUBOPTIMAL:
        # Rejected links may have beta_star <= 0; their picks are dropped.
        with np.errstate(divide="ignore", invalid="ignore"):
            low = (g.beta / g.criterion.beta_star < cfg.tau) & (cfg.alpha > 1)
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
    delta = np.where(paired, pick, np.nan)
    _require_split(delta[paired])
    return delta


def served_rates(g: Gate, delta, oma_s, oma_w) -> tuple[np.ndarray, np.ndarray]:
    """The (strong, weak) rates of the gated links under the splits ``delta``:
    log2(1 + SINR) where ``delta`` is a number, ``oma_s``/``oma_w`` where it
    is NaN (the pair is served OMA)."""
    paired = ~np.isnan(delta)
    r_s = np.log2(1.0 + noma_sinr_strong(g.gamma_s, g.beta, delta))
    r_w = np.log2(1.0 + noma_sinr_weak(g.gamma_w, delta))
    return np.where(paired, r_s, oma_s), np.where(paired, r_w, oma_w)


def _decide_one(link: PairLink, strategy: Strategy, cfg) -> AllocationDecision:
    """:func:`split` on one link."""
    g = gate([link.gamma_s], [link.gamma_w], link.beta)
    delta = float(split(g, strategy, cfg)[0])
    return AllocationDecision(None if math.isnan(delta) else PowerAllocation(delta))


def solve_optimal(link: PairLink, cfg: FairnessConfig) -> AllocationDecision:
    """Maximize the pair's summed alpha-fair utility over the feasible splits.

    Returns an OMA fallback when the pairing criterion fails or the split
    interval is empty.  Otherwise the returned split lies in [delta_lb,
    delta_ub], which keeps both NOMA rates at or above their OMA counterparts
    by construction.  It is the best of the two endpoints and of every
    near-best peak of the (unimodal) objective's grid, found around its best
    coarse point, refined by golden section to a bracket no wider than
    ``_SOLVER_TOL``.  The search compares objective values, which are flat to
    second order at an interior optimum, so there the split is placed only to
    about the square root of the rounding error: interior optima have been
    measured up to 5.4e-8 from the exact maximizer.
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

