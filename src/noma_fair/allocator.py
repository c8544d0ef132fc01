"""Power-split decisions for a candidate NOMA pair, and the one table of them.

Three decisions share one admission gate: the pairing criterion must hold
and the split interval [delta_lb, delta_ub] must be nonempty
(``delta_lb < delta_ub``, which is ``beta < beta_star`` away from rounding),
or the pair is served OMA.  An admitted split always lies in that interval.

* :func:`solve_optimal` maximizes the summed alpha-fair utility of the two
  NOMA rates over the feasible interval [delta_lb, delta_ub].
* :func:`solve_suboptimal` is the low-complexity endpoint rule: below the
  imperfection-ratio threshold ``tau`` it picks delta_lb for alpha > 1 and
  delta_ub for alpha <= 1; at or above tau it picks delta_ub regardless of
  alpha.
* :func:`allocate_fixed_bound` pins the split to one bound (the baseline
  strategies evaluated against the solvers).

The fourth, :func:`near_far_decision`, is ungated.  :data:`DECISIONS` maps
every :class:`~noma_fair.rates.Strategy` to its decision.

The 1-D objective is continuous on a compact interval but need not be
concave, so the optimal solver runs a coarse grid scan followed by
golden-section refinement of every near-best bracket; this is robust to
multimodality without derivative machinery.
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
    allocation_bounds,
    pairing_criterion,
)
from .fairness import FairnessConfig, utility
from .rates import (
    PairLink,
    PowerAllocation,
    Strategy,
    noma_sinr_strong,
    noma_sinr_weak,
)

__all__ = [
    "DecisionMode",
    "DecisionDiagnostics",
    "AllocationDecision",
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


def _diagnostics(link: PairLink) -> DecisionDiagnostics:
    return DecisionDiagnostics(
        bounds=allocation_bounds(link),
        criterion=pairing_criterion(link.gamma_s, link.gamma_w),
    )


def _gated(link: PairLink, strategy: Strategy, pick: Callable) -> AllocationDecision:
    """The shared admission gate; ``pick(diag)`` gives an admitted pair's (delta_s, objective)."""
    diag = _diagnostics(link)
    if not (diag.criterion.satisfied and diag.bounds.delta_lb < diag.bounds.delta_ub):
        return AllocationDecision(None, None, diag)
    delta, objective = pick(diag)
    return AllocationDecision(PowerAllocation(delta, strategy), objective, diag)


def _objective_fn(link: PairLink, alpha: float) -> Callable:
    """Summed alpha-fair utility of the two NOMA rates, as a function of delta_s.

    Vectorized over delta_s.  Positive rates are guaranteed on
    [delta_lb, delta_ub] because the endpoints already achieve the (positive)
    OMA rates.
    """

    def obj(delta_s):
        r_s = np.log2(1.0 + noma_sinr_strong(link.gamma_s, link.beta, delta_s))
        r_w = np.log2(1.0 + noma_sinr_weak(link.gamma_w, delta_s))
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


def solve_optimal(link: PairLink, cfg: FairnessConfig) -> AllocationDecision:
    """Maximize the pair's summed alpha-fair utility over the feasible splits.

    Returns an OMA fallback when the pairing criterion fails or the split
    interval is empty.  Otherwise the returned split lies in
    [delta_lb, delta_ub], located to within ``cfg.solver_tol``, which keeps
    both NOMA rates at or above their OMA counterparts by construction.
    """

    def pick(diag: DecisionDiagnostics) -> tuple[float, float]:
        fn = _objective_fn(link, cfg.alpha)
        return _maximize_on_interval(
            fn, diag.bounds.delta_lb, diag.bounds.delta_ub, cfg.solver_tol
        )

    return _gated(link, Strategy.OPTIMAL, pick)


def solve_suboptimal(link: PairLink, cfg: FairnessConfig) -> AllocationDecision:
    """Endpoint rule approximating :func:`solve_optimal` at negligible cost.

    With the imperfection ratio beta/beta_star below ``cfg.tau`` the split is
    delta_lb for alpha > 1 (weak-user-favoring) and delta_ub for alpha <= 1;
    otherwise delta_ub for any alpha, since a large residual imperfection
    forces the most protective split for the strong user.
    """

    def pick(diag: DecisionDiagnostics) -> tuple[float, float]:
        if link.beta / diag.criterion.beta_star < cfg.tau and cfg.alpha > 1:
            delta = diag.bounds.delta_lb
        else:
            delta = diag.bounds.delta_ub
        return delta, float(_objective_fn(link, cfg.alpha)(delta))

    return _gated(link, Strategy.SUBOPTIMAL, pick)


def allocate_fixed_bound(link: PairLink, which: Strategy) -> AllocationDecision:
    """Pin the split to delta_ub or delta_lb, with the same admission gate.

    ``which`` must be Strategy.UPPER_BOUND or LOWER_BOUND.
    """
    if which is Strategy.UPPER_BOUND:
        return _gated(link, which, lambda diag: (diag.bounds.delta_ub, None))
    if which is Strategy.LOWER_BOUND:
        return _gated(link, which, lambda diag: (diag.bounds.delta_lb, None))
    raise ValueError(f"which must select a bound, got {which!r}")


def near_far_decision(link: PairLink) -> AllocationDecision:
    """Ungated delta_ub allocation used by the near-far baseline.

    No rate guarantee for the strong user: with rising imperfection its NOMA
    rate can fall below its OMA rate, which is exactly the failure mode the
    gated strategies avoid.
    """
    diag = _diagnostics(link)
    return AllocationDecision(PowerAllocation(diag.bounds.delta_ub, Strategy.NEAR_FAR), None, diag)


# Every strategy's decision for one candidate; None means serve both as OMA.
DECISIONS: dict[Strategy, Callable[[PairLink, FairnessConfig], Optional[AllocationDecision]]] = {
    Strategy.OPTIMAL: solve_optimal,
    Strategy.SUBOPTIMAL: solve_suboptimal,
    Strategy.UPPER_BOUND: lambda link, _: allocate_fixed_bound(link, Strategy.UPPER_BOUND),
    Strategy.LOWER_BOUND: lambda link, _: allocate_fixed_bound(link, Strategy.LOWER_BOUND),
    Strategy.NEAR_FAR: lambda link, _: near_far_decision(link),
    Strategy.OMA: lambda link, _: None,
}
