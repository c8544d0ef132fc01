"""Feasibility machinery for the power split of a NOMA pair.

Three closed forms govern whether and how a pair can be served:

* ``delta_upper_bound``: largest split for which the weak user's NOMA rate
  still matches its OMA rate (independent of the SIC imperfection).
* ``delta_lower_bound``: smallest split for which the strong user's NOMA
  rate matches its OMA rate at a given imperfection ``beta``.
* ``msd_threshold`` / ``beta_star``: the minimum-SINR-difference pairing
  criterion and the largest imperfection for which the feasible interval
  ``(delta_lb, delta_ub)`` is nonempty.

A pair is admitted when the criterion holds and ``delta_lb < delta_ub``.
Since delta_lb rises strictly in beta and meets delta_ub at beta_star, the
second test is ``beta < beta_star`` away from rounding; testing the interval
itself keeps every admitted split inside the interval the solvers search.

Each bound is the exact root of the corresponding rate equality, so a pair
allocated exactly at a bound earns rate equality rather than a violation;
endpoint splits are therefore admissible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rates import PairLink, _require_beta, _require_positive_finite

__all__ = [
    "AllocationBounds",
    "PairingCriterion",
    "delta_upper_bound",
    "delta_lower_bound",
    "msd_threshold",
    "beta_star",
    "pairing_criterion",
    "allocation_bounds",
]

@dataclass(frozen=True)
class AllocationBounds:
    """Split interval for the strong user's power; empty unless delta_lb < delta_ub."""

    delta_lb: float
    delta_ub: float


@dataclass(frozen=True)
class PairingCriterion:
    """Pairing admissibility summary for a (gamma_s, gamma_w) pair.

    ``satisfied`` is the SINR-difference test alone; admission also needs a
    nonempty split interval (see the module docstring).  ``beta_star`` may be
    negative when no imperfection level admits the pair; it is reported as-is.
    Built from arrays of links, each field is an array with one entry per link.
    """

    msd_threshold: float
    beta_star: float
    satisfied: bool


def delta_upper_bound(gamma_w):
    """Split above which the weak user's NOMA rate drops below its OMA rate.

    Equals (sqrt(1+g) - 1)/g, evaluated as 1/(1 + sqrt(1+g)) which is the
    same quantity without cancellation for small g.  Always in (0, 1/2].
    """
    _require_positive_finite("gamma_w", gamma_w)
    out = 1.0 / (1.0 + np.sqrt(1.0 + np.asarray(gamma_w, dtype=float)))
    return float(out) if out.ndim == 0 else out


def delta_lower_bound(gamma_s, beta):
    """Split below which the strong user's NOMA rate drops below its OMA rate.

    Equals (1 + beta*g)(sqrt(1+g) - 1) / (g*(1 + beta*(sqrt(1+g) - 1))),
    evaluated with (sqrt(1+g)-1)/g rewritten as 1/(1+sqrt(1+g)) for
    stability.  Strictly increasing in beta.
    """
    _require_positive_finite("gamma_s", gamma_s)
    _require_beta(beta)
    b = np.asarray(beta, dtype=float)
    g = np.asarray(gamma_s, dtype=float)
    a = np.sqrt(1.0 + g)
    out = (1.0 + b * g) / ((1.0 + a) * (1.0 + b * (a - 1.0)))
    return float(out) if out.ndim == 0 else out


def msd_threshold(gamma_s, gamma_w):
    """Minimum SINR difference for two users to be NOMA-pairable.

    The pair qualifies when ``gamma_s - gamma_w`` exceeds the returned
    threshold.  Computed as

        gamma_s - (sqrt(1+gw) - 1)(sqrt(1+gs)sqrt(1+gw) + 1)/sqrt(1+gw)

    with (sqrt(1+gw) - 1) expanded to gw/(sqrt(1+gw)+1) for stability at
    small gamma_w.
    """
    _require_positive_finite("gamma_s", gamma_s)
    _require_positive_finite("gamma_w", gamma_w)
    gs = np.asarray(gamma_s, dtype=float)
    gw = np.asarray(gamma_w, dtype=float)
    a = np.sqrt(1.0 + gs)
    b = np.sqrt(1.0 + gw)
    out = gs - gw * (a * b + 1.0) / (b * (b + 1.0))
    return float(out) if out.ndim == 0 else out


def beta_star(gamma_s, gamma_w):
    """Largest SIC imperfection at which the split interval is still nonempty.

    The raw closed form

        (gw - gs + gs*sqrt(1+gw) - gw*sqrt(1+gs))
        / (gs*(sqrt(1+gs) - 1)(gw - sqrt(1+gw) + 1))

    factors exactly to (gs - gw) / (gs * sqrt(1+gw) * (sqrt(1+gs) + sqrt(1+gw))),
    which is implemented here because it avoids catastrophic cancellation for
    near-equal SINRs.  Negative for gamma_s < gamma_w (pair infeasible for
    any imperfection); zero for equal SINRs.
    """
    _require_positive_finite("gamma_s", gamma_s)
    _require_positive_finite("gamma_w", gamma_w)
    gs = np.asarray(gamma_s, dtype=float)
    gw = np.asarray(gamma_w, dtype=float)
    a = np.sqrt(1.0 + gs)
    b = np.sqrt(1.0 + gw)
    out = (gs - gw) / (gs * b * (a + b))
    return float(out) if out.ndim == 0 else out


def pairing_criterion(gamma_s, gamma_w) -> PairingCriterion:
    """Evaluate the SINR-difference pairing test and the imperfection bound.

    Scalar/ndarray transparent: arrays of links give a criterion of arrays.
    """
    threshold = msd_threshold(gamma_s, gamma_w)
    satisfied = np.subtract(gamma_s, gamma_w) > threshold
    return PairingCriterion(
        msd_threshold=threshold,
        beta_star=beta_star(gamma_s, gamma_w),
        satisfied=bool(satisfied) if np.ndim(satisfied) == 0 else satisfied,
    )


def allocation_bounds(link: PairLink) -> AllocationBounds:
    """Both bounds at the link's imperfection level."""
    return AllocationBounds(
        delta_lb=delta_lower_bound(link.gamma_s, link.beta),
        delta_ub=delta_upper_bound(link.gamma_w),
    )
