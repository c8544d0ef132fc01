"""Alpha-fair utility and the alpha-fair throughput metric.

The utility family  U(x) = x^(1-alpha)/(1-alpha)  (log x at alpha = 1)
trades aggregate throughput against equality between users: alpha = 0 is
throughput maximization, alpha = 1 proportional fairness, alpha -> inf
max-min fairness.

The pair-level performance metric T_alpha is the generalized (power) mean
of the two rates with exponent (1 - alpha); at alpha = 1 it is their
geometric mean.  It always lies between min and max of the rates and is
non-increasing in alpha for unequal rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rates import _require_positive_finite

__all__ = ["FairnessConfig", "utility", "alpha_throughput"]


def _require_alpha(alpha) -> None:
    """Raise ValueError unless the fairness exponent is finite and >= 0."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")


@dataclass(frozen=True)
class FairnessConfig:
    """Scheduler parameters shared by the allocators.

    alpha: fairness exponent, >= 0 (alpha = 1 uses the log branch).
    tau:   imperfection-ratio threshold of the sub-optimal rule, in (0, 1).
    """

    alpha: float
    tau: float = 0.5

    def __post_init__(self) -> None:
        _require_alpha(self.alpha)
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau!r}")


def utility(x, alpha: float):
    """Alpha-fair utility of a positive rate.

    Returns x^(1-alpha)/(1-alpha) for alpha != 1, which at alpha = 0 is x
    itself, exactly (the throughput-maximizing limit, accepted as an
    extension to simplify sweeps), and ln(x) at alpha = 1.  Scalar/ndarray
    transparent.  Raises ValueError for a negative, NaN or infinite alpha,
    and for non-positive rates, where the utility is unbounded below.
    """
    _require_alpha(alpha)
    _require_positive_finite("x", x)
    arr = np.asarray(x, dtype=float)
    if alpha == 1:
        out = np.log(arr)
    else:
        out = arr ** (1.0 - alpha) / (1.0 - alpha)
    return float(out) if out.ndim == 0 else out


def alpha_throughput(r_s, r_w, alpha: float):
    """Alpha-fair throughput of a rate pair: the (1-alpha)-power mean.

    ((r_s^(1-alpha) + r_w^(1-alpha)) / 2)^(1/(1-alpha)) for alpha != 1 and
    sqrt(r_s * r_w) at alpha = 1.  The 1/2 applies to the whole sum so that
    the metric is symmetric in the users and continuous through alpha = 1.
    Evaluated in log space so large exponents neither overflow nor lose the
    ordering.  Scalar/ndarray transparent.  Raises ValueError for a
    negative, NaN or infinite alpha, and for rates that are not positive
    and finite.
    """
    _require_alpha(alpha)
    _require_positive_finite("r_s", r_s)
    _require_positive_finite("r_w", r_w)
    rs = np.asarray(r_s, dtype=float)
    rw = np.asarray(r_w, dtype=float)
    if alpha == 1:
        out = np.sqrt(rs * rw)
    elif abs(1.0 - alpha) < 1e-2:
        # The form below divides its rounding error by 1 - alpha; near 1 use
        # exp(mean log + log(cosh(p*d)) / p), with d half the log ratio.
        p, d = 1.0 - alpha, 0.5 * (np.log(rs) - np.log(rw))
        out = np.exp(0.5 * (np.log(rs) + np.log(rw)) + np.log1p(2.0 * np.sinh(0.5 * p * d) ** 2) / p)
    else:
        p = 1.0 - alpha
        out = np.exp((np.logaddexp(p * np.log(rs), p * np.log(rw)) - math.log(2.0)) / p)
    return float(out) if out.ndim == 0 else out
