"""Closed-form OMA and NOMA rate expressions for a 2-user downlink pair.

All SINRs are linear ratios (never dB) and all rates are in bits/s/Hz with
base-2 logarithms.  dB conversion belongs at I/O boundaries only (CLI,
config files, CSV); see :func:`db_to_linear` / :func:`linear_to_db`.

The pair shares one subchannel via superposition coding.  The strong user
(higher channel gain, SINR ``gamma_s``) receives a fraction ``delta_s`` of
the transmit power and cancels the weak user's signal with a residual
imperfection ``beta`` in [0, 1]; the weak user treats the strong user's
signal as noise.  The OMA baseline gives each user half the subchannel,
hence the 1/2 multiplexing factor in :func:`oma_rate`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Strategy",
    "AllocationSource",
    "PairLink",
    "PowerAllocation",
    "db_to_linear",
    "linear_to_db",
    "oma_rate",
    "noma_sinr_strong",
    "noma_sinr_weak",
    "noma_sinrs",
    "noma_rates",
]


def db_to_linear(value_db: float) -> float:
    """10^(value_db / 10); a float that overflows gives inf rather than raising."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return math.inf


def linear_to_db(value: float) -> float:
    if value <= 0:
        raise ValueError(f"cannot convert non-positive value {value!r} to dB")
    return 10.0 * math.log10(value)


class Strategy(str, enum.Enum):
    """How a candidate pair is served, and the provenance of its power split."""

    OPTIMAL = "optimal"
    SUBOPTIMAL = "suboptimal"
    UPPER_BOUND = "upper_bound"
    LOWER_BOUND = "lower_bound"
    NEAR_FAR = "near_far"
    OMA = "oma"


AllocationSource = Strategy  # the name perfbench/trace.py imports


def _require_positive_finite(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless the scalar or every array entry
    is positive and finite.  Plain floats skip numpy's per-call cost."""
    if isinstance(value, float):
        ok = math.isfinite(value) and value > 0
    else:
        arr = np.asarray(value, dtype=float)
        # NaN fails both comparisons; an empty array passes.
        ok = bool(arr.min(initial=math.inf) > 0 and arr.max(initial=0.0) < math.inf)
    if not ok:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_split(delta_s) -> None:
    """Raise ValueError unless the scalar or every array entry delta_s, and
    its complement delta_w = 1 - delta_s, lie in (0, 1)."""
    d = np.asarray(delta_s, dtype=float)
    for name, share in (("delta_s", d), ("delta_w", 1.0 - d)):
        ok = (share > 0.0) & (share < 1.0)
        if not np.all(ok):
            got = share if share.ndim == 0 else share[~ok]
            raise ValueError(f"{name} must lie in (0, 1), got {got.tolist()!r}")


@dataclass(frozen=True)
class PairLink:
    """Link state of a strong/weak pair on a shared subchannel.

    ``gamma_s >= gamma_w`` is required; equality is accepted as a degenerate
    pair (the pairing criterion rejects it downstream).
    """

    gamma_s: float
    gamma_w: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        _require_positive_finite("gamma_s", self.gamma_s)
        _require_positive_finite("gamma_w", self.gamma_w)
        if self.gamma_s < self.gamma_w:
            raise ValueError(
                f"strong/weak ordering violated: gamma_s={self.gamma_s} < gamma_w={self.gamma_w}"
            )
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")


@dataclass(frozen=True)
class PowerAllocation:
    """Downlink power split: ``delta_s`` to the strong user, the rest to the weak."""

    delta_s: float
    source: Strategy

    def __post_init__(self) -> None:
        _require_split(self.delta_s)

    @property
    def delta_w(self) -> float:
        return 1.0 - self.delta_s


def oma_rate(gamma):
    """Normalized OMA downlink rate (1/2) * log2(1 + gamma) in bits/s/Hz.

    Accepts a scalar or ndarray of linear SINRs.  The 1/2 accounts for the
    multiplexing loss of serving each user on half the subchannel.
    """
    _require_positive_finite("gamma", gamma)
    out = 0.5 * np.log2(1.0 + np.asarray(gamma, dtype=float))
    return float(out) if out.ndim == 0 else out


def noma_sinr_strong(gamma_s, beta, delta_s):
    """Strong-user NOMA SINR  delta_s*gamma_s / (1 + beta*(1-delta_s)*gamma_s).

    Residual interference from the imperfectly cancelled weak-user signal
    scales with ``beta``; ``beta = 0`` is perfect cancellation.
    Scalar/ndarray transparent; inputs are not validated here.
    """
    return delta_s * gamma_s / (1.0 + beta * (1.0 - delta_s) * gamma_s)


def noma_sinr_weak(gamma_w, delta_s):
    """Weak-user NOMA SINR  (1-delta_s)*gamma_w / (1 + delta_s*gamma_w).

    The strong user's share of the transmit power is seen as noise.
    Scalar/ndarray transparent; inputs are not validated here.
    """
    return (1.0 - delta_s) * gamma_w / (1.0 + delta_s * gamma_w)


def noma_sinrs(link: PairLink, alloc: PowerAllocation) -> tuple[float, float]:
    """Effective NOMA SINRs (strong, weak) for a validated link and split."""
    return (
        float(noma_sinr_strong(link.gamma_s, link.beta, alloc.delta_s)),
        float(noma_sinr_weak(link.gamma_w, alloc.delta_s)),
    )


def noma_rates(link: PairLink, alloc: PowerAllocation) -> tuple[float, float]:
    """NOMA rates (R_s, R_w) = log2(1 + sinr) in bits/s/Hz.

    No 1/2 factor: both users reuse the full subchannel.
    """
    sinr_s, sinr_w = noma_sinrs(link, alloc)
    return float(np.log2(1.0 + sinr_s)), float(np.log2(1.0 + sinr_w))
