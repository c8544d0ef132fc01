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
    """How a candidate pair is served: the rule that picks its power split."""

    OPTIMAL = "optimal"
    SUBOPTIMAL = "suboptimal"
    UPPER_BOUND = "upper_bound"
    LOWER_BOUND = "lower_bound"
    NEAR_FAR = "near_far"
    OMA = "oma"


AllocationSource = Strategy  # the name perfbench/trace.py imports


def _require_positive_finite(name: str, value) -> np.ndarray:
    """Return ``value`` as a float array (0-d for a scalar) if it or every
    entry is positive and finite, else raise ValueError naming ``name`` and,
    for an array, its first failing entry, that entry's flat index and how
    many fail.  Plain floats skip only numpy's reductions."""
    arr = np.asarray(value, dtype=float)
    if isinstance(value, float):
        ok = math.isfinite(value) and value > 0
    else:
        # NaN fails both comparisons; an empty array passes.
        ok = bool(arr.min(initial=math.inf) > 0 and arr.max(initial=0.0) < math.inf)
    if ok:
        return arr
    got = repr(value)
    if np.ndim(value):
        bad = ~((arr > 0) & (arr < math.inf)).ravel()
        first = int(bad.argmax())
        got = f"{arr.flat[first].item()!r} at flat index {first} ({np.count_nonzero(bad)} of {bad.size} entries fail)"
    raise ValueError(f"{name} must be positive and finite, got {got}")


def _require_beta(value, name: str = "beta") -> np.ndarray:
    """Return ``value`` as a float array (0-d for a scalar) if it or every entry,
    a SIC imperfection, lies in [0, 1], else raise ValueError naming ``name``."""
    b = np.asarray(value, dtype=float)
    if not np.all((b >= 0) & (b <= 1)):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return b


def _require_ordered(gamma_s, gamma_w, unit: str = "") -> None:
    """Raise ValueError if the strong SINR ``gamma_s`` lies below the weak one, ``gamma_w``, each shown with ``unit``."""
    if gamma_s < gamma_w:
        raise ValueError(f"strong/weak ordering violated: gamma_s {gamma_s!r}{unit} < gamma_w {gamma_w!r}{unit}")


def _scalar(out):
    """A closed form's result ``out``: a Python float (a bool for a test) from
    scalar inputs, the array itself from array inputs."""
    return out if out.ndim else (bool if out.dtype == bool else float)(out)


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
        _require_ordered(self.gamma_s, self.gamma_w)
        _require_beta(self.beta)


@dataclass(frozen=True)
class PowerAllocation:
    """Downlink power split: ``delta_s`` to the strong user, the rest to the weak."""

    delta_s: float

    def __post_init__(self) -> None:
        _require_split(self.delta_s)


def oma_rate(gamma):
    """Normalized OMA downlink rate (1/2) * log2(1 + gamma) in bits/s/Hz.

    Accepts a scalar or ndarray of linear SINRs.  The 1/2 accounts for the
    multiplexing loss of serving each user on half the subchannel.
    """
    g = _require_positive_finite("gamma", gamma)
    return _scalar(0.5 * np.log2(1.0 + g))


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


def _noma_rate_pair(gamma_s, gamma_w, beta, delta_s):
    """NOMA rates (R_s, R_w) = log2(1 + sinr) in bits/s/Hz; no 1/2 factor:
    both users reuse the full subchannel.  Scalar/ndarray transparent;
    inputs are not validated here."""
    return np.log2(1.0 + noma_sinr_strong(gamma_s, beta, delta_s)), np.log2(1.0 + noma_sinr_weak(gamma_w, delta_s))


def noma_rates(link: PairLink, alloc: PowerAllocation) -> tuple[float, float]:
    """:func:`_noma_rate_pair` of a validated link and split, as floats."""
    r_s, r_w = _noma_rate_pair(link.gamma_s, link.gamma_w, link.beta, alloc.delta_s)
    return float(r_s), float(r_w)
