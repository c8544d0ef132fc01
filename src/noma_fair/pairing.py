"""Candidate matching shared by every strategy.

All strategies see the same candidates, so comparisons isolate gating and
power allocation: a cell's users are sorted by descending channel gain
(ties broken by user id for reproducibility) and the i-th from the front is
matched with the i-th from the back; an odd user out is served OMA.

:mod:`noma_fair.netsim` then decides each candidate through
:data:`noma_fair.allocator.DECISIONS`.  :func:`near_far_decision` lives in
:mod:`noma_fair.allocator` and is re-exported here under its old path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .allocator import near_far_decision
from .rates import _require_positive_finite

__all__ = ["UserChannel", "candidate_pairs", "near_far_decision"]


@dataclass(frozen=True)
class UserChannel:
    """One user's link state on its serving cell's subchannel pool."""

    user_id: int
    serving_bs_id: int
    gamma: float
    channel_gain: float

    def __post_init__(self) -> None:
        _require_positive_finite(f"user {self.user_id}: gamma", self.gamma)
        _require_positive_finite(f"user {self.user_id}: channel_gain", self.channel_gain)


def candidate_pairs(
    cell: Sequence[UserChannel],
) -> tuple[list[tuple[UserChannel, UserChannel]], list[UserChannel]]:
    """Sorted front/back candidate matching shared by all strategies.

    Within a candidate the strong role goes to the member with the higher
    SINR; interference is per-user, so the gain order can occasionally
    disagree with the SINR order and the roles are swapped to keep
    gamma_s >= gamma_w.
    """
    users = sorted(cell, key=lambda u: (-u.channel_gain, u.user_id))
    n = len(users)
    cands = []
    for i in range(n // 2):
        first, second = users[i], users[n - 1 - i]
        if first.gamma >= second.gamma:
            cands.append((first, second))
        else:
            cands.append((second, first))
    singles = [users[n // 2]] if n % 2 else []
    return cands, singles
