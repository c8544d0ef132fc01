"""Candidate matching shared by every strategy.

All strategies see the same candidates, so comparisons isolate gating and
power allocation: a cell's users are sorted by descending channel gain
(ties broken by user id for reproducibility) and the i-th from the front is
matched with the i-th from the back; an odd user out is served OMA.

:func:`match` is the one matching rule, over arrays of users of many cells:
:mod:`noma_fair.netsim` calls it once per trial, :func:`candidate_pairs`
once per cell.  :func:`near_far_decision` lives in
:mod:`noma_fair.allocator` and is re-exported here under its old path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocator import near_far_decision
from .rates import _require_positive_finite

__all__ = ["UserChannel", "match", "candidate_pairs", "near_far_decision"]


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


def match(cell, gain, user_id, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Front/back matching of users grouped by serving cell.

    Takes one array entry per user.  Returns ``(strong, weak)`` user
    indices, one entry per slot: cells in ascending order, and within a
    cell its candidates in matching order, then its odd user out, whose
    ``weak`` is -1.  Interference is per-user, so the gain order can
    occasionally disagree with the SINR order; the strong role goes to the
    member with the higher SINR (the front one on a tie), which keeps
    gamma_s >= gamma_w.
    """
    cell = np.asarray(cell)
    order = np.lexsort((user_id, -np.asarray(gain, dtype=float), cell))
    sorted_cell = cell[order]
    starts = np.flatnonzero(np.r_[True, sorted_cell[1:] != sorted_cell[:-1]])
    sizes = np.diff(np.r_[starts, len(order)])
    first = np.repeat(starts, sizes)
    k = np.arange(len(order)) - first  # rank within the cell
    mate = np.repeat(sizes, sizes) - 1 - k  # the rank matched with k
    head = k <= mate  # one per slot: the front member, or the odd user out
    front, back = order[head], order[(first + mate)[head]]
    gamma = np.asarray(gamma, dtype=float)
    single = front == back
    swap = gamma[front] < gamma[back]
    return np.where(swap, back, front), np.where(single, -1, np.where(swap, front, back))


def candidate_pairs(
    cell: Sequence[UserChannel],
) -> tuple[list[tuple[UserChannel, UserChannel]], list[UserChannel]]:
    """One cell's candidates as (strong, weak) users, and its odd user out."""
    cell = list(cell)
    strong, weak = match(
        np.zeros(len(cell), dtype=int),
        [u.channel_gain for u in cell],
        [u.user_id for u in cell],
        [u.gamma for u in cell],
    )
    cands = [(cell[s], cell[w]) for s, w in zip(strong, weak) if w >= 0]
    singles = [cell[s] for s, w in zip(strong, weak) if w < 0]
    return cands, singles
