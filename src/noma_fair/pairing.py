"""Candidate matching shared by every strategy.

All strategies see the same candidates, so comparisons isolate gating and
power allocation: a cell's users are sorted by descending channel gain
(ties broken by user id for reproducibility) and the i-th from the front is
matched with the i-th from the back; an odd user out is served OMA.

A trial's users are one record table (:func:`user_table`): the kernel reads
its columns, and a row reads by attribute (``row.gamma``).  :func:`match` is
the one matching rule, over a table of users of many cells:
:mod:`noma_fair.netsim` calls it once per trial, :func:`candidate_pairs`
once per cell.  :func:`near_far_decision` lives in
:mod:`noma_fair.allocator` and is re-exported here under its old path.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .allocator import near_far_decision
from .rates import _require_positive_finite

__all__ = ["USER_FIELDS", "user_table", "match", "candidate_pairs", "near_far_decision"]

# One row per user: its link state on its serving cell's subchannel pool.
USER_FIELDS = np.dtype([("user_id", np.intp), ("serving_bs_id", np.intp),
                        ("gamma", float), ("channel_gain", float)])


def user_table(user_id, serving_bs_id, gamma, channel_gain) -> np.recarray:
    """A trial's users as one record table of :data:`USER_FIELDS`.  Raises
    ValueError naming the first user whose gamma (checked first) or channel
    gain is not positive and finite."""
    table = np.rec.fromarrays([user_id, serving_bs_id, gamma, channel_gain], dtype=USER_FIELDS)
    checked = np.column_stack((table.gamma, table.channel_gain))
    bad = np.flatnonzero(~((checked > 0) & (checked < math.inf)).all(axis=1))  # NaN fails both
    if len(bad):
        row = table[bad[0]]
        for name in ("gamma", "channel_gain"):
            _require_positive_finite(f"user {row.user_id}: {name}", float(row[name]))
    return table


def match(users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Front/back matching of a user table's users, grouped by serving cell.

    Returns ``(strong, weak)`` row indices of ``users``, one entry per
    slot: cells in ascending order, and within a cell its candidates in
    matching order, then its odd user out, whose ``weak`` is -1.
    Interference is per-user, so the gain order can occasionally disagree
    with the SINR order; the strong role goes to the member with the higher
    SINR (the front one on a tie), which keeps gamma_s >= gamma_w.
    """
    cell = users["serving_bs_id"]
    order = np.lexsort((users["user_id"], -users["channel_gain"], cell))
    sorted_cell = cell[order]
    starts = np.flatnonzero(np.r_[True, sorted_cell[1:] != sorted_cell[:-1]])
    sizes = np.diff(np.r_[starts, len(order)])
    first = np.repeat(starts, sizes)
    k = np.arange(len(order)) - first  # rank within the cell
    mate = np.repeat(sizes, sizes) - 1 - k  # the rank matched with k
    head = k <= mate  # one per slot: the front member, or the odd user out
    front, back = order[head], order[(first + mate)[head]]
    gamma = users["gamma"]
    single = front == back
    swap = gamma[front] < gamma[back]
    return np.where(swap, back, front), np.where(single, -1, np.where(swap, front, back))


def candidate_pairs(cell: Sequence) -> tuple[list[tuple], list]:
    """One cell's candidates as (strong, weak) rows of a user table, and its odd user out."""
    cell = list(cell)
    strong, weak = match(np.array(cell, dtype=USER_FIELDS))
    cands = [(cell[s], cell[w]) for s, w in zip(strong, weak) if w >= 0]
    singles = [cell[s] for s, w in zip(strong, weak) if w < 0]
    return cands, singles
