import os

import pytest

from noma_fair import allocator


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that ``os.fork`` makes while the test runs."""
    made, fork = [], os.fork

    def counted():
        if pid := fork():
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


@pytest.fixture
def whole_grids(monkeypatch):
    """The link count of each whole-grid evaluation the optimal solver makes
    while the test runs, one entry per block of links."""
    rows, grid = [], allocator._grid

    def counted(lo, hi, index):
        if index.shape[-1] == allocator._GRID_POINTS:
            rows.append(lo.size)
        return grid(lo, hi, index)

    monkeypatch.setattr(allocator, "_grid", counted)
    return rows
