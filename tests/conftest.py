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
    while the test runs, one entry per block of links whose window is not
    proved."""
    rows, grid = [], allocator._grid

    def counted(lo, hi, index):
        if index.shape[-1] == allocator._GRID_POINTS:
            rows.append(lo.size)
        return grid(lo, hi, index)

    monkeypatch.setattr(allocator, "_grid", counted)
    return rows


@pytest.fixture
def slope_links(monkeypatch):
    """The link count of each slope-sign evaluation the optimal solver makes
    while the test runs, one entry per bisection step."""
    rows, slope_up = [], allocator._slope_up

    def counted(gs, gw, beta, d, alpha):
        rows.append(d.shape[0])
        return slope_up(gs, gw, beta, d, alpha)

    monkeypatch.setattr(allocator, "_slope_up", counted)
    return rows
