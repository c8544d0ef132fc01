import os

import pytest


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
