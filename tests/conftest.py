"""Fixtures and checks for the work that ``shares.fork_map`` spreads over forked helpers."""

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """Pids of the helpers forked during the test."""
    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def report_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
