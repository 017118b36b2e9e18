"""Fixtures and checks for the work that ``shares.fork_map`` spreads over
forked helpers, and the environment for a run in a fresh process."""

import os

import pytest

import rarepred


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


def with_blas_threads(threads: int) -> dict:
    """This process's environment with rarepred importable and the BLAS
    thread pool pinned to ``threads``; it takes effect in a new process."""
    src = os.path.dirname(os.path.dirname(rarepred.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    pinned = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {**os.environ, "PYTHONPATH": path, **{name: str(threads) for name in pinned}}
