"""Fixtures and checks for the work that ``shares.fork_map`` spreads over
forked helpers, the environment for a run in a fresh process, and two
functions kept from the library to check it: the pair-count AUC and the
scaler's inverse."""

import os

import numpy as np
import pytest

import rarepred
from rarepred.dataset import Dataset, DatasetError
from rarepred.preprocess import ScalerParams


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


def auc_pair_count(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Direct rank-based pair statistic, the independent check for auc()."""
    yt = np.asarray(y_true).astype(np.int64)
    s = np.asarray(scores, dtype=np.float64)
    pos = int(yt.sum())
    neg = yt.size - pos
    if pos == 0 or neg == 0:
        raise DatasetError("pair statistic needs both classes present")
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size, dtype=np.float64)
    sorted_scores = s[order]
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average rank, 1-based
        i = j + 1
    rank_sum_pos = float(ranks[yt == 1].sum())
    return (rank_sum_pos - pos * (pos + 1) / 2.0) / (pos * neg)


def invert_scaler(ds: Dataset, params: ScalerParams) -> Dataset:
    """Undo ``apply_scaler`` from the fitted statistics alone; a constant
    column restores its center."""
    center = params.min if params.method == "minmax" else params.mean
    spread = params.sd if params.method == "standardize" else params.max - params.min
    values = ds.values.copy()
    for i, name in enumerate(params.feature_names):
        j = ds.feature_index(name)
        values[:, j] = center[i] if params.constant[i] else values[:, j] * spread[i] + center[i]
    return Dataset(features=ds.features, values=values, labels=ds.labels)
