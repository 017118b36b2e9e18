"""Independent items made over the CPUs this process may use, in forked helpers:
forest trees, cross-validation folds, and blocks of CSV, score and ROC rows.

Item t is made by share ``t % P``, P being the count of usable CPUs
(``os.sched_getaffinity``), at most the item count. The caller makes share 0
and a forked helper each other share. A helper streams each item to the caller
as a length-prefixed pickle and blocks while its pipe is full, so about one
pipe buffer plus one item is in flight. Without ``fork`` or
``sched_getaffinity``, and inside a helper, the caller makes every item. There
is no option for it: no result may depend on who made it.
"""

from __future__ import annotations

import os
import pickle
import signal

_in_helper = False  # set in each forked helper, so that a map inside it stays serial


def fork_map(fn, n: int, take) -> None:
    """Call ``take(fn(t))`` for t = 0, ..., n - 1 in order, ``fn(t)`` made by share ``t % P``.

    A failed item, helper or ``take`` raises here, and helpers still running
    are killed. Every helper is reaped and every pipe closed before this ends.
    """
    global _in_helper
    usable = hasattr(os, "fork") and getattr(os, "sched_getaffinity", None)
    p = min(len(usable(0)), n) if usable and not _in_helper else 1
    pipes, pids = [None], {}  # read end by share, and the helpers not yet reaped
    try:
        for share in range(1, p):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as out:
                pid = os.fork()
                if pid == 0:  # the helper leaves by os._exit: no atexit hook, no stdio flush
                    _in_helper, status = True, 1
                    try:
                        for t in range(share, n, p):
                            try:
                                item = fn(t)
                            except Exception as exc:  # noqa: BLE001 - the caller raises it again
                                item = exc
                            payload = pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
                            out.write(len(payload).to_bytes(8, "little") + payload)
                            out.flush()
                        status = 0
                    finally:
                        os._exit(status)
                pids[share] = pid
        for t in range(n):
            if t % p == 0:
                take(fn(t))
                continue
            size = int.from_bytes(pipes[t % p].read(8), "little")
            payload = pipes[t % p].read(size)
            if not size or len(payload) < size:  # the helper died: its pipe ended early
                pid = pids.pop(t % p)
                raise RuntimeError(f"helper {pid} failed with wait status {os.waitpid(pid, 0)[1]}")
            item = pickle.loads(payload)
            if isinstance(item, Exception):
                raise item
            take(item)
        while pids:
            pid = pids.popitem()[1]
            if status := os.waitpid(pid, 0)[1]:
                raise RuntimeError(f"helper {pid} failed with wait status {status}")
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes[1:]:
            pipe.close()
