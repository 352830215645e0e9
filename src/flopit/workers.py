"""How many workers run, and how work reaches a forked process.

The command line reads its input grids on forked processes, but
evaluates and writes its outputs on threads. numpy's C text reader,
which parses every block whose tokens are not all one width, holds the
GIL, so threads would parse one grid at a time; evaluation and
formatting release it, so threads suffice there, and they share the
outputs without copying them back.

:func:`pool_size` sets the count of either kind. :func:`fork_map` runs a
list of at most 256 picklable tasks, one index byte each, on children
forked once. This module imports no numpy, so any flopit module can use
it.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import select
import signal
import warnings

from .errors import FlopitError


def pool_size(workers: int, n_tasks: int) -> int:
    """Workers for ``n_tasks`` tasks at a requested ``workers`` (0 = one
    per CPU): at most one per task and one per CPU this process may run on."""
    if workers < 0:
        raise FlopitError(f"workers must be >= 0, got {workers}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers or cpus, n_tasks, cpus)


def _serve(fn, tasks: list[tuple], take: int, out, mask) -> None:
    """A forked child's life: with SIGINT and SIGTERM at their default
    action, run ``fn(*tasks[i])`` for each index byte ``i`` read from
    ``take``, pickle ``(i, result or exception)`` to ``out``, and leave
    through ``os._exit``, so that none of the parent's cleanup runs."""
    code = 1  # a fault of the child's own
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        while index := os.read(take, 1):
            try:
                result = fn(*tasks[index[0]])
            except Exception as exc:
                result = exc
            pickle.dump((index[0], result), out)
            out.flush()
        code = 0
    finally:
        os._exit(code)


def fork_map(fn, tasks: list[tuple], procs: int) -> list:
    """``fn(*task)`` for each of ``tasks`` (at most 256) on ``procs``
    children forked once, in task order, with what ``fn`` raised in
    place of its result.

    The children take task indices from one pipe filled before the first
    fork, and each answers through a pipe of its own (``_serve``). Each
    pipe is read to its end before its child is reaped; no child waits on
    another, so that order cannot deadlock. A task left unanswered gets a
    FlopitError saying how a child died. However this returns or raises,
    no child is left alive or unreaped.
    """
    results, died, children = {}, None, {}
    with contextlib.ExitStack() as opened, warnings.catch_warnings():
        take, put = os.pipe()
        opened.callback(os.close, take)
        with open(put, "wb") as queue:
            queue.write(bytes(range(len(tasks))))
        # Python 3.12+ warns at a fork in a process that runs another thread:
        # here OpenBLAS's idle pool, started by numpy's import. A child never
        # calls into BLAS, so it needs neither that pool nor its locks.
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
        try:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
            try:
                for _ in range(procs):
                    r, w = os.pipe()
                    opened.callback(os.close, r)
                    with open(w, "wb") as out:  # this process's copy closes after the fork
                        pid = os.fork()
                        if pid == 0:
                            _serve(fn, tasks, take, out, mask)
                    children[pid] = r
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for pid, r in list(children.items()):
                answers, chunk = io.BytesIO(), b"."
                while chunk:
                    # a signal that lands just before a read is handled only once
                    # the read returns, so wait in select, which returns each second
                    if select.select([r], [], [], 1)[0]:
                        chunk = os.read(r, 1 << 16)
                        answers.write(chunk)
                answers.seek(0)
                with contextlib.suppress(EOFError, pickle.UnpicklingError):  # or cut off
                    while True:
                        index, result = pickle.load(answers)
                        results[index] = result
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[pid]
                if code and died is None:
                    died = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
        finally:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [results[i] if i in results else FlopitError(f"a worker process died: {died}")
            for i in range(len(tasks))]
