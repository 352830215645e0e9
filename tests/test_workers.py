"""flopit's fork driver, called directly: order, raised exceptions and
dead children, with no child left behind."""

import os
import signal

import pytest

import flopit.probability
from flopit.workers import fork_map, pool_size


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):  # none alive, none unreaped
        os.waitpid(-1, os.WNOHANG)


def shown(results: list) -> list:
    return [f"{type(r).__name__}: {r}" if isinstance(r, Exception) else r for r in results]


@pytest.mark.parametrize("procs", [1, 2, 3])
def test_results_come_back_in_task_order(procs):
    results = fork_map(lambda i, j: (i * j, os.getpid()), [(i, i + 1) for i in range(10)], procs)
    assert [product for product, _ in results] == [i * (i + 1) for i in range(10)]
    pids = {pid for _, pid in results}
    assert os.getpid() not in pids and len(pids) <= procs


def test_a_raised_exception_takes_its_tasks_place():
    def half(i):
        if i % 2:
            raise ValueError(f"{i} is odd")
        return i // 2

    assert shown(fork_map(half, [(i,) for i in range(5)], 2)) == [
        0, "ValueError: 1 is odd", 1, "ValueError: 3 is odd", 2]


def _exit_at(i, at):
    if i == at:
        os._exit(3)
    return i


def _killed_at(i, at):
    if i == at:
        os.kill(os.getpid(), signal.SIGKILL)
    return i


@pytest.mark.parametrize("fn, died", [
    (_exit_at, "exited with status 3"),
    (_killed_at, "killed by signal 9"),
], ids=["exit", "kill"])
def test_each_unanswered_task_says_how_its_child_died(fn, died):
    lost = f"FlopitError: a worker process died: {died}"
    # one child answers tasks 0 and 1 and dies at task 2, leaving the rest
    assert shown(fork_map(fn, [(i, 2) for i in range(5)], 1)) == [0, 1, lost, lost, lost]
    # the child that takes task 0, the first index in the pipe, dies at it;
    # the other answers the rest
    assert shown(fork_map(fn, [(i, 0) for i in range(5)], 2)) == [lost, 1, 2, 3, 4]


def test_probability_uses_the_same_worker_count():
    assert flopit.probability.pool_size is pool_size
