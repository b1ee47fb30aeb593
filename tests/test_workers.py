"""fork_map's contract: the serial map's results and first error, and no worker left behind."""

import multiprocessing
import os
import signal
import threading
import time

import pytest
from conftest import assert_no_child_left, set_usable_cpus

from txpack.workers import fork_map


def _label(state, task):
    return f"{state}:{task}"


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("count", range(8))
def test_results_equal_the_serial_map(monkeypatch, cpus, count):
    set_usable_cpus(monkeypatch, cpus)
    tasks = [(i, "x" * i) for i in range(count)]
    assert fork_map(_label, "s", tasks) == [_label("s", task) for task in tasks]
    assert_no_child_left()


def _pid(state, task):
    return os.getpid()


@pytest.mark.parametrize("cpus", [2, 3])
def test_worker_w_runs_every_nth_task_and_the_caller_none(monkeypatch, cpus):
    set_usable_cpus(monkeypatch, cpus)
    pids = fork_map(_pid, None, list(range(7)))
    assert os.getpid() not in pids
    assert len(set(pids)) == cpus
    assert all(pids[w::cpus] == [pids[w]] * len(pids[w::cpus]) for w in range(cpus))


def test_tasks_run_here_without_fork(monkeypatch):
    set_usable_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert fork_map(_pid, None, list(range(4))) == [os.getpid()] * 4


def _pids_in_this_process():
    return os.getpid(), fork_map(_pid, None, list(range(4)))


def test_tasks_run_here_in_a_daemonic_worker(monkeypatch):
    set_usable_cpus(monkeypatch, 2)
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        here, pids = pool.apply_async(_pids_in_this_process).get(timeout=60)
    finally:
        pool.terminate()
        pool.join()
    assert pids == [here] * 4


class _Unpicklable(ValueError):
    """Cannot be pickled: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class _TwoArguments(ValueError):
    """Pickles, but unpickling calls __init__ with its message alone, which fails."""

    def __init__(self, task, why):
        super().__init__(f"task {task} {why}")


_ERRORS = {
    ValueError: lambda task: ValueError(f"task {task} failed"),
    _Unpicklable: lambda task: _Unpicklable(f"task {task} failed"),
    _TwoArguments: lambda task: _TwoArguments(task, "failed"),
    KeyboardInterrupt: lambda task: KeyboardInterrupt(f"task {task} failed"),
}


def _fail_at(state, task):
    failing, make = state
    if task in failing:
        raise make(task)
    return task


@pytest.mark.parametrize("kind", _ERRORS, ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_first_error_in_task_order_is_raised(monkeypatch, kind, cpus):
    # Tasks 3 and 4 fail. At 2 CPUs worker 0 (0, 2, 4, 6) fails at 4 and worker
    # 1 (1, 3, 5) at 3; the caller collects worker 0 first and raises task 3's.
    set_usable_cpus(monkeypatch, cpus)
    with pytest.raises(kind) as raised:
        fork_map(_fail_at, ({3, 4}, _ERRORS[kind]), list(range(7)))
    assert type(raised.value) is kind
    assert str(raised.value) == "task 3 failed"
    assert_no_child_left()


def test_unpicklable_results_raise(monkeypatch):
    set_usable_cpus(monkeypatch, 2)
    with pytest.raises(TypeError, match="lock"):
        fork_map(lambda state, task: threading.Lock() if task else task, None, [0, 1])
    assert_no_child_left()


def test_killed_worker_raises(monkeypatch):
    # Worker 0 kills itself while worker 1 sleeps: the call raises at once and ends worker 1.
    set_usable_cpus(monkeypatch, 2)
    caller = os.getpid()

    def die_or_sleep(state, task):
        if os.getpid() != caller:
            if task == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)
        return task

    start = time.monotonic()
    with pytest.raises(ChildProcessError, match="wait status 9"):
        fork_map(die_or_sleep, None, [0, 1])
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_interrupted_caller_leaves_no_worker(monkeypatch):
    # Worker 1 interrupts the caller once it waits for worker 0; both workers are then ended.
    # The pause keeps the signal out of the caller's fork, whose at-fork hooks would swallow it.
    set_usable_cpus(monkeypatch, 2)
    caller = os.getpid()

    def interrupt_and_sleep(state, task):
        if os.getpid() != caller:
            if task == 1:
                time.sleep(0.5)
                os.kill(caller, signal.SIGINT)
            time.sleep(60)
        return task

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_map(interrupt_and_sleep, None, [0, 1])
    assert time.monotonic() - start < 30
    assert_no_child_left()
