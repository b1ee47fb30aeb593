"""Independent tasks in forked worker processes, one per usable CPU.

``fork_map`` is the one place the package starts processes, for
``simulate``'s chunks of trials and ``mempool``'s groups of slices. It uses
``os.fork`` and pipes, not ``multiprocessing``, whose import alone would
add about 10 ms to every CLI start.
"""

from __future__ import annotations

import os
import pickle
import sys


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _work(func, state, tasks: list, w: int, n: int, fd: int):
    """Run ``tasks[w::n]``, write (None, results) or (index, error) of the first to raise to fd, exit.

    An error, or results, that do not survive pickling go as (type, message)."""
    code, outcome = 1, (None, [])
    try:
        for index in range(w, len(tasks), n):
            try:
                outcome[1].append(func(state, tasks[index]))
            except BaseException as e:
                outcome = (index, e)
                break
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            if outcome[0] is not None:
                pickle.loads(data)  # an exception whose __init__ takes other arguments fails here
        except Exception as e:
            index, error = outcome if outcome[0] is not None else (w, e)
            data = pickle.dumps((index, (type(error), str(error))))
        with open(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def fork_map(func, state, tasks: list) -> list:
    """``[func(state, task) for task in tasks]``, worker w of n running ``tasks[w::n]``.

    n is the usable CPU count, at most one per task. Workers inherit
    ``func`` and ``state`` through the fork; results and errors come back
    pickled, and the caller runs no task. The tasks run here, in order,
    when n is 1, without ``os.fork``, or in a daemonic ``multiprocessing``
    worker, which may not have children. The first failing task's error in
    task order is raised here, a worker that ends without its outcome
    raises ChildProcessError, and no worker outlives the call.
    """
    n = min(usable_cpus(), len(tasks))
    process = sys.modules.get("multiprocessing.process")  # imported in any multiprocessing worker
    if n < 2 or not hasattr(os, "fork") or (process and process.current_process().daemon):
        return [func(state, task) for task in tasks]
    import signal  # here, not at the top: importing it costs every CLI start 0.4 ms

    pids, pipes = [], []  # workers not yet reaped; read ends of their pipes
    try:
        for w in range(n):
            read, write = os.pipe()
            pipes.append(read)
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())  # unchanged, so the finally restores it
            try:
                # SIGINT stays blocked across the fork: one that arrives meanwhile,
                # even in an at-fork hook, which would only print it, is raised by
                # the finally's last call, once the worker's pid is in pids.
                signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                # This process starts no threads of its own, and OpenBLAS stops
                # its pool around a fork, so the workers inherit no held lock.
                if (pid := os.fork()) == 0:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    _work(func, state, tasks, w, n, write)
                pids.append(pid)
            finally:
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results, failures = [None] * len(tasks), []
        for w, (pid, read) in enumerate(zip(list(pids), pipes)):
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if status:
                raise ChildProcessError(f"worker {pid} ended with wait status {status} and no outcome")
            index, part = pickle.loads(data)
            if index is None:
                results[w::n] = part
            else:
                failures.append((index, part))
        if failures:
            error = min(failures, key=lambda failure: failure[0])[1]
            # An error sent as (type, message) is rebuilt without its __init__.
            raise error[0].__new__(error[0], error[1]) if isinstance(error, tuple) else error
        return results
    finally:
        for pid in pids:  # left by an error or an interrupt
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read in pipes:
            os.close(read)
