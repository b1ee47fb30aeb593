"""Independent tasks in forked worker processes, one per usable CPU.

``fork_map`` is the one place the package starts processes: ``simulate``
runs its chunks of trials through it, and ``mempool`` its groups of slices
of a large document. ``multiprocessing`` is imported only when workers
start: ``txpack.cli`` imports both callers, and importing it would add
about 10 ms to every CLI start.
"""

from __future__ import annotations

import os

_job = None  # (func, state), set by _adopt, in workers only


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _adopt(job: tuple):
    global _job
    _job = job


def _run(task):
    func, state = _job
    return func(state, task)


def fork_map(func, state, tasks: list) -> list:
    """``[func(state, task) for task in tasks]``, the tasks spread over forked workers.

    One worker per usable CPU and at most one per task. Workers inherit
    ``func`` and ``state`` through the fork, so closures and large buffers
    are never pickled: only the tasks go out and the results come back.
    The tasks run here, in order, when there is one worker, when the
    platform lacks the fork start method, or when this process is daemonic
    (a pool worker) and so may not have children. An error in a task stops
    every worker and is raised here.
    """
    workers = min(usable_cpus(), len(tasks))
    if workers > 1:
        import multiprocessing

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            # Fork, not spawn: closures cannot be pickled. This process starts
            # no threads of its own, and OpenBLAS stops its pool around a fork,
            # so the workers inherit no held lock.
            pool = multiprocessing.get_context("fork").Pool(workers, _adopt, ((func, state),))
            try:
                results = pool.map(_run, tasks)
                pool.close()
                return results
            except BaseException:
                pool.terminate()
                raise
            finally:
                pool.join()
    return [func(state, task) for task in tasks]
