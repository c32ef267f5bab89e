"""Plain forked worker processes, one per usable CPU.

``_map_seeds`` runs a task over a sequence of inputs (the seeds of ``toy
compare``, the byte ranges of a sharded ``select``) in ``os.fork`` workers on
Linux, and in the calling process elsewhere.  Each worker sends one pickled
result back through a pipe; the parent imports neither ``multiprocessing``
nor ``concurrent.futures`` and runs no input itself, it only waits.

This module loads no numpy.  ``cli`` imports it only when ``select`` shards
its input, so a small command loads neither ``pickle`` nor ``ctypes``.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
from typing import Callable, Sequence

# The prctl(2) option that has the kernel signal a process when the thread
# that forked it exits.
_PR_SET_PDEATHSIG = 1


def _usable_cpus() -> int:
    """The CPUs this process may use (``taskset`` restricts them) on Linux,
    where work is forked; 1 elsewhere, where it runs in the process."""
    # Fork only on Linux, where it is the default start method and numpy's
    # OpenBLAS registers fork handlers for its threads.  A worker would still
    # inherit a lock that a caller's other thread held at the fork.
    if sys.platform != "linux":
        return 1
    return len(os.sched_getaffinity(0))


def _start_worker(parent: int) -> None:
    """Have the kernel kill this forked worker when its parent dies.  A
    worker whose parent was killed would otherwise run the rest of its inputs
    for nobody."""
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    # Best effort, so the result is not checked: the call fails only for an
    # invalid signal or where a sandbox forbids prctl, and a worker it failed
    # for merely outlives a killed parent.
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before the prctl call
        os._exit(1)


def _run_stripe(task: Callable[[object], object], seeds: Sequence, first: int, step: int) -> bytes:
    """The pickled outcome of ``task`` over ``seeds[first::step]``, run in
    order: ``(results, None)``, or ``(None, (index, error))`` for the first
    seed that raises, ``index`` being its position in ``seeds``.  An error
    that does not survive pickling travels as ``RuntimeError(repr(error))``."""
    results = []
    for index in range(first, len(seeds), step):
        try:
            results.append(task(seeds[index]))
        except BaseException as err:
            try:
                failure = pickle.dumps((None, (index, err)))
                pickle.loads(failure)
            except Exception:
                failure = pickle.dumps((None, (index, RuntimeError(repr(err)))))
            return failure
    return pickle.dumps((results, None))


def _map_seeds(task: Callable[[object], object], seeds: Sequence) -> list:
    """``task`` of every seed, in seed order.  On Linux the seeds run in
    forked workers, one per CPU this process may use and at most one per
    seed; elsewhere, or when one worker would do, they run here.  Worker w
    runs ``seeds[w::workers]`` and sends its outcome back through a pipe; the
    error of the first seed that fails is raised, as the loop here would.
    No worker is left running or unreaped when this returns or raises."""
    workers = min(len(seeds), _usable_cpus())
    if workers <= 1:
        return [task(seed) for seed in seeds]
    parent = os.getpid()
    reads: list[int] = []  # each worker's pipe, in worker order
    running: dict[int, int] = {}  # worker by pid, until it is reaped
    outcomes = []
    try:
        for first in range(workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
            except BaseException:
                os.close(write)
                raise
            if pid == 0:
                # The worker inherits ``task`` and what it holds, such as a toy
                # world's sampler cache, which so lasts across its seeds.  It
                # closes the read ends it inherited, its own included, and
                # never returns into the caller's frames.
                status = 1
                try:
                    for fd in reads:
                        os.close(fd)
                    _start_worker(parent)
                    with open(write, "wb") as pipe:
                        pipe.write(_run_stripe(task, seeds, first, workers))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            running[pid] = first
        # The parent only waits: a seed run here would add its working set to
        # this process's peak memory.
        for pid, first in list(running.items()):
            with open(reads[first], "rb", closefd=False) as pipe:
                outcome = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del running[pid]
            if not outcome:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"seed worker {first} died ({how}) before sending its results")
            outcomes.append(pickle.loads(outcome))
    finally:
        for read in reads:
            os.close(read)
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results: list = [None] * len(seeds)
    failures = []
    for first, (done, failure) in enumerate(outcomes):
        if failure is None:
            results[first::workers] = done
        else:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results
