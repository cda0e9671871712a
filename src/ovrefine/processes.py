"""Worker processes for the commands that spread independent work over cores.

``map_in_order`` maps a function over a stream of jobs on worker processes,
in order and with a bounded queue: ``baol`` maps it over the lines of its
proposals file, and static ``refine`` over chunks of lines of its detections
file, each worker parsing, computing and formatting its own jobs. One worker
runs the jobs inline and starts no process. ``process_pool``, which starts
the processes by fork or by spawn, serves ``map_in_order`` alone: ``refine
--llm remote`` and the library's ``refine_scenes`` run on threads in one
process.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

if TYPE_CHECKING:
    from concurrent.futures import Executor

__all__ = ["map_in_order", "process_pool"]

J = TypeVar("J")
R = TypeVar("R")


def process_pool(workers: int) -> Executor:
    """``workers`` worker processes, all started before the caller starts a thread.

    A fork copies only the forking thread, so it must not happen while other
    threads run: a lock one of them holds would stay held in the child. A
    pool over fork starts all of its processes at its first submit, so the
    no-op submit below forks them while the caller's thread is the only one.
    A caller that already runs other threads gets spawned processes instead.
    """
    # imported here, not with the module, so that commands and runs that
    # start no process do not pay for loading multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context()
    if context.get_start_method() == "fork" and threading.active_count() > 1:
        context = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(workers, mp_context=context)
    pool.submit(int)
    return pool


def map_in_order(fn: Callable[[J], R], jobs: Iterable[J], workers: int) -> Iterator[R]:
    """``fn`` of each of ``jobs``, in order, on up to ``workers`` processes.

    One worker, or at most one job, runs inline and starts no process.
    Otherwise one process per job of the first ``workers`` starts before the
    rest of ``jobs`` is read, and at most two jobs per process wait, so no
    process holds more than a few jobs. ``fn`` and its jobs and results must
    pickle, and ``fn`` must be a module-level function, for a spawned worker.

    An error is raised where the inline run raises it: ``fn``'s once every
    result before it has been taken, and one in reading a later job once
    every result before that job has been taken. A caller that stops taking
    results early closes the generator, which drops the queued jobs and
    waits for the running ones.
    """
    jobs = iter(jobs)
    first = []
    try:
        for job in islice(jobs, workers):
            first.append(job)
    except Exception:
        # the jobs before the one that could not be read run inline
        yield from map(fn, first)
        raise
    if len(first) <= 1:
        yield from map(fn, chain(first, jobs))
        return
    with process_pool(len(first)) as pool:
        pending = deque(pool.submit(fn, job) for job in first)
        try:
            while pending:
                try:
                    job = next(jobs, None)
                except Exception:
                    while pending:
                        yield pending.popleft().result()
                    raise
                if job is not None:
                    pending.append(pool.submit(fn, job))
                if job is None or len(pending) > 2 * len(first):
                    yield pending.popleft().result()
        finally:
            # an error, or a caller that stops early, leaves the queued jobs undone
            for future in pending:
                future.cancel()
