"""The pools that the commands spread independent work over.

``map_in_order`` maps a function over a stream of jobs on a pool, in order
and with a bounded queue: ``baol`` maps it over the lines of its proposals
file on worker processes, and ``refine`` over chunks of lines of its
detections file, on worker processes for the static provider and on threads
for a remote one, each worker parsing, computing and formatting its own
jobs. One worker runs the jobs inline and starts no pool. ``process_pool``
starts the processes by fork or by spawn.
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


def map_in_order(
    fn: Callable[[J], R],
    jobs: Iterable[J],
    workers: int,
    pool: Callable[[int], Executor] | None = None,
) -> Iterator[R]:
    """``fn`` of each of ``jobs``, in order, on up to ``workers`` workers of
    ``pool(n)``, by default ``process_pool(n)``.

    One worker, or at most one job, runs inline and starts no pool.
    Otherwise a pool of one worker per job of the first ``workers`` starts
    before the rest of ``jobs`` is read, and at most two jobs per worker
    wait, so no worker holds more than a few jobs. On processes, ``fn`` and
    its jobs and results must pickle, and ``fn`` must be a module-level
    function, for a spawned worker.

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
    with (pool or process_pool)(len(first)) as executor:
        pending = deque(executor.submit(fn, job) for job in first)
        try:
            while pending:
                try:
                    job = next(jobs, None)
                except Exception:
                    while pending:
                        yield pending.popleft().result()
                    raise
                if job is not None:
                    pending.append(executor.submit(fn, job))
                if job is None or len(pending) > 2 * len(first):
                    yield pending.popleft().result()
        finally:
            # an error, or a caller that stops early, leaves the queued jobs undone
            for future in pending:
                future.cancel()
