"""Worker processes for the commands that spread independent work over cores:
``refine``'s solves and ``baol``'s scenes.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from concurrent.futures import Executor

__all__ = ["process_pool"]


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
