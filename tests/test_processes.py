"""`map_in_order` on a thread pool: results in job order, no pool for one
worker or one job, errors where the inline run raises them, and no worker
left running by a caller that stops early."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from ovrefine.processes import map_in_order


class Pools:
    """A pool factory that records the worker count of each pool it makes."""

    def __init__(self):
        self.made = []

    def __call__(self, workers):
        self.made.append(workers)
        return ThreadPoolExecutor(workers)


def slow_square(job):
    # the later a job, the sooner it finishes
    time.sleep(0.002 * (8 - job % 8))
    return job * job


def failing_jobs(n):
    """``n`` jobs, then an error in reading the next one."""
    yield from range(n)
    raise OSError(5, "Input/output error")


def taken(results):
    """What ``results`` yields before it raises, and what it raises."""
    got = []
    with pytest.raises(Exception) as err:
        for result in results:
            got.append(result)
    return got, err.value


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_in_job_order(workers):
    pools = Pools()
    assert list(map_in_order(slow_square, range(20), workers, pools)) == [
        job * job for job in range(20)
    ]
    assert pools.made == ([] if workers == 1 else [workers])


@pytest.mark.parametrize("workers, jobs", [(1, 5), (3, 1), (3, 0)])
def test_no_pool_for_one_worker_or_at_most_one_job(workers, jobs):
    pools = Pools()
    assert list(map_in_order(slow_square, range(jobs), workers, pools)) == [
        job * job for job in range(jobs)
    ]
    assert pools.made == []


def test_a_pool_has_at_most_one_worker_per_job():
    pools = Pools()
    assert list(map_in_order(slow_square, range(2), 3, pools)) == [0, 1]
    assert pools.made == [2]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_error_from_fn_comes_after_every_earlier_result(workers):
    def square_but_seven(job):
        if job == 7:
            raise ValueError("seven")
        return slow_square(job)

    got, error = taken(map_in_order(square_but_seven, range(20), workers, Pools()))
    assert got == [job * job for job in range(7)]
    assert str(error) == "seven"


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("readable", [1, 2, 9], ids=["one-job", "two-jobs", "nine-jobs"])
def test_an_error_in_reading_the_jobs_comes_after_every_earlier_result(workers, readable):
    # within the first `workers` jobs, or after the pool has started
    got, error = taken(map_in_order(slow_square, failing_jobs(readable), workers, Pools()))
    assert got == [job * job for job in range(readable)]
    assert isinstance(error, OSError)


@pytest.mark.parametrize("workers", [2, 3])
def test_closing_early_leaves_no_worker_running(workers):
    before = set(threading.enumerate())
    started = []

    def record(job):
        started.append(job)
        return slow_square(job)

    results = map_in_order(record, range(100), workers, Pools())
    assert next(results) == 0
    results.close()
    assert set(threading.enumerate()) == before
    # the queued jobs are dropped: the first `workers` jobs, and at most two
    # per worker queued behind them and one more, were ever submitted
    assert len(started) <= 3 * workers + 1
