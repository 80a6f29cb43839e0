"""The worker-process primitive: its worker count, job order and errors."""

import multiprocessing
import os
import time
from functools import partial

import pytest

from entropy_lab import workers
from entropy_lab.errors import DataError, NumericError


@pytest.fixture
def four_cpus(monkeypatch):
    """Let the pool start up to four workers whatever this machine has."""
    monkeypatch.setattr(workers, "_cpus", lambda: 4)


def _fail(error, message: str, delay: float):
    time.sleep(delay)
    raise error(message)


def test_worker_count_is_capped_without_starting_a_process():
    cpus = workers._cpus()
    assert cpus >= 1
    assert workers.worker_count(10_000, 10_000) == cpus
    assert workers.worker_count(10_000, 3) == min(3, cpus)
    assert workers.worker_count(1, 10_000) == 1
    assert workers.worker_count(10_000, 0) == 1
    assert multiprocessing.active_children() == []


def test_results_come_back_in_job_order(four_cpus):
    jobs = [partial(pow, 3, k) for k in range(12)] + [os.getpid]
    serial = workers.run_jobs(jobs, 1)
    pooled = workers.run_jobs(jobs, 3)
    assert pooled[:-1] == serial[:-1] == [3 ** k for k in range(12)]
    assert serial[-1] == os.getpid() != pooled[-1]  # the pool ran in other processes
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [DataError, NumericError])
def test_first_failing_job_in_job_order_raises(four_cpus, error):
    # the second job fails last in time, the third first; the second's
    # error is the one raised, as it is with one worker
    jobs = [partial(pow, 2, 5), partial(_fail, error, "second", 0.3),
            partial(_fail, error, "third", 0.0), partial(pow, 2, 6)]
    for k in (1, 2, 3):
        with pytest.raises(error, match="^second$"):
            workers.run_jobs(jobs, k)
        assert multiprocessing.active_children() == []
