"""Independent jobs on worker processes.

A job is a module-level function bound to its arguments with
``functools.partial``, so that it pickles by reference.  A job's result
depends on the job alone, never on the process that runs it, so a job list
gives the same results at every worker count.  The interval chains hold the
GIL, so worker processes, not threads, are what runs them at the same time.
"""

from __future__ import annotations

import os


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def worker_count(requested: int, jobs: int) -> int:
    """Worker processes for ``jobs`` jobs when ``requested`` are asked for:
    no more than the jobs or the CPUs this process may run on, and at least
    one."""
    return max(1, min(requested, jobs, _cpus()))


def _run(job):
    return job()


def run_jobs(jobs, workers: int) -> list:
    """[job() for job in jobs], on up to ``workers`` worker processes.

    With one worker the jobs run in order in this process.  With more they
    go one at a time, in list order, to a pool of forked worker processes
    (spawned where the platform cannot fork).  Results come back in job
    order; the first job in that order that raises re-raises its exception
    here.  The pool is closed and joined before this returns.
    """
    jobs = list(jobs)
    k = worker_count(workers, len(jobs))
    if k == 1:
        return [job() for job in jobs]
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    pool = multiprocessing.get_context("fork" if "fork" in methods else "spawn").Pool(k)
    try:
        results = list(pool.imap(_run, jobs))
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()
    return results
