"""Order-preserving process-pool map for independent simulation tasks.

Design notes (per the HPC guides: parallelise at the outermost independent
level, keep workers coarse-grained):

* one task = one or more full replications (minutes of work), so
  inter-process overhead is negligible;
* tasks are submitted to a ``ProcessPoolExecutor`` and collected
  as-completed, but returned **in index order** — determinism does not depend
  on scheduling;
* ``processes=1`` (or a single task) short-circuits to a plain loop in the
  current process, which keeps tests fast and stack traces readable;
* a failing task cancels the remaining futures and re-raises the original
  exception;
* a *dying worker* (OOM kill, segfault, SIGKILL) breaks the whole executor —
  with ``max_redispatch > 0`` the pool is rebuilt and the not-yet-completed
  tasks are resubmitted (results already collected are kept), up to that
  many recoveries, before the ``BrokenProcessPool`` is allowed to
  propagate.  Task results must be deterministic for this to be safe, which
  is the repo-wide contract (a replication is a pure function of
  ``(config, index)``).
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter
from typing import Callable, Sequence, TypeVar

from repro.telemetry.runtime import get_telemetry

__all__ = ["parallel_map", "default_processes"]

T = TypeVar("T")
R = TypeVar("R")


def default_processes(n_tasks: int) -> int:
    """A sensible worker count: min(#tasks, #cores), at least 1."""
    return max(1, min(n_tasks, os.cpu_count() or 1))


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    processes: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    max_redispatch: int = 0,
) -> list[R]:
    """Apply ``fn`` to every item, optionally across processes.

    Parameters
    ----------
    fn:
        A picklable callable (module-level function or functools.partial of
        one).
    items:
        The task inputs; each must be picklable.
    processes:
        Worker processes; ``None`` chooses :func:`default_processes`,
        ``1`` forces serial execution in-process.
    progress:
        Optional callback ``(done, total)`` invoked after each completion.
    max_redispatch:
        How many times a run may survive a *worker death* (broken executor)
        by rebuilding the pool and resubmitting the unfinished tasks.  ``0``
        (the default) propagates the ``BrokenProcessPool``.  Ordinary task
        exceptions always propagate regardless.

    Returns results in the same order as ``items``.
    """
    items = list(items)
    total = len(items)
    if total == 0:
        return []
    if processes is None:
        processes = default_processes(total)
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if max_redispatch < 0:
        raise ValueError(f"max_redispatch must be >= 0, got {max_redispatch}")

    # telemetry: capture the recorder at entry, so tasks that open their own
    # nested sessions (the serial path below) cannot steal the pool's records
    tel = get_telemetry()
    if not tel.enabled:
        tel = None
    t_start = perf_counter() if tel is not None else 0.0
    task_s: list[float] = []

    if processes == 1 or total == 1:
        results: list[R] = []
        for i, item in enumerate(items):
            if tel is None:
                results.append(fn(item))
            else:
                t0 = perf_counter()
                results.append(fn(item))
                task_s.append(perf_counter() - t0)
            if progress is not None:
                progress(i + 1, total)
        if tel is not None:
            _record_pool_metrics(tel, task_s, 1, perf_counter() - t_start)
        return results

    out: list[R | None] = [None] * total
    completed = [False] * total
    done_count = 0
    redispatches_left = max_redispatch
    while done_count < total:
        try:
            with ProcessPoolExecutor(max_workers=processes) as pool:
                if tel is None:
                    future_to_index = {
                        pool.submit(fn, items[i]): i
                        for i in range(total)
                        if not completed[i]
                    }
                else:
                    # the wrapper times the task inside the worker, so
                    # task_s holds true compute durations (queueing behind
                    # busy workers excluded)
                    future_to_index = {
                        pool.submit(_timed_call, fn, items[i]): i
                        for i in range(total)
                        if not completed[i]
                    }
                pending = set(future_to_index)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_EXCEPTION)
                    for future in done:
                        exc = future.exception()
                        if isinstance(exc, BrokenProcessPool):
                            raise exc  # worker death: maybe re-dispatch
                        if exc is not None:
                            for f in pending:
                                f.cancel()
                            raise exc
                        if tel is None:
                            out[future_to_index[future]] = future.result()
                        else:
                            seconds, result = future.result()
                            task_s.append(seconds)
                            out[future_to_index[future]] = result
                        completed[future_to_index[future]] = True
                        done_count += 1
                        if progress is not None:
                            progress(done_count, total)
        except BrokenProcessPool:
            # a worker died mid-run and took the executor with it; results
            # already collected are kept, the rest are resubmitted on a
            # fresh pool (tasks are deterministic, so re-running is safe)
            if redispatches_left <= 0:
                raise
            redispatches_left -= 1
            if tel is not None:
                tel.count("parallel.redispatched", total - done_count)
                tel.count("parallel.pool_rebuilds")
    if tel is not None:
        _record_pool_metrics(tel, task_s, processes, perf_counter() - t_start)
    return out  # type: ignore[return-value]


def _timed_call(fn: Callable[[T], R], item: T) -> tuple[float, R]:
    """Run one task in the worker, returning (duration, result)."""
    t0 = perf_counter()
    result = fn(item)
    return perf_counter() - t0, result


def _record_pool_metrics(
    tel, task_s: list[float], workers: int, span_s: float
) -> None:
    """Fold one map's task timings into the telemetry registry."""
    for seconds in task_s:
        tel.observe("parallel.task_s", seconds)
    tel.count("parallel.maps")
    tel.count("parallel.tasks", len(task_s))
    tel.set_gauge("parallel.workers", workers)
    tel.set_gauge("parallel.span_s", span_s)
    if task_s and span_s > 0:
        busy = sum(task_s)
        tel.set_gauge("parallel.utilization", busy / (workers * span_s))
        low, high = min(task_s), max(task_s)
        tel.set_gauge(
            "parallel.straggler_spread", high / low if low > 0 else 0.0
        )
