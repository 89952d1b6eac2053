"""Deterministic shard scheduler with work-stealing re-dispatch: the one
process-pool mapper.

A *shard* is a contiguous slice of an indexed task set that one worker
processes as a unit.  Every experiment run goes through this scheduler:
:mod:`repro.experiments.runner` cuts the replications into shards, each one
stack for one pool task, which amortises per-task dispatch overhead, while
determinism is preserved because every task derives its random stream from
``(master_seed, task_index)`` — the *shard* never enters the seed tree (see
:mod:`repro.utils.rng`).  The same task set therefore produces
bit-identical results under any shard count, pinned by
``tests/test_parallel_shard.py`` and the CI shard-invariance gate.

Results come back in index order, whatever the completion order;
``processes=1`` (or a single task) runs a plain loop in the current
process, which keeps tests fast and stack traces readable; a failing task
cancels the queued ones and re-raises the original exception.

Fault tolerance, in two layers:

* **dead workers** — a broken executor (OOM kill, segfault) is rebuilt and
  every shard without a result is resubmitted, up to ``max_redispatch``
  times;
* **stragglers** — when completed-shard durations show a shard running more
  than ``straggler_factor`` times the median while workers sit idle, a
  speculative duplicate is submitted (the same idea the pool's
  ``parallel.straggler_spread`` gauge quantifies after the fact); the first
  finisher wins and the loser is discarded, which is safe because shard
  functions are deterministic.

The workers are joined before the call returns, so their CPU time and
memory are already counted in the parent's ``RUSAGE_CHILDREN``; only a
losing speculative duplicate may finish after the return.

Both events land in telemetry (``parallel.redispatched``,
``parallel.stolen``, ``parallel.pool_rebuilds``) next to the pool metrics,
so re-dispatch decisions and their frequency are observable per run.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable, Sequence, TypeVar

from repro.telemetry.runtime import get_telemetry

__all__ = ["Shard", "default_processes", "plan_shards", "sharded_map"]

T = TypeVar("T")
R = TypeVar("R")


def default_processes(n_tasks: int) -> int:
    """A sensible worker count: min(#tasks, #cores), at least 1."""
    return max(1, min(n_tasks, os.cpu_count() or 1))


@dataclass(frozen=True)
class Shard:
    """One deterministic slice of an indexed task set."""

    index: int
    task_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.task_indices)


def plan_shards(n_tasks: int, n_shards: int) -> list[Shard]:
    """Partition ``range(n_tasks)`` into at most ``n_shards`` contiguous
    shards.

    The plan is a pure function of its arguments: sizes differ by at most
    one (the first ``n_tasks % n_shards`` shards are one task larger) and
    indices stay in ascending order, so shard 0 of a 4-shard plan always
    holds the same tasks on every host.  Empty shards are never produced —
    asking for more shards than tasks yields one singleton shard per task.
    """
    if n_tasks < 0:
        raise ValueError(f"n_tasks must be >= 0, got {n_tasks}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n_tasks)
    shards: list[Shard] = []
    start = 0
    for k in range(n_shards):
        size = n_tasks // n_shards + (1 if k < n_tasks % n_shards else 0)
        shards.append(Shard(index=k, task_indices=tuple(range(start, start + size))))
        start += size
    assert start == n_tasks
    return shards


def sharded_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    processes: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    max_redispatch: int = 1,
    straggler_factor: float = 4.0,
    poll_s: float = 0.05,
    weights: Sequence[int] | None = None,
) -> list[R]:
    """Apply deterministic ``fn`` to every item with work-stealing recovery.

    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` of one) and **deterministic** — a speculative
    duplicate's result is used interchangeably with the original's.
    Returns the results in the order of ``items``.

    ``processes`` is the worker count: ``None`` chooses
    :func:`default_processes`, ``1`` runs serially in-process.
    ``progress`` is an optional ``(done, total)`` callback invoked after
    each completion; it counts ``weights[i]`` units for item ``i`` (one
    each by default), so a caller whose items bundle several tasks can
    report tasks.  ``max_redispatch`` is how many times a run may survive a
    *worker death* by rebuilding the pool and resubmitting the unfinished
    items; ordinary task exceptions always propagate.
    ``straggler_factor`` is the multiple of the median completed-shard
    duration a running shard must exceed (while a worker is idle) before a
    duplicate is submitted; ``None`` disables speculation.  ``poll_s`` is
    the scheduler's wake-up interval for straggler checks.
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
    if straggler_factor is not None and straggler_factor <= 1.0:
        raise ValueError(
            f"straggler_factor must be > 1 (or None), got {straggler_factor}"
        )
    weights = [1] * total if weights is None else list(weights)
    if len(weights) != total:
        raise ValueError(f"got {len(weights)} weights for {total} items")
    total_units = sum(weights)

    # telemetry: capture the recorder at entry, so tasks that open their own
    # nested sessions (the serial path below) cannot steal the pool's records
    tel = get_telemetry()
    if not tel.enabled:
        tel = None
    t_start = perf_counter() if tel is not None else 0.0
    task_s: list[float] = []
    done_units = 0

    if processes == 1 or total == 1:
        out_serial: list[R] = []
        for item, weight in zip(items, weights):
            t0 = perf_counter()
            out_serial.append(fn(item))
            task_s.append(perf_counter() - t0)
            done_units += weight
            if progress is not None:
                progress(done_units, total_units)
        if tel is not None:
            _record_pool_metrics(tel, task_s, 1, perf_counter() - t_start)
        return out_serial

    out: list[R | None] = [None] * total
    completed = [False] * total
    done_count = 0
    redispatches_left = max_redispatch
    durations: list[float] = []

    while done_count < total:
        pool = ProcessPoolExecutor(max_workers=processes)
        future_to_index: dict[Future, int] = {}
        # when each task was first seen running, not when it was submitted:
        # a task queued behind busy workers is waiting, not straggling
        started_at: dict[Future, float] = {}
        in_flight: dict[int, list[Future]] = {}

        def submit(i: int) -> None:
            # the wrapper times the task inside the worker, so task_s holds
            # true compute durations (queueing behind busy workers excluded)
            future = pool.submit(_timed_call, fn, items[i])
            future_to_index[future] = i
            in_flight.setdefault(i, []).append(future)

        try:
            for i in range(total):
                if not completed[i]:
                    submit(i)
            while done_count < total:
                done, _pending = wait(
                    set(future_to_index),
                    timeout=poll_s,
                    return_when=FIRST_COMPLETED,
                )
                now = perf_counter()
                for future in future_to_index:
                    if future not in started_at and future.running():
                        started_at[future] = now
                for future in done:
                    i = future_to_index.pop(future)
                    started_at.pop(future, None)
                    in_flight[i] = [f for f in in_flight[i] if f is not future]
                    exc = future.exception()
                    if isinstance(exc, BrokenProcessPool):
                        raise exc  # worker death: maybe re-dispatch
                    if completed[i]:
                        continue  # the speculative sibling already won
                    if exc is not None:
                        for f in future_to_index:
                            f.cancel()
                        raise exc
                    seconds, result = future.result()
                    task_s.append(seconds)
                    durations.append(seconds)
                    out[i] = result
                    completed[i] = True
                    done_count += 1
                    done_units += weights[i]
                    if progress is not None:
                        progress(done_units, total_units)
                if (
                    straggler_factor is not None
                    and durations
                    and len(future_to_index) < processes
                ):
                    # idle capacity while some shards are still running:
                    # duplicate any shard well past the median duration
                    # (only singly-in-flight ones — one backup per shard
                    # per executor generation)
                    cutoff = straggler_factor * median(durations)
                    budget = processes - len(future_to_index)
                    for i in range(total):
                        if budget <= 0:
                            break
                        flights = in_flight.get(i, [])
                        if completed[i] or len(flights) != 1:
                            continue
                        if now - started_at.get(flights[0], now) > cutoff:
                            submit(i)
                            budget -= 1
                            if tel is not None:
                                tel.count("parallel.stolen")
        except BrokenProcessPool:
            # results already collected survive; everything else gets a
            # fresh executor (deterministic fn makes re-running safe)
            if redispatches_left <= 0:
                raise
            redispatches_left -= 1
            if tel is not None:
                tel.count("parallel.redispatched", total - done_count)
                tel.count("parallel.pool_rebuilds")
        finally:
            # join the workers unless a losing speculative duplicate is
            # still running: waiting for it would forfeit the speculation
            loser_running = any(
                completed[i] and not f.done() for f, i in future_to_index.items()
            )
            pool.shutdown(wait=not loser_running, cancel_futures=True)

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
