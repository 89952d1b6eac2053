"""Experiment runner: replications grouped into tasks and stacks, results
aggregated.

``run_experiment`` is the single entry point used by the CLI, the benchmark
harnesses and the examples.  Replication ``i`` always sees the random stream
derived from ``(config.seed, i)``, so the outcome is independent of the
worker count, of the shard count and of which replications share a stack.

:func:`plan_stacks` makes the one dispatch decision for every execution
mode.  It groups the replications into tasks — the in-process call, one
pool task per replication, or one task per shard
(:func:`repro.parallel.shard.plan_shards`: deterministic contiguous groups
run through the work-stealing scheduler, which amortises process dispatch
and buys recovery from dead or straggling workers) — and each task into
stacks for :func:`repro.experiments.replication.run_stack`.  Every grouping
yields bit-identical :class:`ReplicationResult`\\ s (pinned by
``tests/test_parallel_shard.py``, ``tests/test_sim_stacked.py`` and the CI
shard-invariance gate).

``checkpoint_dir``/``resume`` thread straight through to ``run_stack``, so
an interrupted experiment — sharded or not — continues from each
replication's newest intact checkpoint.

With telemetry enabled in the config, each stack records inside its own
session (worker processes included) and ships back one picklable export;
the runner merges one export per stack into a parent session of its own,
which also captures the pool-level metrics.  The aggregated export records the dispatch:
``stack_width`` (the widest stack) and ``stack_reason`` (why replications
did not share a stack, ``"none"`` when they did).
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import (
    ReplicationResult,
    run_stack,
    stacked_unsupported_reason,
)
from repro.experiments.results import ExperimentResult
from repro.parallel.pool import parallel_map
from repro.parallel.shard import plan_shards, sharded_map
from repro.telemetry.runtime import telemetry_session

__all__ = ["plan_stacks", "run_experiment"]


def plan_stacks(
    config: ExperimentConfig,
    *,
    processes: int | None = None,
    shards: int | None = None,
    checkpoint_dir: str | Path | None = None,
    stacked: bool | None = None,
) -> tuple[list[list[list[int]]], str]:
    """Group the replication indices into tasks, each a list of stacks.

    Returns the tasks and why replications do not share stacks (``"none"``
    when they do).  ``stacked=None`` stacks whenever
    :func:`stacked_unsupported_reason` allows it and the run is in-process
    (``processes=1``) or sharded; ``True`` demands stacking (``ValueError``
    when ineligible) and ``False`` never stacks.
    """
    indices = list(range(config.replications))
    if shards is None:
        groups = [indices]
    else:
        groups = [
            list(shard.task_indices)
            for shard in plan_shards(config.replications, shards)
        ]
    if stacked is False:
        reason = "stacking disabled by request"
    else:
        reason = stacked_unsupported_reason(
            config, processes=processes, shards=shards, checkpoint_dir=checkpoint_dir
        )
        if stacked and reason is not None:
            raise ValueError(f"stacked evaluation unavailable: {reason}")
        if reason is None and stacked is None and shards is None and processes is None:
            reason = "the default worker pool runs one replication per task"
    if reason is None:
        return [[group] for group in groups], "none"
    if shards is None:
        return [[[i]] for i in indices], reason
    return [[[i] for i in group] for group in groups], reason


def _task(
    args: tuple[ExperimentConfig, list[list[int]], str | None, bool],
) -> dict:
    """Run one task's stacks in order (module-level, so the process pool
    can pickle it): ``{"results": [ReplicationResult, ...], "telemetry":
    [one export per stack]}``."""
    config, stacks, checkpoint_dir, resume = args
    runs = [
        run_stack(config, stack, checkpoint_dir=checkpoint_dir, resume=resume)
        for stack in stacks
    ]
    return {
        "results": [rep for reps, _ in runs for rep in reps],
        "telemetry": [export for _, export in runs if export is not None],
    }


def run_experiment(
    config: ExperimentConfig,
    processes: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    *,
    shards: int | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = True,
    max_redispatch: int | None = None,
    stacked: bool | None = None,
) -> ExperimentResult:
    """Run all replications of ``config`` and aggregate the results.

    Parameters
    ----------
    processes:
        ``None`` uses one worker per core (capped at the task count);
        ``1`` runs serially in-process.
    progress:
        Optional ``(done, total)`` callback; counts replications when
        unsharded, completed shards when sharded.
    shards:
        ``None`` dispatches unsharded (the default); ``N >= 1`` groups
        replications into at most ``N`` deterministic contiguous shards
        run through the work-stealing scheduler.  Any shard count yields
        bit-identical results.
    checkpoint_dir:
        Root of the checkpoint store; ``None`` disables checkpointing.
    resume:
        With a ``checkpoint_dir``, continue each replication from its
        newest intact checkpoint (``False`` forces a fresh start while
        still writing checkpoints).
    max_redispatch:
        Worker-death recoveries to allow (see ``parallel_map``); ``None``
        keeps each scheduler's default — fail fast unsharded, one recovery
        when sharded.
    stacked:
        ``None`` (the default) runs replications that may share a stack as
        one (:func:`plan_stacks`): all of them in-process, or each shard's
        in its worker.  ``True`` demands stacking (``ValueError`` when
        ineligible); ``False`` never stacks.  Stacked results are
        bit-identical to unstacked ones, so the choice is purely an
        execution-plan knob.
    """
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    tasks, reason = plan_stacks(
        config,
        processes=processes,
        shards=shards,
        checkpoint_dir=checkpoint_dir,
        stacked=stacked,
    )
    ckpt = str(checkpoint_dir) if checkpoint_dir is not None else None
    items = [(config, task, ckpt, resume) for task in tasks]
    n_reps = config.replications

    if shards is None:
        mapper, redispatch, task_progress = parallel_map, 0, progress
        if progress is not None:
            # unsharded tasks are one replication each or one stack of all
            def task_progress(done: int, total: int) -> None:
                progress(done * n_reps // total, n_reps)

    else:
        mapper, redispatch, task_progress = sharded_map, 1, progress

    def run_all() -> list[dict]:
        return mapper(
            _task,
            items,
            processes=processes,
            progress=task_progress,
            max_redispatch=redispatch if max_redispatch is None else max_redispatch,
        )

    def replications(outs: list[dict]) -> list[ReplicationResult]:
        # tasks are contiguous and ascending; the sort is a guard
        flat = [rep for out in outs for rep in out["results"]]
        return sorted(flat, key=lambda rep: rep.replication)

    if not config.telemetry.enabled:
        return ExperimentResult(
            config=config.describe(), replications=replications(run_all())
        )

    # parent session: the pool captures it at entry, so each stack's own
    # nested session (the serial path) cannot steal its pool metrics; one
    # export per stack merges in afterwards
    t0 = perf_counter()
    with telemetry_session(config.telemetry) as tel:
        outs = run_all()
        if shards is not None:
            tel.count("shard.runs", len(tasks))
            tel.count("shard.replications", n_reps)
        events: list[dict] = list(tel.events)
        dropped = tel.dropped_events
        for export in (export for out in outs for export in out["telemetry"]):
            tel.registry.merge(export["metrics"])
            events.extend(export["events"])
            dropped += export["dropped_events"]
        aggregated = {
            "metrics": tel.snapshot(),
            "events": events,
            "dropped_events": dropped,
            "wall_s": perf_counter() - t0,
        }
    aggregated["stack_width"] = max(len(stack) for task in tasks for stack in task)
    aggregated["stack_reason"] = reason
    return ExperimentResult(
        config=config.describe(),
        replications=replications(outs),
        telemetry=aggregated,
    )
