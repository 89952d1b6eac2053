"""Experiment runner: replications cut into stacks, run as pool tasks,
results aggregated.

``run_experiment`` is the single entry point used by the CLI, the benchmark
harnesses and the examples.  Replication ``i`` always sees the random stream
derived from ``(config.seed, i)``, so the outcome is independent of the
worker count, of the shard count and of which replications share a stack.

:func:`plan_stacks` makes the one dispatch decision for every execution
mode: it cuts the replications into contiguous stacks
(:func:`repro.parallel.shard.plan_shards`) — one per shard, or one per
worker when unsharded — or into stacks of one when
:func:`repro.experiments.replication.stacked_unsupported_reason` names a
reason (an engine that does not fuse); it reads the config only.  Each stack is one pool task, a :func:`run_stack` call, run through
the work-stealing scheduler (:func:`repro.parallel.shard.sharded_map`,
in-process at ``processes=1``), which buys recovery from a dead or
straggling worker.  Every cut yields bit-identical
:class:`ReplicationResult`\\ s (pinned by ``tests/test_parallel_shard.py``,
``tests/test_sim_stacked.py`` and the CI shard-invariance gate).

``checkpoint_dir``/``resume`` thread straight through to ``run_stack``, so
an interrupted experiment continues from each replication's newest intact
checkpoint, at any stack width: checkpoints never change the cut.

With telemetry enabled in the config, each stack records inside its own
session (worker processes included) and ships back one picklable export;
the runner merges one export per stack into a parent session of its own,
which also captures the pool-level metrics.  The aggregated export records
the dispatch: ``stack_width`` (the widest stack) and ``stack_reason`` (why
replications could not share a stack, ``"none"`` when they could).
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
from repro.parallel.shard import default_processes, plan_shards, sharded_map
from repro.telemetry.runtime import telemetry_session

__all__ = ["plan_stacks", "run_experiment"]


def plan_stacks(
    config: ExperimentConfig,
    *,
    processes: int | None = None,
    shards: int | None = None,
    stacked: bool | None = None,
) -> tuple[list[list[int]], str]:
    """Cut the replication indices into stacks, each one pool task.

    Returns the stacks and why replications do not share stacks (``"none"``
    when they may).  When stacking is allowed the ``R`` replications are cut
    into ``shards or processes or default_processes(R)`` contiguous stacks;
    otherwise every replication is a stack of one.  ``stacked=None`` stacks
    whenever :func:`stacked_unsupported_reason` allows it; ``True`` demands
    stacking (``ValueError`` when ineligible) and ``False`` never stacks.
    """
    n_reps = config.replications
    if stacked is False:
        reason = "stacking disabled by request"
    else:
        reason = stacked_unsupported_reason(config)
        if stacked and reason is not None:
            raise ValueError(f"stacked evaluation unavailable: {reason}")
    if reason is None:
        n_stacks = shards or processes or default_processes(n_reps)
    else:
        n_stacks = n_reps
    stacks = [list(shard.task_indices) for shard in plan_shards(n_reps, n_stacks)]
    return stacks, reason or "none"


def _task(
    args: tuple[ExperimentConfig, list[int], str | None, bool],
) -> tuple[list[ReplicationResult], dict | None]:
    """Run one stack (module-level, so the process pool can pickle it):
    :func:`run_stack`'s results and telemetry export."""
    config, stack, checkpoint_dir, resume = args
    return run_stack(config, stack, checkpoint_dir=checkpoint_dir, resume=resume)


def run_experiment(
    config: ExperimentConfig,
    processes: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    *,
    shards: int | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = True,
    stacked: bool | None = None,
) -> ExperimentResult:
    """Run all replications of ``config`` and aggregate the results.

    Parameters
    ----------
    processes:
        ``None`` uses one worker per core (capped at the task count);
        ``1`` runs serially in-process.
    progress:
        Optional ``(done, total)`` callback invoked after each finished
        stack with the completed replications out of ``R``.
    shards:
        ``None`` cuts one stack per worker; ``N >= 1`` cuts at most ``N``
        deterministic contiguous stacks.  Either way the stacks run
        through the work-stealing scheduler, which survives one dead
        worker by resubmitting the unfinished stacks.  Any shard count
        yields bit-identical results.
    checkpoint_dir:
        Root of the checkpoint store; ``None`` disables checkpointing.
    resume:
        With a ``checkpoint_dir``, continue each replication from its
        newest intact checkpoint (``False`` forces a fresh start while
        still writing checkpoints).
    stacked:
        ``None`` (the default) lets replications share a stack whenever
        they may (:func:`plan_stacks`).  ``True`` demands stacking
        (``ValueError`` when ineligible); ``False`` runs stacks of one.
        Stacked results are bit-identical to unstacked ones, so the choice
        is purely an execution-plan knob.
    """
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    stacks, reason = plan_stacks(
        config,
        processes=processes,
        shards=shards,
        stacked=stacked,
    )
    ckpt = str(checkpoint_dir) if checkpoint_dir is not None else None

    def run_all() -> list[tuple[list[ReplicationResult], dict | None]]:
        return sharded_map(
            _task,
            [(config, stack, ckpt, resume) for stack in stacks],
            processes=processes,
            progress=progress,
            weights=[len(stack) for stack in stacks],
        )

    def replications(outs) -> list[ReplicationResult]:
        # stacks are contiguous and ascending; the sort is a guard
        flat = [rep for reps, _ in outs for rep in reps]
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
        tel.count("shard.runs", len(stacks))
        tel.count("shard.replications", config.replications)
        for _, export in outs:
            tel.absorb(export)
        aggregated = tel.export()
    aggregated["wall_s"] = perf_counter() - t0
    aggregated["stack_width"] = max(len(stack) for stack in stacks)
    aggregated["stack_reason"] = reason
    return ExperimentResult(
        config=config.describe(),
        replications=replications(outs),
        telemetry=aggregated,
    )
