"""Run a resolved scenario: the one executor behind every front door.

``repro run``, ``repro run-case``, ``repro reproduce`` (through
:class:`~repro.experiments.registry.ReproductionSession`) and service jobs
(:class:`~repro.service.runner.JobRunner`) each resolve a scenario and
hand the :class:`~repro.scenarios.resolve.ResolvedScenario` to
:func:`execute_scenario`.  It maps the ``run`` block onto
:func:`repro.experiments.runner.run_experiment` and, for a
telemetry-enabled run, writes the run manifest — the one home of the
run's timings and dispatch; the raw results document holds results only.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.scenarios.resolve import ResolvedScenario

__all__ = ["Execution", "execute_scenario"]


class Execution(NamedTuple):
    """What one executed scenario produced."""

    result: Any  # ExperimentResult (typed loosely to keep imports light)
    #: the run manifest's path (``None`` unless telemetry was enabled)
    manifest: Path | None


def execute_scenario(
    resolved: ResolvedScenario,
    *,
    progress: Callable[[int, int], None] | None = None,
    manifest_dir: str | Path | None = None,
) -> Execution:
    """Run ``resolved`` and, when its config enables telemetry, write its
    manifest as ``<name>_manifest.json`` into ``manifest_dir`` (default
    ``results/telemetry``)."""
    # looked up at call time, so a patched runner.run_experiment is the one
    # that runs
    from repro.experiments.runner import run_experiment
    from repro.telemetry.manifest import write_run_manifest

    checkpoint_dir = resolved.checkpoint_store
    result = run_experiment(
        resolved.config,
        processes=resolved.processes,
        progress=progress,
        shards=resolved.shards,
        checkpoint_dir=checkpoint_dir,
        resume=resolved.resume,
        stacked=resolved.stacked,
    )
    manifest = None
    if result.telemetry is not None:
        manifest = write_run_manifest(
            manifest_dir if manifest_dir is not None else Path("results/telemetry"),
            resolved.name,
            result.config,
            result.telemetry,
            run_extra={
                "checkpoint_dir": (
                    str(checkpoint_dir) if checkpoint_dir is not None else "none"
                )
            },
        )
    return Execution(result, manifest)
