"""The three workloads, each driven through the program's public entry points.

All run at the default-scale geometry (population 100, 50 seats, 100
rounds, 4 replications); each takes its seed from the command line.  A
workload function returns an :class:`Outcome`; the wall-clock window opens
at the first call into the program (scenario resolution, then
``run_experiment`` or ``JobRunner.submit``) and closes with the result in
hand.

Why these three (README.md has the full rationale):

* ``case3_stacked`` — the paper's Table 5 / Fig. 4 workload on the path users
  get: ``fused`` engine, ``auto`` kernel, ``processes=1``, so
  ``run_experiment`` dispatches the cross-replication stacked path.
* ``case4_service`` — ``scenarios/case4.yaml`` submitted to an in-process
  ``JobRunner`` with every execution default kept: the per-replication
  driver, the scalar GA, the bit-identical ``fast`` engine, forced
  telemetry, checkpoints, the worker pool and the result store.
* ``mobile_approx`` — ``scenarios/mobile_waypoint_approx.yaml`` with
  ``engine: fused``, in-process: the only workload on the routed draw path
  (topology stepping and route search).  The exact-cache scenario crashes
  at this scale, so it cannot be the workload.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from probes import Probes, SetupDone

DEFAULT_SEED = 2007
CASE3_GENERATIONS = 10
SERVICE_GENERATIONS = 3
MOBILE_GENERATIONS = 3

#: Program seeds on which ``mobile_approx`` runs to completion.  At this
#: scale the routed draw raises "no routable destination found" on about one
#: seed in five (6 and 17-20 of 1-24); a crash is a failed run, so
#: ``--seed`` picks from this list instead (README.md, "Why mobile_approx").
MOBILE_SEEDS = (2007, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 21, 22, 23, 24)


def mobile_seed(seed: int) -> int:
    """The program seed ``mobile_approx`` runs for a benchmark ``--seed``."""
    return seed if seed in MOBILE_SEEDS else MOBILE_SEEDS[seed % len(MOBILE_SEEDS)]


@dataclass
class Outcome:
    """One run of a workload, as the benchmark saw it."""

    replications: list[dict]  # ReplicationResult.to_dict(), provenance stripped
    generations: int
    rounds: int
    environments: list[tuple[str, int, int]]  # (name, n_normal, n_selfish)
    case: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    extra: dict = field(default_factory=dict)


class Window:
    """The timed region: wall clock and the CPU of this process and its
    reaped children."""

    def __init__(self) -> None:
        self.t0 = self.t1 = 0.0
        self._cpu0 = 0.0

    @staticmethod
    def _cpu() -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    def open(self) -> None:
        self._cpu0 = self._cpu()
        self.t0 = perf_counter()

    def close(self) -> None:
        self.t1 = perf_counter()
        self.cpu_s = self._cpu() - self._cpu0
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.peak_rss_mb = max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


def _strip(rep: dict) -> dict:
    return {k: v for k, v in rep.items() if k not in ("telemetry", "checkpoint")}


def _outcome(config, replications: list[dict], window: Window, **extra) -> Outcome:
    return Outcome(
        replications=replications,
        generations=config.generations,
        rounds=config.sim.rounds,
        environments=[
            (env.name, env.n_normal, env.n_selfish) for env in config.case.environments
        ],
        case=config.case.name,
        wall_s=window.wall_s,
        cpu_s=window.cpu_s,
        peak_rss_mb=window.peak_rss_mb,
        extra=extra,
    )


def _span(probes: Probes, layer: str):
    from contextlib import nullcontext

    return probes.tracer.span(layer) if probes.tracer is not None else nullcontext()


def case3_stacked(root: Path, seed: int, probes: Probes) -> Outcome:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    window = Window()
    window.open()
    with _span(probes, "scenarios.resolve"):
        config = ExperimentConfig.for_case(
            "case3",
            scale="default",
            engine="fused",
            kernel="auto",
            generations=CASE3_GENERATIONS,
            seed=seed,
        )
    result = run_experiment(config, processes=1)
    window.close()
    return _outcome(config, [_strip(r.to_dict()) for r in result.replications], window)


def mobile_approx(root: Path, seed: int, probes: Probes) -> Outcome:
    from repro.experiments.runner import run_experiment
    from repro.scenarios import load_scenario, resolve_scenario

    window = Window()
    window.open()
    with _span(probes, "scenarios.resolve"):
        payload = load_scenario(root / "scenarios" / "mobile_waypoint_approx.yaml")
        payload["overrides"] = dict(
            payload["overrides"],
            engine="fused",
            generations=MOBILE_GENERATIONS,
            seed=mobile_seed(seed),
        )
        resolved = resolve_scenario(payload)
    result = run_experiment(
        resolved.config, processes=1, shards=resolved.shards, stacked=resolved.stacked
    )
    window.close()
    return _outcome(
        resolved.config, [_strip(r.to_dict()) for r in result.replications], window
    )


def case4_service(root: Path, seed: int, probes: Probes) -> Outcome:
    from repro.scenarios import load_scenario, resolve_scenario
    from repro.service.runner import JobRunner

    payload = load_scenario(root / "scenarios" / "case4.yaml")
    payload["overrides"] = dict(
        payload["overrides"], generations=SERVICE_GENERATIONS, seed=seed
    )
    runner = JobRunner(probes.work_dir / "store")
    window = Window()
    window.open()
    record, created = runner.submit(payload)
    if not created:
        raise RuntimeError("the job was deduplicated: the store was not empty")
    runner.run_pending()
    job_id = record["job_id"]
    record = runner.store.load_record(job_id)
    if record["state"] != "done":
        raise RuntimeError(f"job {record['state']}: {record.get('error')}")
    data = runner.store.load_result(job_id)
    window.close()
    config = resolve_scenario(payload).config
    checkpoint_files = [p for p in runner.store.checkpoint_dir.rglob("*") if p.is_file()]
    return _outcome(
        config,
        [_strip(rep) for rep in data["replications"]],
        window,
        result_bytes=runner.store.result_path(job_id).stat().st_size,
        checkpoint_bytes=sum(p.stat().st_size for p in checkpoint_files),
    )


WORKLOADS: dict[str, Callable[[Path, int, Probes], Outcome]] = {
    "case3_stacked": case3_stacked,
    "case4_service": case4_service,
    "mobile_approx": mobile_approx,
}

#: workloads whose replications run in a worker pool
POOLED = {"case4_service"}


def run_to_first_seating(name: str, root: Path, seed: int, probes: Probes) -> None:
    """Run a workload until its first seating (the set-up probe)."""
    try:
        WORKLOADS[name](root, seed, probes)
    except SetupDone:
        return
    raise RuntimeError(f"{name} finished without reaching a seating")
