"""Probes the benchmark installs around the program's public functions.

Nothing here edits the program.  Each probe replaces one module or class
attribute for the life of one benchmark child process, and calls through to
the original:

* the **seating probe** (every mode) wraps ``iter_seatings`` where the
  replication drivers look it up.  It stamps the first seating (the end of
  set-up), digests the generator state at that point (a determinism check),
  and counts the tournaments each seating pass draws (the game-conservation
  check).  In set-up mode it stops the run at the first seating.
* the **task probe** (every mode, pool workloads) wraps the runner's
  per-replication task, so a forked pool worker writes what its probes saw
  to a file when each task ends.
* the **layer timers** (traced mode only) time calls into each layer with a
  stack, so every layer's *self* time excludes the layers it calls and the
  self times add up to the time the outermost calls cover.

Worker processes are forked with the probes already installed, and they
find the active :class:`Probes` through the module-level ``_ACTIVE``: a
task function must be importable by name to reach a worker.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable

_ACTIVE: "Probes | None" = None


class SetupDone(BaseException):
    """Raised at the first seating by a set-up probe run.

    A ``BaseException``, so the job runner's ``except Exception`` does not
    turn it into a failed job and it reaches the benchmark.
    """


class Tracer:
    """Stack-based span timing: self seconds per layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.first_start: dict[str, float] = {}
        self._stack: list[list] = []

    def enter(self, layer: str) -> float:
        self._stack.append([layer, 0.0])
        t0 = perf_counter()
        self.first_start.setdefault(layer, t0)
        return t0

    def exit(self, t0: float) -> None:
        elapsed = perf_counter() - t0
        layer, child_s = self._stack.pop()
        self.self_s[layer] += elapsed - child_s
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextmanager
    def span(self, layer: str):
        t0 = self.enter(layer)
        try:
            yield
        finally:
            self.exit(t0)

    def transfer(self, parent: str, child: str, seconds: float) -> None:
        """Move ``seconds`` a foreign timer measured inside ``parent``'s
        self time to ``child``."""
        if seconds:
            self.self_s[parent] -= seconds
            self.self_s[child] += seconds

    def to_dict(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "first_start": dict(self.first_start),
        }


def rng_digest(rng) -> str:
    return hashlib.sha256(repr(rng.bit_generator.state).encode()).hexdigest()[:16]


class Probes:
    """What one benchmark child process observes of the program."""

    def __init__(self, work_dir: Path, *, traced: bool, setup_only: bool) -> None:
        self.work_dir = Path(work_dir)
        self.setup_only = setup_only
        self.tracer: Tracer | None = Tracer() if traced else None
        self.parent_pid = os.getpid()
        self.seatings: list[tuple[int, int]] = []
        self.stamps: list[tuple[float, str]] = []
        self.oracles: list = []
        self.original_task: Callable | None = None
        self.experiment_telemetry: dict | None = None

    # -- seating probe ---------------------------------------------------------

    def first_seating(self, rng) -> None:
        if not self.stamps:
            self.stamps.append((perf_counter(), rng_digest(rng)))
            if self.setup_only:
                raise SetupDone()

    # -- pool workers ----------------------------------------------------------

    def begin_task(self) -> float:
        self.seatings = []
        self.stamps = []
        if self.tracer is not None:
            self.tracer = Tracer()
        return perf_counter()

    def dump_task(self, t0: float) -> None:
        record = {
            "t0": t0,
            "t1": perf_counter(),
            "seatings": self.seatings,
            "stamps": self.stamps,
            "trace": self.tracer.to_dict() if self.tracer is not None else None,
        }
        path = self.work_dir / f"task-{os.getpid()}-{t0!r}.json"
        path.write_text(json.dumps(record))

    def task_records(self) -> list[dict]:
        return [
            json.loads(p.read_text()) for p in sorted(self.work_dir.glob("task-*.json"))
        ]


def activate(probes: Probes) -> None:
    global _ACTIVE
    _ACTIVE = probes


def task_probe(args):
    """The runner's per-replication task, reporting from pool workers."""
    probes = _ACTIVE
    if os.getpid() == probes.parent_pid:
        return probes.original_task(args)  # serial pool: already in-process
    t0 = probes.begin_task()
    try:
        return probes.original_task(args)
    finally:
        probes.dump_task(t0)


def _seating_probe(original):
    @functools.wraps(original)
    def iter_seatings(population_ids, seats, plays_required, rng):
        probes = _ACTIVE
        probes.first_seating(rng)
        tracer = probes.tracer
        inner = original(population_ids, seats, plays_required, rng)
        drawn = 0
        while True:
            t0 = tracer.enter("tournament.seating") if tracer is not None else 0.0
            try:
                seating = next(inner, None)
            finally:
                if tracer is not None:
                    tracer.exit(t0)
            if seating is None:
                break
            drawn += 1
            yield seating
        probes.seatings.append((seats, drawn))

    return iter_seatings


def install_common(probes: Probes) -> None:
    """The probes every mode needs: seatings, and pool-task reporting."""
    import repro.experiments.replication as replication
    import repro.experiments.runner as runner
    import repro.tournament.evaluation as evaluation

    activate(probes)
    for module in (replication, evaluation):
        module.iter_seatings = _seating_probe(module.iter_seatings)
    probes.original_task = runner._task
    runner._task = task_probe


# -- layer timers (traced mode) --------------------------------------------------


def _timed(owner, attr: str, layer: str, after: Callable | None = None) -> None:
    """Replace ``owner.attr`` with a call that runs under the ``layer`` span;
    ``after(result, args)`` may record counts from the call."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        tracer = _ACTIVE.tracer
        t0 = tracer.enter(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit(t0)
        if after is not None:
            after(result, args)
        return result

    setattr(owner, attr, functools.update_wrapper(timed, original, updated=()))


def _captured(oracle, args) -> None:
    _ACTIVE.oracles.append(oracle)


def _drew(result, args) -> None:
    _ACTIVE.tracer.counts["paths.draws"] += 1


def _plan_probe(original):
    """``plan_generation_arrays``: a ``paths.plan`` span whose topology
    steps and route searches (timed by the oracle's own counters) move to
    ``mobility.step`` and ``network.route``."""

    @functools.wraps(original)
    def plan_generation_arrays(oracle, *args, **kwargs):
        tracer = _ACTIVE.tracer
        provider = getattr(oracle, "provider", None)
        step0 = getattr(oracle, "step_s", 0.0)
        search0 = getattr(provider, "search_s", 0.0)
        t0 = tracer.enter("paths.plan")
        try:
            plan = original(oracle, *args, **kwargs)
        finally:
            tracer.exit(t0)
        tracer.transfer("paths.plan", "mobility.step", getattr(oracle, "step_s", 0.0) - step0)
        tracer.transfer(
            "paths.plan", "network.route", getattr(provider, "search_s", 0.0) - search0
        )
        tracer.counts["paths.draws"] += plan.n_games
        return plan

    return plan_generation_arrays


def install_layer_timers() -> None:
    """Time the calls into each layer (see the layer table in README.md)."""
    import repro.experiments.replication as replication
    import repro.sim.fused as fused
    from repro.experiments.checkpoint import CheckpointStore
    from repro.ga.evolution import GeneticAlgorithm
    from repro.ga.history import History
    from repro.paths.oracle import RandomPathOracle
    from repro.sim.fast import FastEngine
    from repro.sim.fused import FusedEngine
    from repro.sim.stacked import StackedFusedEngine

    # set-up
    _timed(replication, "make_engine", "sim.engine_init")
    _timed(StackedFusedEngine, "__init__", "sim.engine_init")
    _timed(replication, "build_oracle", "paths.oracle_init", _captured)
    _timed(replication, "RandomPathOracle", "paths.oracle_init", _captured)
    _timed(GeneticAlgorithm, "initial_population", "ga.init")
    # draw planning
    replication.plan_generation_arrays = _plan_probe(replication.plan_generation_arrays)
    fused.plan_generation_arrays = _plan_probe(fused.plan_generation_arrays)
    _timed(replication, "stack_replication_plans", "paths.stack")
    _timed(RandomPathOracle, "draw", "paths.plan", _drew)
    # the round pass
    _timed(StackedFusedEngine, "run_generation_stacked", "sim.run")
    _timed(FusedEngine, "run_generation", "sim.run")
    _timed(FastEngine, "run_tournament", "sim.run")
    # statistics fold
    _timed(StackedFusedEngine, "_fold_tournament", "sim.fold.tournament")
    _timed(FusedEngine, "_fold_tournament", "sim.fold.tournament")
    _timed(StackedFusedEngine, "fitness_tensor", "sim.fold")
    _timed(FusedEngine, "fitness", "sim.fold")
    _timed(FastEngine, "fitness", "sim.fold")
    _timed(History, "append", "sim.fold")
    # GA step
    _timed(replication, "next_generation_tensor", "ga.step")
    _timed(GeneticAlgorithm, "next_generation", "ga.step")
    _timed(GeneticAlgorithm, "next_generation_vectorized", "ga.step")
    # I/O
    _timed(CheckpointStore, "save", "checkpoint.save")


def install_service_timers() -> None:
    """The service-side layers of a job-runner workload."""
    import repro.experiments.runner as runner
    import repro.service.runner as service

    _timed(service.JobRunner, "submit", "service.submit")
    _timed(service.JobRunner, "run_pending", "service.run")
    _timed(service, "resolve_scenario", "scenarios.resolve")
    _timed(runner, "run_experiment", "experiments.run", _kept_result)


def _kept_result(result, args) -> None:
    _ACTIVE.experiment_telemetry = result.telemetry
