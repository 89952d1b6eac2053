"""Replications, run as stacks of ``W`` members through one generation loop.

A replication is a pure function of ``(config, replication_index)``: its
generator is derived from the master seed and the index via
``SeedSequence(seed, spawn_key=(index,))``, so results do not depend on
worker count, execution order or which replications share a stack (see
:mod:`repro.parallel`).

:func:`run_stack` is the only unit of execution.  Its members keep their
own generator, oracle, population and statistics; a generation-fusing
engine evaluates all of them as one block-diagonal pass
(``FusedEngine(n_replications=W)``), bit-identical, member by member, to
running each alone.  Every other engine, the reputation exchange and
checkpointing run stacks of one (:func:`stacked_unsupported_reason`).
:func:`run_replication` is the ``W = 1`` call.

With a ``checkpoint_dir``, the loop snapshots each member's complete state
at every generation boundary (population, rng, oracle, history, last
generation's statistics, telemetry registry) through
:class:`repro.experiments.checkpoint.CheckpointStore`, and — unless
``resume=False`` — continues from the newest intact checkpoint instead of
generation 0.  A resumed run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.core.strategy import STRATEGY_LENGTH, Strategy
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.config import ExperimentConfig
from repro.game.stats import TournamentStats
from repro.ga.evolution import GeneticAlgorithm
from repro.ga.history import GenerationRecord, History
from repro.ga.vector import next_generation_tensor
from repro.mobility import build_oracle
from repro.paths.distributions import HOP_MODES
from repro.paths.oracle import PathOracle, RandomPathOracle
# not called here (FusedEngine.run_stack plans and stacks, and seatings are
# drawn through evaluation's import); kept because perfbench's probes patch
# these module attributes
from repro.paths.vector import plan_generation_arrays, stack_replication_plans  # noqa: F401
from repro.reputation.activity import ActivityClassifier
from repro.reputation.trust import TrustTable
from repro.sim import make_engine
from repro.telemetry.harvest import harvest_oracle
from repro.telemetry.manifest import config_hash
from repro.telemetry.runtime import get_telemetry, telemetry_session
from repro.tournament.evaluation import evaluate_stack
from repro.tournament.scheduler import iter_seatings  # noqa: F401  (probed, as above)
from repro.utils.rng import derive_generator

__all__ = [
    "ReplicationResult",
    "run_replication",
    "run_stack",
    "stacked_unsupported_reason",
]


@dataclass
class ReplicationResult:
    """Everything recorded about one replication."""

    replication: int
    history: History
    final_population: list[int]  # strategies of the last *evaluated* generation
    final_per_env: dict[str, TournamentStats]  # last generation's stats
    final_overall: TournamentStats
    #: telemetry export of a :func:`run_replication` call (``None`` unless
    #: the config enabled telemetry): ``{"metrics": ..., "events": ...,
    #: "dropped_events": ..., "wall_s": ...}``; the runner ships one export
    #: per stack instead.  Not serialized: :meth:`to_dict` writes results
    #: and checkpoint provenance only
    telemetry: dict | None = field(default=None, compare=False)
    #: checkpoint provenance (``None`` unless the run had a checkpoint_dir):
    #: ``{"config_hash": ..., "resumed_from_generation": int|None,
    #: "checkpoints_written": int}`` — excluded from equality so a resumed
    #: run compares equal to the uninterrupted run it must match
    checkpoint: dict | None = field(default=None, compare=False)

    def final_strategies(self) -> list[Strategy]:
        """The last evaluated population as :class:`Strategy` objects."""
        return [Strategy.from_int(v) for v in self.final_population]

    def to_dict(self) -> dict:
        data = {
            "replication": self.replication,
            "history": self.history.to_dict(),
            "final_population": list(self.final_population),
            "final_per_env": {
                name: stats.to_dict() for name, stats in self.final_per_env.items()
            },
            "final_overall": self.final_overall.to_dict(),
        }
        if self.checkpoint is not None:
            data["checkpoint"] = self.checkpoint
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ReplicationResult":
        return cls(
            replication=int(data["replication"]),
            history=History.from_dict(data["history"]),
            final_population=[int(v) for v in data["final_population"]],
            final_per_env={
                name: TournamentStats.from_dict(stats)
                for name, stats in data["final_per_env"].items()
            },
            final_overall=TournamentStats.from_dict(data["final_overall"]),
            checkpoint=data.get("checkpoint"),
        )


def _start_replication(
    config: ExperimentConfig, replication: int, ga: GeneticAlgorithm
) -> tuple[np.random.Generator, PathOracle, list]:
    """A fresh replication's generator, oracle and initial population —
    the oracle first, then the population, from its own stream."""
    sim = config.sim
    rng = derive_generator(config.seed, (replication,))
    if sim.mobility.enabled:
        # a moving unit-disk network over every node that can ever play
        node_ids = list(range(config.ga.population_size + config.case.max_selfish))
        oracle = build_oracle(sim.mobility, node_ids, rng)
    else:
        oracle = RandomPathOracle(rng, HOP_MODES[sim.path_mode])
    return rng, oracle, ga.initial_population(STRATEGY_LENGTH, rng)


def _generation_record(
    generation: int,
    per_env: dict[str, TournamentStats],
    overall: TournamentStats,
    fitness: np.ndarray,
    strategies: list[Strategy],
) -> GenerationRecord:
    """One evaluated generation's history entry."""
    return GenerationRecord(
        generation=generation,
        cooperation=overall.cooperation_level,
        cooperation_per_env={
            name: stats.cooperation_level for name, stats in per_env.items()
        },
        mean_fitness=float(np.mean(fitness)),
        best_fitness=float(np.max(fitness)),
        mean_forwarding_fraction=float(
            np.mean([s.forwarding_fraction() for s in strategies])
        ),
    )


def run_replication(
    config: ExperimentConfig,
    replication: int,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = True,
) -> ReplicationResult:
    """Run one full replication of ``config``: a stack of one
    (:func:`run_stack`), with the stack's telemetry export (``None``
    unless the config enables telemetry) on ``result.telemetry``."""
    (result,), export = run_stack(
        config, [replication], checkpoint_dir, checkpoint_every, resume
    )
    result.telemetry = export
    return result


def stacked_unsupported_reason(
    config: ExperimentConfig,
    *,
    checkpoint_dir: str | Path | None = None,
) -> str | None:
    """Why this run's replications cannot share a stack (``None`` when
    they can).

    A stack of more than one member is one block-diagonal pass
    (``FusedEngine(n_replications=W)``), so it needs a generation-fusing
    engine and no reputation exchange (which forces the fused engine back
    to per-tournament execution); and checkpoints snapshot one
    replication.  Telemetry, shards and the worker pool do not matter: a
    stack records one telemetry session and is one pool task.
    """
    from repro.sim import ENGINES

    cls = ENGINES[config.engine]
    if not getattr(cls, "supports_generation_fusion", False):
        return (
            f"engine {config.engine!r} does not fuse generations"
            " (stacking requires --engine fused)"
        )
    if config.sim.exchange.enabled:
        return (
            "the reputation exchange interleaves gossip with each"
            " tournament's round stream, which stacking cannot reorder"
        )
    if checkpoint_dir is not None:
        return "checkpointing snapshots per-replication state"
    return None


def run_stack(
    config: ExperimentConfig,
    replications: Sequence[int],
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = True,
) -> tuple[list[ReplicationResult], dict | None]:
    """Run the given replications of ``config`` as one stack.

    The population is evaluated ``config.generations`` times with
    ``config.generations - 1`` GA steps in between, so the reported final
    statistics and final population describe the same (last evaluated)
    generation.

    With a ``checkpoint_dir`` (stacks of one only), state is persisted
    every ``checkpoint_every`` generation boundaries (the final boundary
    always, so a finished run can be reconstituted without re-simulation);
    ``resume=True`` continues from the newest intact checkpoint.  Resumed
    trajectories are bit-identical to uninterrupted ones.

    Returns the members' results, in ``replications`` order, and the
    stack's telemetry export: ``None`` unless the config enables
    telemetry, else one picklable ``{"metrics", "events",
    "dropped_events", "wall_s"}`` from one session around the whole stack,
    with every member's oracle layer counters harvested into it.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    replications = list(replications)
    if not replications:
        raise ValueError("a stack needs at least one replication")
    if len(replications) > 1:
        reason = stacked_unsupported_reason(config, checkpoint_dir=checkpoint_dir)
        if reason is not None:
            raise ValueError(f"replications cannot share a stack: {reason}")
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
    if not config.telemetry.enabled:
        return _generation_loop(config, replications, store, checkpoint_every, resume), None
    t0 = perf_counter()
    with telemetry_session(config.telemetry) as tel:
        results = _generation_loop(config, replications, store, checkpoint_every, resume)
        export = tel.export()
    export["wall_s"] = perf_counter() - t0
    return results, export


def _generation_loop(
    config: ExperimentConfig,
    replications: list[int],
    store: CheckpointStore | None,
    checkpoint_every: int,
    resume: bool,
) -> list[ReplicationResult]:
    """The one generation loop: start or restore every member, then per
    generation evaluate, record, step the GA and checkpoint."""
    sim = config.sim
    width = len(replications)
    engine = make_engine(
        config.engine,
        n_population=config.ga.population_size,
        max_selfish=config.case.max_selfish,
        trust_table=TrustTable(bounds=sim.trust_bounds),
        activity=ActivityClassifier(band=sim.activity_band),
        payoffs=sim.payoffs,
        n_replications=width,
    )
    ga = GeneticAlgorithm(config.ga)
    # the fused engine pairs with the phase-vectorized GA step — same
    # statistical contract, gated together in the equivalence tier; every
    # other engine keeps the scalar, stream-pinned loop
    fuses = getattr(engine, "supports_generation_fusion", False)
    tel = get_telemetry()
    if not tel.enabled:
        tel = None

    # each member's state is its checkpoint payload: population, rng,
    # oracle, history and the last generation's statistics
    states: list[dict] = []
    restored_from: list[int | None] = []
    for replication in replications:
        restored = (
            store.load_latest(config, replication)
            if store is not None and resume
            else None
        )
        if restored is None:
            rng, oracle, population = _start_replication(config, replication, ga)
            states.append(
                {"population": population, "rng": rng, "oracle": oracle,
                 "history": History()}
            )
            restored_from.append(None)
            continue
        # the single-blob pickle preserved the rng/oracle object sharing, so
        # the restored pair consumes the random stream exactly as the
        # original would have
        states.append(restored.state)
        restored_from.append(restored.generation)
        if tel is not None and restored.state.get("telemetry_metrics"):
            # carry the interrupted run's counters so the resumed session
            # reports whole-logical-run totals (oracle-layer counters ride
            # inside the pickled oracle and are harvested once, at the end)
            tel.registry.merge(restored.state["telemetry_metrics"])
            tel.count("checkpoint.resumes")
    # (W, P, L) bits; a stack's members share a start (checkpointed stacks
    # have one member)
    populations = np.array([state["population"] for state in states], dtype=np.int8)
    rngs = [state["rng"] for state in states]
    start_generation = 0 if restored_from[0] is None else restored_from[0] + 1

    checkpoints_written = 0
    for generation in range(start_generation, config.generations):
        bits = [[tuple(row) for row in pop] for pop in populations.tolist()]
        strategies = [[Strategy(b) for b in pop] for pop in bits]
        if fuses:
            engine.set_strategies_tensor(populations)
        else:
            engine.set_strategies(strategies[0])
        results = evaluate_stack(
            engine,
            config.case.environments,
            rounds=sim.rounds,
            plays_per_environment=sim.plays_per_environment,
            oracles=[state["oracle"] for state in states],
            rngs=rngs,
            exchange=sim.exchange,
        )
        for state, result, member_strategies in zip(states, results, strategies):
            state["history"].append(
                _generation_record(
                    generation,
                    result.per_environment,
                    result.overall,
                    result.fitness,
                    member_strategies,
                )
            )
            state["last_per_env"] = result.per_environment
            state["last_overall"] = result.overall
        if generation < config.generations - 1:
            if fuses:
                t0 = perf_counter()
                populations = next_generation_tensor(
                    populations,
                    np.array([result.fitness for result in results]),
                    config.ga,
                    rngs,
                )
                if tel is not None:
                    tel.timer_add("ga.vector_step_s", perf_counter() - t0)
                    tel.count("ga.generations", width)
            else:
                populations = np.array(
                    [ga.next_generation(bits[0], results[0].fitness, rngs[0])],
                    dtype=np.int8,
                )
        for state, pop in zip(states, populations.tolist()):
            state["population"] = [tuple(row) for row in pop]
        if store is not None and (
            (generation + 1) % checkpoint_every == 0
            or generation == config.generations - 1
        ):
            for replication, state in zip(replications, states):
                state["telemetry_metrics"] = tel.snapshot() if tel is not None else None
                store.save(config, replication, generation, state)
                if tel is not None:
                    tel.count("checkpoint.saves")
            checkpoints_written += 1

    if config.telemetry.enabled:
        for state in states:
            harvest_oracle(tel, state["oracle"])
    results = []
    for replication, state, resumed in zip(replications, states, restored_from):
        result = ReplicationResult(
            replication=replication,
            history=state["history"],
            final_population=[Strategy(bits).to_int() for bits in state["population"]],
            final_per_env=state["last_per_env"],
            final_overall=state["last_overall"],
        )
        if store is not None:
            result.checkpoint = {
                "config_hash": config_hash(config.describe()),
                "resumed_from_generation": resumed,
                "checkpoints_written": checkpoints_written,
            }
        results.append(result)
    return results
