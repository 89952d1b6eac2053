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
running each alone.  Every other engine runs stacks of one
(:func:`stacked_unsupported_reason`).
:func:`run_replication` is the ``W = 1`` call.

With a ``checkpoint_dir``, the loop snapshots each member's complete state
at every generation boundary (population, rng, oracle, history, last
generation's statistics; the stack's telemetry registry on its first
member) through :class:`repro.experiments.checkpoint.CheckpointStore`, and
— unless ``resume=False`` — continues each member from its own newest
intact checkpoint instead of generation 0.  A resumed run is bit-identical
to an uninterrupted one, whatever the stack widths of either.
"""

from __future__ import annotations

from contextlib import nullcontext
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
from repro.paths.oracle import RandomPathOracle
# not called here (FusedEngine.run_stack plans and stacks, and seatings are
# drawn through evaluation's import); kept because perfbench's probes patch
# these module attributes
from repro.paths.vector import plan_generation_arrays, stack_replication_plans  # noqa: F401
from repro.reputation.activity import ActivityClassifier
from repro.reputation.trust import TrustTable
from repro.sim import make_engine
from repro.telemetry.harvest import harvest_oracle
from repro.telemetry.manifest import config_hash
from repro.telemetry.runtime import Telemetry, get_telemetry, telemetry_session
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


@dataclass
class _Member:
    """One stack member's replication index and checkpoint payload
    (population, rng, oracle, history and, once evaluated, the last
    generation's statistics); ``resumed_from`` is the restored generation,
    ``counted_through`` the last one a restored snapshot already counts."""

    replication: int
    state: dict
    resumed_from: int | None
    counted_through: int = -1


def _member(
    config: ExperimentConfig,
    replication: int,
    ga: GeneticAlgorithm,
    store: CheckpointStore | None,
) -> _Member:
    """The member restored from its newest intact checkpoint in ``store``,
    else a fresh start: the oracle first, then the population, from the
    replication's own stream."""
    restored = store.load_latest(config, replication) if store is not None else None
    if restored is not None:
        # the single-blob pickle preserved the rng/oracle object sharing, so
        # the restored pair consumes the random stream exactly as the
        # original would have
        return _Member(replication, restored.state, restored.generation)
    sim = config.sim
    rng = derive_generator(config.seed, (replication,))
    if sim.mobility.enabled:
        # a moving unit-disk network over every node that can ever play
        node_ids = list(range(config.ga.population_size + config.case.max_selfish))
        oracle = build_oracle(sim.mobility, node_ids, rng)
    else:
        oracle = RandomPathOracle(rng, HOP_MODES[sim.path_mode])
    state = {
        "population": ga.initial_population(STRATEGY_LENGTH, rng),
        "rng": rng,
        "oracle": oracle,
        "history": History(),
    }
    return _Member(replication, state, None)


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


def stacked_unsupported_reason(config: ExperimentConfig) -> str | None:
    """Why this config's replications cannot share a stack (``None`` when
    they can).

    A stack of more than one member is one block-diagonal pass
    (``FusedEngine(n_replications=W)``), so it needs a generation-fusing
    engine.  Nothing else matters: a stack records one telemetry session,
    is one pool task whatever the shard count, and checkpoints each
    member's own state.
    """
    from repro.sim import ENGINES

    cls = ENGINES[config.engine]
    if not getattr(cls, "supports_generation_fusion", False):
        return (
            f"engine {config.engine!r} does not fuse generations"
            " (stacking requires --engine fused)"
        )
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

    With a ``checkpoint_dir``, every member's state is persisted every
    ``checkpoint_every`` generation boundaries (the final boundary always,
    so a finished run can be reconstituted without re-simulation), and the
    stack's telemetry snapshot rides on its first member only.
    ``resume=True`` continues each member from its own newest intact
    checkpoint: members restored at different generations (a crash
    between two members' saves of one boundary) run as sub-stacks, one per
    restored generation, in turn.  Stacked results equal sequential ones,
    so resumed trajectories are bit-identical to uninterrupted ones at any
    width.  Members that lag their stack's snapshot re-run what it counts
    unrecorded, so resumed telemetry totals equal uninterrupted ones.

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
        reason = stacked_unsupported_reason(config)
        if reason is not None:
            raise ValueError(f"replications cannot share a stack: {reason}")
    store = CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
    ga = GeneticAlgorithm(config.ga)
    members = [
        _member(config, replication, ga, store if resume else None)
        for replication in replications
    ]
    traced = config.telemetry.enabled
    # a member's work is counted by the snapshot of its carrier, the first
    # member of the stack that saved it; a crash between two members' saves
    # leaves the carrier a boundary ahead, counting the others' next
    # generation.  The carrier may resume in another stack: read the store
    carriers: dict[int, dict] = {}
    substacks: dict[tuple[int | None, int], list[_Member]] = {}
    for member in members:
        carrier = member.state.get("telemetry_carrier")
        if traced and member.resumed_from is not None:
            if carrier is not None and carrier not in carriers:
                checkpoint = store.load_latest(config, carrier)
                carriers[carrier] = checkpoint.state if checkpoint else {}
            covers = carriers.get(carrier, {}).get("telemetry_covers") or {}
            member.counted_through = covers.get(member.replication, -1)
        key = (member.resumed_from, member.counted_through)
        substacks.setdefault(key, []).append(member)

    results: list[ReplicationResult] = []
    t0 = perf_counter()
    tel = Telemetry(config.telemetry) if traced else None
    for members in substacks.values():
        # a sub-stack records its own session, so the snapshot its first
        # member checkpoints counts that sub-stack's work once
        with telemetry_session(config.telemetry) if traced else nullcontext() as sub:
            results += _generation_loop(config, members, ga, store, checkpoint_every)
        if traced:
            tel.absorb(sub.export())
    export = {**tel.export(), "wall_s": perf_counter() - t0} if traced else None
    results.sort(key=lambda result: replications.index(result.replication))
    return results, export


def _generation_loop(
    config: ExperimentConfig,
    members: list[_Member],
    ga: GeneticAlgorithm,
    store: CheckpointStore | None,
    checkpoint_every: int,
) -> list[ReplicationResult]:
    """The one generation loop over members that share a start: per
    generation evaluate, record, step the GA and checkpoint."""
    sim = config.sim
    width = len(members)
    engine = make_engine(
        config.engine,
        n_population=config.ga.population_size,
        max_selfish=config.case.max_selfish,
        trust_table=TrustTable(bounds=sim.trust_bounds),
        activity=ActivityClassifier(band=sim.activity_band),
        payoffs=sim.payoffs,
        n_replications=width,
    )
    # the fused engine pairs with the phase-vectorized GA step — same
    # statistical contract, gated together in the equivalence tier; every
    # other engine keeps the scalar, stream-pinned loop
    fuses = getattr(engine, "supports_generation_fusion", False)
    live = get_telemetry()
    if not live.enabled:
        live = None

    states = [member.state for member in members]
    resumed_from = members[0].resumed_from
    # what this session's snapshot counts: replication -> last generation
    covers: dict[int, int] = {}
    if live is not None and resumed_from is not None:
        for state in states:
            # carry the interrupted run's counters so the resumed session
            # reports whole-logical-run totals (oracle-layer counters ride
            # inside the pickled oracle and are harvested once, at the end)
            if state.get("telemetry_metrics"):
                live.registry.merge(state["telemetry_metrics"])
                for rep, gen in (state.get("telemetry_covers") or {}).items():
                    covers[rep] = max(covers.get(rep, -1), gen)
            live.count("checkpoint.resumes")
    # (W, P, L) bits
    populations = np.array([state["population"] for state in states], dtype=np.int8)
    rngs = [state["rng"] for state in states]
    start_generation = 0 if resumed_from is None else resumed_from + 1

    checkpoints_written = 0
    for generation in range(start_generation, config.generations):
        # a generation a restored snapshot already counts re-runs into a
        # dropped session
        recount = live is not None and generation <= members[0].counted_through
        tel = None if recount else live
        with telemetry_session(config.telemetry) if recount else nullcontext():
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
            if tel is not None:
                # before the snapshot, which must hold this boundary's saves
                tel.count("checkpoint.saves", width)
                covers.update((m.replication, generation) for m in members)
            traced = live is not None
            for member, state in zip(members, states):
                # the snapshot rides on the first member (the carrier), so a
                # resume at any width merges it once; what it counts rides on
                # all, as the carrier may be a later stack's non-first member
                carried = traced and member is members[0]
                state["telemetry_metrics"] = live.snapshot() if carried else None
                state["telemetry_covers"] = dict(covers) if traced else None
                state["telemetry_carrier"] = members[0].replication if traced else None
                store.save(config, member.replication, generation, state)
            checkpoints_written += 1

    if live is not None:
        for state in states:
            harvest_oracle(live, state["oracle"])
    results = []
    for member, state in zip(members, states):
        result = ReplicationResult(
            replication=member.replication,
            history=state["history"],
            final_population=[Strategy(bits).to_int() for bits in state["population"]],
            final_per_env=state["last_per_env"],
            final_overall=state["last_overall"],
        )
        if store is not None:
            result.checkpoint = {
                "config_hash": config_hash(config.describe()),
                "resumed_from_generation": member.resumed_from,
                "checkpoints_written": checkpoints_written,
            }
        results.append(result)
    return results

