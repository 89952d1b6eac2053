"""One independent replication: random initial strategies evolved for G
generations, with full per-generation bookkeeping.

A replication is a pure function of ``(config, replication_index)``: its
generator is derived from the master seed and the index via
``SeedSequence(seed, spawn_key=(index,))``, so results do not depend on
worker count or execution order (see :mod:`repro.parallel`).

With a ``checkpoint_dir``, the replication snapshots its complete state at
every generation boundary (population, rng, oracle, history, last
generation's statistics, telemetry registry) through
:class:`repro.experiments.checkpoint.CheckpointStore`, and — unless
``resume=False`` — continues from the newest intact checkpoint instead of
generation 0.  A resumed run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

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
from repro.paths.vector import plan_generation_arrays, stack_replication_plans
from repro.reputation.activity import ActivityClassifier
from repro.reputation.trust import TrustTable
from repro.sim import make_engine
from repro.sim.fused import FusedEngine
from repro.telemetry.harvest import harvest_oracle
from repro.telemetry.manifest import config_hash
from repro.telemetry.runtime import get_telemetry, telemetry_session
from repro.tournament.evaluation import draw_seatings, evaluate_generation
# not called here (draw_seatings draws through evaluation's import); kept
# because perfbench's seating probe patches this module attribute
from repro.tournament.scheduler import iter_seatings  # noqa: F401
from repro.utils.rng import derive_generator

__all__ = [
    "ReplicationResult",
    "run_replication",
    "run_replications_stacked",
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
    #: telemetry export for this replication (``None`` unless the config
    #: enabled telemetry): ``{"metrics": ..., "events": ...,
    #: "dropped_events": ..., "wall_s": ...}`` — picklable, so workers ship
    #: it back to the parent for experiment-wide aggregation
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
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
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
            telemetry=data.get("telemetry"),
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
    """Run one full replication of ``config``.

    The population is evaluated ``config.generations`` times with
    ``config.generations - 1`` GA steps in between, so the reported final
    statistics and final population describe the same (last evaluated)
    generation.

    With a ``checkpoint_dir``, state is persisted every ``checkpoint_every``
    generation boundaries (the final boundary always, so a finished run can
    be reconstituted without re-simulation); ``resume=True`` continues from
    the newest intact checkpoint.  Resumed trajectories are bit-identical to
    uninterrupted ones.

    With telemetry enabled in the config, the replication runs inside its
    own :func:`telemetry_session` (each worker process records
    independently), harvests the oracle stack's layer counters at the end,
    and ships the picklable export on ``result.telemetry``.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if not config.telemetry.enabled:
        result, _oracle = _run_replication(
            config, replication, checkpoint_dir, checkpoint_every, resume
        )
        return result
    t0 = perf_counter()
    with telemetry_session(config.telemetry) as tel:
        result, oracle = _run_replication(
            config, replication, checkpoint_dir, checkpoint_every, resume
        )
        harvest_oracle(tel, oracle)
        export = tel.export()
    export["wall_s"] = perf_counter() - t0
    result.telemetry = export
    return result


def _run_replication(
    config: ExperimentConfig,
    replication: int,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 1,
    resume: bool = True,
) -> tuple[ReplicationResult, PathOracle]:
    store = (
        CheckpointStore(checkpoint_dir) if checkpoint_dir is not None else None
    )
    restored = (
        store.load_latest(config, replication)
        if store is not None and resume
        else None
    )
    sim = config.sim
    trust_table = TrustTable(bounds=sim.trust_bounds)
    activity = ActivityClassifier(band=sim.activity_band)
    engine = make_engine(
        config.engine,
        n_population=config.ga.population_size,
        max_selfish=config.case.max_selfish,
        trust_table=trust_table,
        activity=activity,
        payoffs=sim.payoffs,
        kernel=config.kernel,
    )
    ga = GeneticAlgorithm(config.ga)
    # the fused engine pairs with the phase-vectorized GA step — same
    # statistical contract, gated together in the equivalence tier; every
    # other engine keeps the scalar, stream-pinned loop
    vector_ga = getattr(engine, "supports_generation_fusion", False)
    tel = get_telemetry()
    if not tel.enabled:
        tel = None

    last_per_env: dict[str, TournamentStats] | None = None
    last_overall: TournamentStats | None = None
    if restored is not None:
        # the single-blob pickle preserved the rng/oracle object sharing, so
        # the restored pair consumes the random stream exactly as the
        # original would have
        state = restored.state
        rng = state["rng"]
        oracle: PathOracle = state["oracle"]
        population = state["population"]
        history: History = state["history"]
        last_per_env = state["last_per_env"]
        last_overall = state["last_overall"]
        start_generation = restored.generation + 1
        if tel is not None and state.get("telemetry_metrics"):
            # carry the interrupted run's counters so the resumed session
            # reports whole-logical-run totals (oracle-layer counters ride
            # inside the pickled oracle and are harvested once, at the end)
            tel.registry.merge(state["telemetry_metrics"])
            tel.count("checkpoint.resumes")
    else:
        rng, oracle, population = _start_replication(config, replication, ga)
        history = History()
        start_generation = 0

    checkpoints_written = 0
    for generation in range(start_generation, config.generations):
        strategies = [Strategy(bits) for bits in population]
        engine.set_strategies(strategies)
        result = evaluate_generation(
            engine,
            config.case.environments,
            rounds=sim.rounds,
            plays_per_environment=sim.plays_per_environment,
            oracle=oracle,
            rng=rng,
            exchange=sim.exchange,
        )
        history.append(
            _generation_record(
                generation,
                result.per_environment,
                result.overall,
                result.fitness,
                strategies,
            )
        )
        last_per_env = result.per_environment
        last_overall = result.overall
        if generation < config.generations - 1:
            population = (
                ga.next_generation_vectorized(population, result.fitness, rng)
                if vector_ga
                else ga.next_generation(population, result.fitness, rng)
            )
        if store is not None and (
            (generation + 1) % checkpoint_every == 0
            or generation == config.generations - 1
        ):
            store.save(
                config,
                replication,
                generation,
                {
                    "population": population,
                    "rng": rng,
                    "oracle": oracle,
                    "history": history,
                    "last_per_env": last_per_env,
                    "last_overall": last_overall,
                    "telemetry_metrics": (
                        tel.snapshot() if tel is not None else None
                    ),
                },
            )
            checkpoints_written += 1
            if tel is not None:
                tel.count("checkpoint.saves")

    assert last_per_env is not None and last_overall is not None
    result = ReplicationResult(
        replication=replication,
        history=history,
        final_population=[Strategy(bits).to_int() for bits in population],
        final_per_env=last_per_env,
        final_overall=last_overall,
    )
    if store is not None:
        result.checkpoint = {
            "config_hash": config_hash(config.describe()),
            "resumed_from_generation": (
                restored.generation if restored is not None else None
            ),
            "checkpoints_written": checkpoints_written,
        }
    return result, oracle


# -- cross-replication stacked evaluation -------------------------------------


def stacked_unsupported_reason(
    config: ExperimentConfig,
    *,
    processes: int | None = None,
    shards: int | None = None,
    checkpoint_dir: str | Path | None = None,
) -> str | None:
    """Why this run cannot take the stacked path (``None`` when it can).

    The stacked path evaluates all replications as one in-process
    block-diagonal pass (``FusedEngine(n_replications=R)``), so
    it requires a generation-fusing engine and is incompatible with
    per-replication execution machinery: worker pools, shards, checkpoints,
    per-replication telemetry sessions, and the reputation exchange (which
    already forces the fused engine back to per-tournament execution).
    """
    from repro.sim import ENGINES

    cls = ENGINES[config.engine]
    if not getattr(cls, "supports_generation_fusion", False):
        return (
            f"engine {config.engine!r} does not fuse generations"
            " (stacking requires --engine fused)"
        )
    if config.replications < 2:
        return "stacking needs at least 2 replications"
    if config.sim.exchange.enabled:
        return (
            "the reputation exchange interleaves gossip with each"
            " tournament's round stream, which stacking cannot reorder"
        )
    if config.telemetry.enabled:
        return (
            "per-replication telemetry sessions cannot share one stacked"
            " engine"
        )
    if processes not in (None, 1):
        return "stacked evaluation runs in-process (processes=1)"
    if shards is not None:
        return "sharded dispatch is per-replication"
    if checkpoint_dir is not None:
        return "checkpointing snapshots per-replication state"
    return None


def run_replications_stacked(config: ExperimentConfig) -> list[ReplicationResult]:
    """Run *every* replication of ``config`` as one stacked evaluation.

    Per-replication results are **bit-identical** to the sequential path
    (``run_replication(config, r)`` for each ``r`` with the fused engine):
    each replication keeps its own generator (``derive_generator(seed,
    (r,))``), oracle, population and statistics counters, consumed in
    exactly the sequential construction order — only the game *execution*
    is merged, through block-diagonal engine state that provably cannot
    couple replications (see :mod:`repro.sim.fused` and
    ``tests/test_sim_stacked.py``).  Stacking amortizes the per-round
    vectorized pass's fixed numpy dispatch cost over ``R`` replications'
    slates at once.
    """
    reason = stacked_unsupported_reason(config)
    if reason is not None:
        raise ValueError(f"config cannot run stacked: {reason}")

    sim = config.sim
    n_rep = config.replications
    pop_size = config.ga.population_size
    engine = FusedEngine(
        n_population=pop_size,
        max_selfish=config.case.max_selfish,
        trust_table=TrustTable(bounds=sim.trust_bounds),
        activity=ActivityClassifier(band=sim.activity_band),
        payoffs=sim.payoffs,
        kernel=config.kernel,
        n_replications=n_rep,
    )
    ga = GeneticAlgorithm(config.ga)
    rngs, oracles, populations = zip(
        *(_start_replication(config, r, ga) for r in range(n_rep))
    )
    populations = np.array(populations, dtype=np.int8)
    histories = [History() for _ in range(n_rep)]
    population_ids = list(range(pop_size))

    for generation in range(config.generations):
        engine.set_strategies_tensor(populations)
        engine.reset_generation()
        per_env: list[dict[str, TournamentStats]] = [{} for _ in range(n_rep)]
        overall = [TournamentStats() for _ in range(n_rep)]
        for env in config.case.environments:
            if env.n_normal > pop_size:
                raise ValueError(
                    f"{env.name} needs {env.n_normal} normal players,"
                    f" population has {pop_size}"
                )
            csn = engine.selfish_ids(env.n_selfish)
            plans = []
            for rng, oracle in zip(rngs, oracles):
                seatings = draw_seatings(
                    population_ids, csn, env.n_normal, sim.plays_per_environment, rng
                )
                with FusedEngine.route_sharing(oracle):
                    plans.append(
                        plan_generation_arrays(
                            oracle,
                            seatings,
                            sim.rounds,
                            on_tournament_end=getattr(
                                oracle, "on_tournament_end", None
                            ),
                        )
                    )
            env_stats = [TournamentStats() for _ in range(n_rep)]
            engine.run_generation_stacked(
                stack_replication_plans(plans, sim.rounds, engine.block),
                sim.rounds,
                len(seatings),
                len(seatings[0]),
                env_stats,
            )
            for r in range(n_rep):
                per_env[r][env.name] = env_stats[r]
                overall[r].merge(env_stats[r])

        fitness = engine.fitness_tensor()
        for r in range(n_rep):
            strategies = [
                Strategy(tuple(int(b) for b in row)) for row in populations[r]
            ]
            histories[r].append(
                _generation_record(
                    generation, per_env[r], overall[r], fitness[r], strategies
                )
            )
        if generation < config.generations - 1:
            populations = next_generation_tensor(
                populations, fitness, config.ga, rngs
            )

    return [
        ReplicationResult(
            replication=r,
            history=histories[r],
            final_population=[
                Strategy(tuple(int(b) for b in row)).to_int()
                for row in populations[r]
            ],
            final_per_env=per_env[r],
            final_overall=overall[r],
        )
        for r in range(n_rep)
    ]
