"""Multi-environment strategy evaluation (§4.4, Fig. 3).

One *generation* of evaluation runs the population through a series of
tournament environments: reputation memory is cleared once up front, then for
each environment the seating scheduler repeatedly draws ``P_i`` normal
players (until everyone played ``L`` times) who sit together with that
environment's ``S_i`` constantly selfish nodes; each seating is a full
``R``-round tournament.  Payoffs accumulate across every tournament a player
sat in; fitness is Eq. (1) over those totals.

The function is engine-agnostic: any object satisfying
:class:`SimulationEngine` works (the reference engine over ``Player``
objects, or the struct-of-arrays batch engine).
All randomness — seating draws, participant shuffles, oracle draws — is
consumed in an engine-independent order, which is what makes the engines
bit-identical under a shared seed.  The one exception is an engine that
advertises ``supports_generation_fusion`` (the fused engine): it receives
all of an environment's seatings at once, so the seating/shuffle draws are
batched ahead of the oracle draws — a stream reordering covered by that
engine's statistical contract.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.game.stats import TournamentStats
from repro.paths.oracle import PathOracle
from repro.reputation.exchange import ExchangeConfig
from repro.telemetry.runtime import get_telemetry
from repro.tournament.environment import TournamentEnvironment
from repro.tournament.scheduler import iter_seatings

__all__ = [
    "SimulationEngine",
    "EvaluationResult",
    "draw_seatings",
    "evaluate_generation",
    "evaluate_stack",
]


class SimulationEngine(Protocol):
    """What :func:`evaluate_generation` needs from a simulation engine.

    A non-fusing engine plays one tournament at a time through
    ``run_tournament``.  An engine that sets ``supports_generation_fusion``
    provides ``run_stack`` in its place (all of an environment's seatings
    for every stack member at once) and ``fitness_tensor`` (one fitness
    row per member).
    """

    @property
    def population_ids(self) -> Sequence[int]:
        """Ids of the normal (evolving) players."""
        ...

    def selfish_ids(self, n: int) -> list[int]:
        """Ids of the first ``n`` constantly selfish nodes."""
        ...

    def reset_generation(self) -> None:
        """Clear reputation memory and payoff accumulators (Step 1)."""
        ...

    def run_tournament(
        self,
        participants: Sequence[int],
        rounds: int,
        oracle: PathOracle,
        stats: TournamentStats,
        exchange: ExchangeConfig | None,
        rng: np.random.Generator | None,
    ) -> None:
        """Run one tournament among ``participants``, updating ``stats``
        (non-fusing engines only)."""
        ...

    def fitness(self) -> np.ndarray:
        """Eq. (1) fitness for every population member, aligned with ids."""
        ...


@dataclass
class EvaluationResult:
    """Outcome of evaluating one generation."""

    fitness: np.ndarray
    per_environment: dict[str, TournamentStats]
    overall: TournamentStats

    @property
    def cooperation_level(self) -> float:
        """Generation-wide cooperation level (the Fig. 4 series value)."""
        return self.overall.cooperation_level


def draw_seatings(
    population: Sequence[int],
    csn: list[int],
    n_normal: int,
    plays_per_environment: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """All of one environment's seatings up front, each joined by the
    environment's CSN and shuffled — the batched seating and shuffle draws
    a generation-fusing engine consumes."""
    seatings = []
    for seating in iter_seatings(population, n_normal, plays_per_environment, rng):
        participants = seating + csn
        order = rng.permutation(len(participants))
        seatings.append([participants[int(i)] for i in order])
    return seatings


def evaluate_generation(
    engine: SimulationEngine,
    environments: Sequence[TournamentEnvironment],
    rounds: int,
    plays_per_environment: int,
    oracle: PathOracle,
    rng: np.random.Generator,
    exchange: ExchangeConfig | None = None,
) -> EvaluationResult:
    """Evaluate the engine's current population across ``environments``:
    the one-member :func:`evaluate_stack`."""
    return evaluate_stack(
        engine, environments, rounds, plays_per_environment, [oracle], [rng], exchange
    )[0]


def evaluate_stack(
    engine: SimulationEngine,
    environments: Sequence[TournamentEnvironment],
    rounds: int,
    plays_per_environment: int,
    oracles: Sequence[PathOracle],
    rngs: Sequence[np.random.Generator],
    exchange: ExchangeConfig | None = None,
) -> list[EvaluationResult]:
    """Evaluate each stack member's current population across
    ``environments``; member ``r`` draws from ``oracles[r]`` and
    ``rngs[r]`` and gets result ``r``.  A generation-fusing engine
    evaluates all members at once (``FusedEngine(n_replications=W)``);
    every other engine evaluates exactly one."""
    if not environments:
        raise ValueError("need at least one tournament environment")
    # a fusing engine takes all of an environment's seatings at once (one
    # stacked plan, one slate kernel per round); the seating and shuffle
    # draws are then batched up front, a stream reordering of the same
    # distributions — part of the fused engine's statistical contract
    fused = getattr(engine, "supports_generation_fusion", False)
    if not fused and len(oracles) != 1:
        raise ValueError(
            f"engine {type(engine).__name__} evaluates one member,"
            f" got {len(oracles)}"
        )
    engine.reset_generation()
    population = list(engine.population_ids)
    per_env: list[dict[str, TournamentStats]] = [{} for _ in oracles]
    overall = [TournamentStats() for _ in oracles]
    # the per-tournament path (below) evaluates one member; mobility-aware
    # oracles advance the topology between tournaments when clocked
    # per-tournament; oracles without the hook are left alone
    oracle, rng = oracles[0], rngs[0]
    on_tournament_end = getattr(oracle, "on_tournament_end", None)
    # telemetry seam: one enabled check per generation
    tel = get_telemetry()
    if not tel.enabled:
        tel = None
    gen_span = tel.span("generation") if tel is not None else None
    if gen_span is not None:
        gen_span.__enter__()

    for env in environments:
        if env.n_normal > len(population):
            raise ValueError(
                f"{env.name} needs {env.n_normal} normal players,"
                f" population has {len(population)}"
            )
        csn = engine.selfish_ids(env.n_selfish)
        env_stats = [TournamentStats() for _ in oracles]
        if fused:
            # the engine owns the per-tournament clocking hook on this path
            # (it must fire between tournament *plans*, which the engine
            # interleaves); spans stay at generation granularity
            seatings = [
                draw_seatings(population, csn, env.n_normal, plays_per_environment, r)
                for r in rngs
            ]
            engine.run_stack(seatings, rounds, oracles, env_stats, exchange, rngs)
        else:
            for seating in iter_seatings(
                population, env.n_normal, plays_per_environment, rng
            ):
                participants = seating + csn
                # Shuffle so CSN are interleaved in the per-round source
                # order rather than always acting last.
                order = rng.permutation(len(participants))
                participants = [participants[int(i)] for i in order]
                stats = TournamentStats()
                with tel.span("tournament") if tel is not None else nullcontext():
                    engine.run_tournament(
                        participants, rounds, oracle, stats, exchange, rng
                    )
                env_stats[0].merge(stats)
                if on_tournament_end is not None:
                    on_tournament_end()
        for member, stats in enumerate(env_stats):
            per_env[member][env.name] = stats
            overall[member].merge(stats)

    if gen_span is not None:
        gen_span.__exit__(None, None, None)
    if tel is not None:
        tel.count("evaluation.generations", len(oracles))
        # ground truth for the engine.games reconciliation: every game is
        # counted exactly once as NN- or CSN-originated by the stats layer
        tel.count(
            "evaluation.games",
            sum(o.nn_originated + o.csn_originated for o in overall),
        )

    fitness = engine.fitness_tensor() if fused else [engine.fitness()]
    return [
        EvaluationResult(fitness=f, per_environment=p, overall=o)
        for f, p, o in zip(fitness, per_env, overall)
    ]

