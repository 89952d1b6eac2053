"""Reference simulation engine: the auditable object-oriented implementation.

Wraps :class:`~repro.core.node.Player` objects behind the
:class:`~repro.tournament.evaluation.SimulationEngine` protocol so the
generic evaluation loop can drive it.  This engine favours clarity over raw
speed; use :class:`repro.sim.batch.BatchEngine` (the default) for large
sweeps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.node import ConstantlySelfishPlayer, NormalPlayer, Player
from repro.core.payoff import PayoffConfig
from repro.core.strategy import Strategy
from repro.game.stats import TournamentStats
from repro.paths.oracle import PathOracle
from repro.reputation.activity import ActivityClassifier
from repro.reputation.exchange import ExchangeConfig
from repro.reputation.trust import TrustTable
from repro.telemetry.runtime import get_telemetry
from repro.tournament.runner import run_tournament

__all__ = ["ReferenceEngine"]


class ReferenceEngine:
    """Simulation engine over :class:`Player` objects."""

    name = "reference"

    def __init__(
        self,
        n_population: int,
        max_selfish: int,
        trust_table: TrustTable | None = None,
        activity: ActivityClassifier | None = None,
        payoffs: PayoffConfig | None = None,
    ):
        if n_population < 1:
            raise ValueError(f"population must be >= 1, got {n_population}")
        if max_selfish < 0:
            raise ValueError(f"max_selfish must be >= 0, got {max_selfish}")
        self.n_population = n_population
        self.max_selfish = max_selfish
        self.trust_table = trust_table or TrustTable()
        self.activity = activity or ActivityClassifier()
        self.payoffs = payoffs or PayoffConfig()
        # Normal players get a placeholder strategy until set_strategies();
        # CSN ids follow the population block: N .. N + max_selfish - 1.
        self.players: dict[int, Player] = {
            pid: NormalPlayer(pid, Strategy.all_forward())
            for pid in range(n_population)
        }
        for k in range(max_selfish):
            pid = n_population + k
            self.players[pid] = ConstantlySelfishPlayer(pid)

    # -- SimulationEngine protocol ------------------------------------------

    @property
    def population_ids(self) -> Sequence[int]:
        return range(self.n_population)

    def selfish_ids(self, n: int) -> list[int]:
        if n > self.max_selfish:
            raise ValueError(
                f"environment needs {n} CSN, engine allocated {self.max_selfish}"
            )
        return [self.n_population + k for k in range(n)]

    def set_strategies(self, strategies: Sequence[Strategy]) -> None:
        """Install the generation's strategies into the normal players."""
        if len(strategies) != self.n_population:
            raise ValueError(
                f"expected {self.n_population} strategies, got {len(strategies)}"
            )
        for pid, strategy in enumerate(strategies):
            player = self.players[pid]
            assert isinstance(player, NormalPlayer)
            player.strategy = strategy

    def reset_generation(self) -> None:
        for player in self.players.values():
            player.reset_memory()
            player.reset_payoffs()

    def run_tournament(
        self,
        participants: Sequence[int],
        rounds: int,
        oracle: PathOracle,
        stats: TournamentStats,
        exchange: ExchangeConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        run_tournament(
            self.players,
            participants,
            rounds,
            oracle,
            self.trust_table,
            self.activity,
            self.payoffs,
            stats=stats,
            exchange=exchange,
            rng=rng,
        )
        # telemetry seam: the object-model runner stays untouched; counts
        # are derivable from the call signature alone
        tel = get_telemetry()
        if tel.enabled:
            tel.count("engine.tournaments")
            tel.count("engine.rounds", rounds)
            tel.count("engine.games", rounds * len(participants))

    def fitness(self) -> np.ndarray:
        return np.array(
            [self.players[pid].payoffs.fitness for pid in range(self.n_population)],
            dtype=float,
        )

    # -- introspection (tests, analysis) --------------------------------------

    def player(self, pid: int) -> Player:
        """Access a player object by id."""
        return self.players[pid]

    def payoff_matrix(self) -> np.ndarray:
        """(ps, pf) reputation state as a dense ``(M, M, 2)`` array.

        Row = observer, column = subject.  Used by the engine-equivalence
        tests to compare against the batch engine's native matrices.
        """
        m = self.n_population + self.max_selfish
        out = np.zeros((m, m, 2), dtype=np.int64)
        for pid, player in self.players.items():
            for subject, (ps, pf) in player.reputation.snapshot().items():
                out[pid, subject, 0] = ps
                out[pid, subject, 1] = pf
        return out
