"""The ``repro.sim.fast`` alias keeps the retired engine's public surface.

``FastEngine`` is ``BatchEngine`` now, but callers that import it by the old
name (the frozen benchmark's probes among them) still rely on its
constructor checks, guards and per-generation state; these tests pin that
surface through the old name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategy import Strategy
from repro.game.stats import TournamentStats
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.reputation.exchange import ExchangeConfig
from repro.reputation.trust import TrustTable
from repro.sim import make_engine
from repro.sim.fast import FastEngine


class TestConstruction:
    def test_population_ids(self):
        engine = FastEngine(8, 3)
        assert list(engine.population_ids) == list(range(8))

    def test_selfish_ids_follow_population_block(self):
        engine = FastEngine(8, 3)
        assert engine.selfish_ids(2) == [8, 9]
        assert engine.selfish_ids(0) == []

    def test_selfish_overflow_rejected(self):
        with pytest.raises(ValueError):
            FastEngine(8, 3).selfish_ids(4)

    def test_strategy_count_enforced(self):
        engine = FastEngine(4, 0)
        with pytest.raises(ValueError):
            engine.set_strategies([Strategy.all_forward()])

    def test_requires_four_trust_levels(self):
        with pytest.raises(ValueError, match="4 trust levels"):
            FastEngine(4, 0, trust_table=TrustTable(bounds=(0.5,)))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            FastEngine(0, 1)
        with pytest.raises(ValueError):
            FastEngine(4, -1)


class TestGuards:
    def test_exchange_requires_rng(self, rng):
        engine = FastEngine(6, 0)
        engine.set_strategies([Strategy.all_forward()] * 6)
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        with pytest.raises(ValueError, match="requires an rng"):
            engine.run_tournament(
                list(range(6)),
                2,
                oracle,
                TournamentStats(),
                ExchangeConfig(enabled=True),
                None,
            )

    def test_exchange_enabled_widens_knowledge(self, rng):
        """Gossip must reach the flat state: more known pairs than without."""

        def known_pairs(exchange, rng_seed=3):
            engine = FastEngine(10, 0)
            engine.set_strategies([Strategy.all_forward()] * 10)
            oracle = RandomPathOracle(np.random.default_rng(rng_seed), SHORTER_PATHS)
            engine.run_tournament(
                list(range(10)),
                1,
                oracle,
                TournamentStats(),
                exchange,
                np.random.default_rng(rng_seed + 1),
            )
            return int((np.asarray(engine.ps) > 0).sum())

        gossip = ExchangeConfig(
            enabled=True, interval=1, fanout=3, positive_only=False
        )
        assert known_pairs(gossip) > known_pairs(None)

    def test_disabled_exchange_is_fine(self, rng):
        engine = FastEngine(6, 0)
        engine.set_strategies([Strategy.all_forward()] * 6)
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        engine.run_tournament(
            list(range(6)), 2, oracle, TournamentStats(), ExchangeConfig(), None
        )

    def test_zero_rounds_rejected(self, rng):
        engine = FastEngine(6, 0)
        engine.set_strategies([Strategy.all_forward()] * 6)
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        with pytest.raises(ValueError):
            engine.run_tournament(
                list(range(6)), 0, oracle, TournamentStats(), None, None
            )


class TestState:
    def run_once(self, engine, rng_seed=3):
        oracle = RandomPathOracle(np.random.default_rng(rng_seed), SHORTER_PATHS)
        engine.run_tournament(
            list(range(engine.n_population)), 5, oracle, TournamentStats(), None, None
        )

    def test_reset_generation_clears_everything(self):
        engine = FastEngine(8, 2)
        engine.set_strategies([Strategy.all_forward()] * 8)
        self.run_once(engine)
        assert engine.payoff_matrix().sum() > 0
        engine.reset_generation()
        assert engine.payoff_matrix().sum() == 0
        assert engine.fitness().sum() == 0.0
        assert sum(engine.known) == 0
        assert sum(engine.pf_sum) == 0

    def test_known_matches_matrix(self):
        engine = FastEngine(8, 2)
        engine.set_strategies([Strategy.all_forward()] * 8)
        self.run_once(engine)
        matrix = engine.payoff_matrix()
        for observer in range(engine.m):
            assert engine.known[observer] == int((matrix[observer, :, 0] > 0).sum())
            assert engine.pf_sum[observer] == int(matrix[observer, :, 1].sum())

    def test_fitness_zero_for_non_participants(self):
        engine = FastEngine(8, 0)
        engine.set_strategies([Strategy.all_forward()] * 8)
        oracle = RandomPathOracle(np.random.default_rng(1), SHORTER_PATHS)
        engine.run_tournament(list(range(4)), 5, oracle, TournamentStats(), None, None)
        fitness = engine.fitness()
        assert (fitness[:4] > 0).all()
        assert (fitness[4:] == 0).all()


class TestFactory:
    def test_make_engine_names(self):
        # "fast" is an alias: it builds a batch engine, which names itself
        assert make_engine("fast", 4, 0).name == "batch"
        assert make_engine("reference", 4, 0).name == "reference"
        assert make_engine("fused", 4, 0).name == "fused"

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("warp", 4, 0)
