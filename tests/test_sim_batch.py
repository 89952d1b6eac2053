"""Unit tests specific to the batch engine (construction, guards, SoA state).

Cross-engine trajectory identity lives in ``test_engine_equivalence.py``;
here we pin the struct-of-arrays surface itself: canonical numpy state,
mirror synchronisation at tournament boundaries, plan fallbacks for oracles
without a batched draw, and the vectorized fitness expression.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategy import STRATEGY_LENGTH, Strategy
from repro.game.stats import TournamentStats
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import GameSetup, RandomPathOracle, ScriptedPathOracle
from repro.reputation.exchange import ExchangeConfig
from repro.reputation.trust import TrustTable
from repro.sim import make_engine
from repro.sim.batch import BatchEngine


class TestConstruction:
    def test_population_ids(self):
        engine = BatchEngine(8, 3)
        assert list(engine.population_ids) == list(range(8))

    def test_selfish_ids_follow_population_block(self):
        engine = BatchEngine(8, 3)
        assert engine.selfish_ids(2) == [8, 9]
        assert engine.selfish_ids(0) == []

    def test_selfish_overflow_rejected(self):
        with pytest.raises(ValueError):
            BatchEngine(8, 3).selfish_ids(4)

    def test_strategy_count_enforced(self):
        engine = BatchEngine(4, 0)
        with pytest.raises(ValueError):
            engine.set_strategies([Strategy.all_forward()])

    def test_requires_four_trust_levels(self):
        with pytest.raises(ValueError, match="4 trust levels"):
            BatchEngine(4, 0, trust_table=TrustTable(bounds=(0.5,)))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            BatchEngine(0, 1)
        with pytest.raises(ValueError):
            BatchEngine(4, -1)

    def test_factory_builds_batch(self):
        engine = make_engine("batch", 6, 2)
        assert isinstance(engine, BatchEngine)
        assert engine.name == "batch"

    def test_fast_is_an_alias_of_batch(self):
        """``fast`` names the retired flat-list engine; it now builds batch
        (bit-identical), so old configs and checkpoints still resolve."""
        from repro.sim.fast import FastEngine

        assert FastEngine is BatchEngine
        assert type(make_engine("fast", 6, 2)) is BatchEngine

    def test_factory_builds_reference(self):
        assert make_engine("reference", 4, 0).name == "reference"

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("warp", 4, 0)


class TestStructOfArrays:
    def test_strategy_matrix_shape_and_dtype(self):
        engine = BatchEngine(5, 0)
        rng = np.random.default_rng(3)
        strategies = [Strategy.random(rng) for _ in range(5)]
        engine.set_strategies(strategies)
        assert engine.strategy_matrix.shape == (5, STRATEGY_LENGTH)
        assert engine.strategy_matrix.dtype == np.int8
        for pid, strategy in enumerate(strategies):
            assert tuple(engine.strategy_matrix[pid]) == strategy.bits

    def test_canonical_state_is_dense_numpy(self):
        engine = BatchEngine(6, 2)
        m = 8
        assert engine.ps.shape == engine.pf.shape == (m, m)
        assert engine.ps.dtype == engine.pf.dtype == np.int64
        assert engine.known.shape == engine.pf_sum.shape == (m,)
        assert engine.send_pay.dtype == np.float64

    def test_state_synchronised_after_tournament(self, rng):
        engine = BatchEngine(6, 0)
        engine.set_strategies([Strategy.all_forward()] * 6)
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        engine.run_tournament(list(range(6)), 5, oracle, TournamentStats())
        # watchdog observations landed in the canonical arrays
        assert int(engine.ps.sum()) > 0
        assert np.array_equal(engine.known, (engine.ps > 0).sum(axis=1))
        assert np.array_equal(engine.pf_sum, engine.pf.sum(axis=1))
        # all-forward population: every observation is a forward
        assert np.array_equal(engine.ps, engine.pf)

    def test_reset_generation_clears_state(self, rng):
        engine = BatchEngine(6, 0)
        engine.set_strategies([Strategy.all_forward()] * 6)
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        engine.run_tournament(list(range(6)), 3, oracle, TournamentStats())
        engine.reset_generation()
        assert int(engine.ps.sum()) == 0
        assert int(engine.n_sent.sum()) == 0
        assert engine.fitness().tolist() == [0.0] * 6

    def test_payoff_matrix_layout(self, rng):
        engine = BatchEngine(5, 1)
        engine.set_strategies([Strategy.all_forward()] * 5)
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        engine.run_tournament(list(range(5)) + [5], 4, oracle, TournamentStats())
        out = engine.payoff_matrix()
        assert out.shape == (6, 6, 2)
        assert np.array_equal(out[:, :, 0], engine.ps)
        assert np.array_equal(out[:, :, 1], engine.pf)

    def test_known_matches_matrix(self, rng):
        """The running aggregates agree with the matrix, CSN rows included."""
        engine = BatchEngine(8, 2)
        engine.set_strategies(
            [Strategy.random(np.random.default_rng(1)) for _ in range(8)]
        )
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        engine.run_tournament(list(range(10)), 5, oracle, TournamentStats())
        assert np.array_equal(engine.known, (engine.ps > 0).sum(axis=1))
        assert np.array_equal(engine.pf_sum, engine.pf.sum(axis=1))


class TestGuards:
    def test_exchange_requires_rng(self, rng):
        engine = BatchEngine(6, 0)
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

    def test_exchange_enabled_widens_knowledge(self):
        """Gossip must reach the flat state: more known pairs than without."""

        def known_pairs(exchange, rng_seed=3):
            engine = BatchEngine(10, 0)
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
            return int((engine.ps > 0).sum())

        gossip = ExchangeConfig(
            enabled=True, interval=1, fanout=3, positive_only=False
        )
        assert known_pairs(gossip) > known_pairs(None)

    def test_disabled_exchange_is_fine(self, rng):
        engine = BatchEngine(6, 0)
        engine.set_strategies([Strategy.all_forward()] * 6)
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        engine.run_tournament(
            list(range(6)), 2, oracle, TournamentStats(), ExchangeConfig(), None
        )

    def test_zero_rounds_rejected(self, rng):
        engine = BatchEngine(6, 0)
        engine.set_strategies([Strategy.all_forward()] * 6)
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        with pytest.raises(ValueError):
            engine.run_tournament(
                list(range(6)), 0, oracle, TournamentStats(), None, None
            )


class TestOracleFallback:
    """Oracles without ``draw_tournament`` are pre-drawn per game."""

    def test_scripted_oracle_consumed_in_order(self):
        participants = [0, 1, 2, 3]
        setups = []
        for _ in range(2):  # two rounds
            for source in participants:
                others = [p for p in participants if p != source]
                setups.append(
                    GameSetup(
                        source=source,
                        destination=others[0],
                        paths=((others[1],),),
                    )
                )
        oracle = ScriptedPathOracle(setups)
        engine = BatchEngine(4, 0)
        engine.set_strategies([Strategy.all_forward()] * 4)
        stats = TournamentStats()
        engine.run_tournament(participants, 2, oracle, stats, None, None)
        assert oracle.remaining == 0
        assert stats.nn_originated == 8
        assert stats.cooperation_level == 1.0

    def test_scripted_oracle_source_mismatch_caught(self):
        oracle = ScriptedPathOracle(
            [GameSetup(source=99, destination=1, paths=((2,),))]
        )
        engine = BatchEngine(4, 0)
        engine.set_strategies([Strategy.all_forward()] * 4)
        with pytest.raises(AssertionError, match="source"):
            engine.run_tournament([0, 1, 2, 3], 1, oracle, TournamentStats())


class TestFitness:
    def test_zero_events_is_zero_fitness(self):
        engine = BatchEngine(4, 0)
        assert engine.fitness().tolist() == [0.0] * 4

    def test_fitness_zero_for_non_participants(self):
        engine = BatchEngine(8, 0)
        engine.set_strategies([Strategy.all_forward()] * 8)
        oracle = RandomPathOracle(np.random.default_rng(1), SHORTER_PATHS)
        engine.run_tournament(list(range(4)), 5, oracle, TournamentStats())
        fitness = engine.fitness()
        assert (fitness[:4] > 0).all()
        assert (fitness[4:] == 0).all()

    def test_fitness_matches_scalar_formula(self, rng):
        engine = BatchEngine(8, 2)
        engine.set_strategies(
            [Strategy.random(np.random.default_rng(1)) for _ in range(8)]
        )
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        engine.run_tournament(
            list(range(8)) + [8, 9], 10, oracle, TournamentStats()
        )
        out = engine.fitness()
        for pid in range(8):
            events = int(
                engine.n_sent[pid] + engine.n_fwd[pid] + engine.n_disc[pid]
            )
            total = (
                float(engine.send_pay[pid])
                + float(engine.fwd_pay_acc[pid])
                + float(engine.disc_pay_acc[pid])
            )
            expected = 0.0 if events == 0 else total / events
            assert out[pid] == expected
