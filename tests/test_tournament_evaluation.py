"""Unit tests for the multi-environment evaluation scheme (§4.4, Fig. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.strategy import Strategy
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.sim.reference import ReferenceEngine
from repro.tournament.environment import TournamentEnvironment
from repro.tournament.evaluation import evaluate_generation


def make_engine(n_pop=12, max_csn=4):
    engine = ReferenceEngine(n_pop, max_csn)
    engine.set_strategies([Strategy.all_forward() for _ in range(n_pop)])
    return engine


def run_eval(engine, envs, rounds=5, L=1, seed=0, oracle_seed=1):
    oracle = RandomPathOracle(np.random.default_rng(oracle_seed), SHORTER_PATHS)
    return evaluate_generation(
        engine,
        envs,
        rounds=rounds,
        plays_per_environment=L,
        oracle=oracle,
        rng=np.random.default_rng(seed),
    )


class TestStructure:
    def test_per_environment_stats_keys(self):
        envs = [
            TournamentEnvironment("A", 8, 0),
            TournamentEnvironment("B", 8, 2),
        ]
        result = run_eval(make_engine(), envs)
        assert set(result.per_environment) == {"A", "B"}

    def test_overall_is_merge_of_envs(self):
        envs = [
            TournamentEnvironment("A", 8, 0),
            TournamentEnvironment("B", 8, 2),
        ]
        result = run_eval(make_engine(), envs)
        total = sum(s.nn_originated for s in result.per_environment.values())
        assert result.overall.nn_originated == total

    def test_game_counts_follow_seatings(self):
        """12 players, 6 normal seats, L=1 -> 2 seatings x rounds x size games."""
        env = TournamentEnvironment("A", 8, 2)  # 6 normal + 2 CSN
        result = run_eval(make_engine(), [env], rounds=5)
        stats = result.per_environment["A"]
        assert stats.nn_originated == 2 * 5 * 6
        assert stats.csn_originated == 2 * 5 * 2

    def test_fitness_vector_covers_population(self):
        result = run_eval(make_engine(12), [TournamentEnvironment("A", 8, 2)])
        assert result.fitness.shape == (12,)
        assert (result.fitness > 0).all()  # everyone played and earned payoffs

    def test_memory_cleared_between_generations(self):
        engine = make_engine()
        env = TournamentEnvironment("A", 8, 0)
        run_eval(engine, [env])
        first = engine.player(0).payoffs.n_events
        run_eval(engine, [env])
        # payoffs were reset, so event counts do not accumulate
        assert engine.player(0).payoffs.n_events == first

    def test_no_environment_rejected(self):
        with pytest.raises(ValueError):
            run_eval(make_engine(), [])

    def test_oversized_environment_rejected(self):
        env = TournamentEnvironment("huge", 20, 2)  # needs 18 normals, have 12
        with pytest.raises(ValueError, match="needs 18"):
            run_eval(make_engine(12), [env])

    def test_cooperation_level_property(self):
        result = run_eval(make_engine(), [TournamentEnvironment("A", 8, 0)])
        assert result.cooperation_level == result.overall.cooperation_level
        assert result.cooperation_level == 1.0  # all-forward population


class TestCsnEffects:
    def test_csn_lower_cooperation(self):
        clean = run_eval(make_engine(), [TournamentEnvironment("A", 8, 0)], rounds=10)
        dirty = run_eval(
            make_engine(), [TournamentEnvironment("B", 8, 4)], rounds=10
        )
        assert dirty.overall.cooperation_level < clean.overall.cooperation_level

    def test_csn_requests_tracked(self):
        result = run_eval(make_engine(), [TournamentEnvironment("B", 8, 4)], rounds=10)
        stats = result.per_environment["B"]
        assert stats.requests_from_csn.total > 0
        assert stats.requests_from_nn.rejected_by_csn > 0


class TestDeterminism:
    def test_same_seeds_same_result(self):
        envs = [TournamentEnvironment("A", 8, 2)]
        r1 = run_eval(make_engine(), envs, seed=7, oracle_seed=8)
        r2 = run_eval(make_engine(), envs, seed=7, oracle_seed=8)
        assert np.array_equal(r1.fitness, r2.fitness)
        assert r1.overall.to_dict() == r2.overall.to_dict()

    def test_different_seeds_differ(self):
        envs = [TournamentEnvironment("A", 8, 2)]
        r1 = run_eval(make_engine(), envs, seed=7, oracle_seed=8)
        r2 = run_eval(make_engine(), envs, seed=9, oracle_seed=10)
        assert r1.overall.to_dict() != r2.overall.to_dict()


class TestFusedDispatch:
    """evaluate_generation hands a fusing engine the whole generation at
    once; the structural workload and hook clocking must match the
    per-tournament path exactly (the outcome stream is gated separately in
    ``tests/test_engine_statistical.py``)."""

    @staticmethod
    def make_fused(n_pop=12, max_csn=4):
        from repro.sim import make_engine as build_sim_engine

        engine = build_sim_engine("fused", n_pop, max_csn)
        engine.set_strategies([Strategy.all_forward() for _ in range(n_pop)])
        return engine

    def test_dispatches_through_run_generation(self):
        # run_generation is the one-member run_stack; evaluation calls the
        # stack entry for every stack width
        calls = []
        engine = self.make_fused()
        original = engine.run_stack

        def spy(seatings, rounds, *args, **kwargs):
            assert len(seatings) == 1  # one member
            calls.append((len(seatings[0]), rounds))
            return original(seatings, rounds, *args, **kwargs)

        engine.run_stack = spy
        envs = [
            TournamentEnvironment("A", 8, 2),
            TournamentEnvironment("B", 8, 0),
        ]
        run_eval(engine, envs, rounds=4)
        # one stacked call per environment, each carrying both seatings
        assert calls == [(2, 4), (2, 4)]

    def test_game_counts_match_per_tournament_path(self):
        """Without exchange the seating draws are identical on both paths,
        so the structural workload (originated counts) is equal."""
        env = TournamentEnvironment("A", 8, 2)
        fused = run_eval(self.make_fused(), [env], rounds=5)
        plain = run_eval(make_engine(), [env], rounds=5)
        f, p = fused.per_environment["A"], plain.per_environment["A"]
        assert f.nn_originated == p.nn_originated == 2 * 5 * 6
        assert f.csn_originated == p.csn_originated == 2 * 5 * 2
        assert fused.fitness.shape == plain.fitness.shape == (12,)
        assert (fused.fitness > 0).all()

    def test_engine_owns_tournament_hook_on_fused_path(self):
        class ClockedOracle(RandomPathOracle):
            def __init__(self, rng):
                super().__init__(rng, SHORTER_PATHS)
                self.tournament_ends = 0

            def on_tournament_end(self):
                self.tournament_ends += 1

        engine = self.make_fused()
        oracle = ClockedOracle(np.random.default_rng(1))
        envs = [
            TournamentEnvironment("A", 8, 2),
            TournamentEnvironment("B", 8, 0),
        ]
        evaluate_generation(
            engine,
            envs,
            rounds=3,
            plays_per_environment=1,
            oracle=oracle,
            rng=np.random.default_rng(0),
        )
        # fused or not, the clock ticks once per tournament: 2 envs x 2
        # seatings each (12 players, 6/8 normal seats, L=1)
        assert oracle.tournament_ends == 4

    def test_per_env_stats_stay_separate(self):
        envs = [
            TournamentEnvironment("A", 8, 0),
            TournamentEnvironment("B", 8, 4),
        ]
        result = run_eval(self.make_fused(), envs, rounds=6)
        assert set(result.per_environment) == {"A", "B"}
        total = sum(
            s.nn_originated + s.csn_originated
            for s in result.per_environment.values()
        )
        assert total == result.overall.nn_originated + result.overall.csn_originated
        # env B hosts the selfish seats; env A stays fully cooperative
        assert result.per_environment["A"].csn_originated == 0
        assert result.per_environment["B"].csn_originated > 0
