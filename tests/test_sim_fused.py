"""Unit tests for the generation-fused engine's mechanics.

What's pinned here is the engine's own contract — conservation over the
stacked pass, the reputation invariants, the exchange fallback's
bit-identity to the sequential turbo loop, hook clocking, route-policy
scoping, and the speculation bookkeeping (replays + second-chance pass).
Distributional correctness against the exact engines lives in
``tests/test_engine_statistical.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.mobility import MobilityConfig
from repro.core.strategy import Strategy
from repro.game.stats import TournamentStats
from repro.mobility import build_oracle
from repro.network.provider import ApproxPolicy
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.reputation.exchange import ExchangeConfig
from repro.sim import BIT_IDENTICAL_ENGINES, ENGINES, make_engine
from repro.sim.fused import FusedEngine
from repro.sim.turbo import TurboEngine
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.runtime import telemetry_session


def build_engine(n_pop=16, n_csn=4, seed=7, name="fused"):
    rng = np.random.default_rng(seed)
    engine = make_engine(name, n_pop, n_csn)
    engine.set_strategies([Strategy.random(rng) for _ in range(n_pop)])
    return engine


def make_seatings(engine, n_tournaments, seed=3):
    rng = np.random.default_rng(seed)
    n_pop, n_csn = engine.n_population, engine.max_selfish
    return [
        [int(v) for v in rng.permutation(n_pop)] + engine.selfish_ids(n_csn)
        for _ in range(n_tournaments)
    ]


def run_generation(engine, n_tournaments=6, rounds=10, seed=3, oracle_seed=5):
    seatings = make_seatings(engine, n_tournaments, seed)
    oracle = RandomPathOracle(np.random.default_rng(oracle_seed), SHORTER_PATHS)
    stats = TournamentStats()
    engine.reset_generation()
    engine.run_generation(seatings, rounds, oracle, stats)
    return stats, seatings


class CountingOracle(RandomPathOracle):
    """A random oracle with the per-tournament clock hook instrumented."""

    def __init__(self, rng):
        super().__init__(rng, SHORTER_PATHS)
        self.tournament_ends = 0

    def on_tournament_end(self):
        self.tournament_ends += 1


class TestConstruction:
    def test_registered(self):
        assert ENGINES["fused"] is FusedEngine
        assert FusedEngine.name == "fused"
        assert issubclass(FusedEngine, TurboEngine)
        assert "fused" not in BIT_IDENTICAL_ENGINES

    def test_generation_fusion_flag(self):
        # evaluate_generation dispatches on this flag; only fused sets it
        assert FusedEngine.supports_generation_fusion is True
        for name in sorted(ENGINES):
            if name != "fused":
                assert not getattr(
                    ENGINES[name], "supports_generation_fusion", False
                )


class TestValidation:
    def test_rounds_must_be_positive(self):
        engine = build_engine()
        oracle = RandomPathOracle(np.random.default_rng(0), SHORTER_PATHS)
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            engine.run_generation([[0, 1, 2]], 0, oracle, TournamentStats())

    def test_needs_at_least_one_seating(self):
        engine = build_engine()
        oracle = RandomPathOracle(np.random.default_rng(0), SHORTER_PATHS)
        with pytest.raises(ValueError, match="at least one seating"):
            engine.run_generation([], 4, oracle, TournamentStats())

    def test_unequal_seating_sizes_rejected(self):
        engine = build_engine()
        oracle = RandomPathOracle(np.random.default_rng(0), SHORTER_PATHS)
        with pytest.raises(ValueError, match="same size"):
            engine.run_generation(
                [[0, 1, 2, 3], [0, 1, 2]], 4, oracle, TournamentStats()
            )

    def test_exchange_requires_rng(self):
        engine = build_engine()
        oracle = RandomPathOracle(np.random.default_rng(0), SHORTER_PATHS)
        with pytest.raises(ValueError, match="requires an rng"):
            engine.run_generation(
                [[0, 1, 2]],
                4,
                oracle,
                TournamentStats(),
                ExchangeConfig(enabled=True),
            )


class TestStackedPass:
    def test_conservation_and_invariants(self):
        engine = build_engine()
        rounds, n_t = 12, 8
        stats, seatings = run_generation(engine, n_t, rounds)
        n_seats = len(seatings[0])
        assert (
            stats.nn_originated + stats.csn_originated == rounds * n_t * n_seats
        )
        assert stats.nn_delivered <= stats.nn_originated
        assert stats.csn_delivered <= stats.csn_originated
        # reputation invariants across the whole stack
        assert (engine.pf <= engine.ps).all()
        assert np.array_equal(engine.known, (engine.ps > 0).sum(axis=1))
        assert np.array_equal(engine.pf_sum, engine.pf.sum(axis=1))
        assert int(engine.n_sent.sum()) == rounds * n_t * n_seats

    def test_speculation_bookkeeping(self):
        # at this density conflicts do happen; most resolve in the
        # vectorized second-chance pass, the twice-conflicted rest replays
        # through the scalar kernel — both counters reset per generation
        engine = build_engine()
        run_generation(engine, n_tournaments=10, rounds=20)
        assert engine._second_chance_games + engine._replayed_games > 0
        engine2 = build_engine()
        run_generation(engine2, n_tournaments=10, rounds=20)
        assert engine2._second_chance_games == engine._second_chance_games
        assert engine2._replayed_games == engine._replayed_games

    def test_matches_sequential_turbo_workload(self):
        """Fused and per-tournament turbo play the same structural workload
        (same games, same path-choice counts); outcome totals differ only
        within the statistical contract."""
        fused = build_engine(name="fused")
        turbo = build_engine(name="turbo")
        f_stats, seatings = run_generation(fused, n_tournaments=5, rounds=8)
        oracle = RandomPathOracle(np.random.default_rng(5), SHORTER_PATHS)
        t_stats = TournamentStats()
        turbo.reset_generation()
        for seating in seatings:
            turbo.run_tournament(seating, 8, oracle, t_stats, None, None)
        f, t = f_stats.to_dict(), t_stats.to_dict()
        assert f["nn_originated"] == t["nn_originated"]
        assert f["csn_originated"] == t["csn_originated"]
        assert f["nn_paths_chosen"] == t["nn_paths_chosen"]
        assert f["csn_paths_chosen"] == t["csn_paths_chosen"]

    def test_tournament_hook_fires_once_per_seating(self):
        engine = build_engine()
        oracle = CountingOracle(np.random.default_rng(2))
        seatings = make_seatings(engine, 7)
        engine.reset_generation()
        engine.run_generation(seatings, 3, oracle, TournamentStats())
        assert oracle.tournament_ends == 7

    def test_telemetry_counters(self):
        engine = build_engine()
        with telemetry_session(TelemetryConfig(enabled=True)) as tel:
            run_generation(engine, n_tournaments=6, rounds=10)
            counters = tel.snapshot()["counters"]
        n_seats = engine.n_population + engine.max_selfish
        assert counters["engine.fused.env_passes"] == 1
        assert "engine.fused.generations" not in counters
        assert counters["engine.fused.stacked_tournaments"] == 6
        assert counters["engine.fused.games"] == 10 * 6 * n_seats
        assert counters["engine.games"] == 10 * 6 * n_seats
        assert counters["engine.tournaments"] == 6
        assert (
            counters.get("engine.fused.second_chance_games", 0)
            == engine._second_chance_games
        )
        assert (
            counters.get("engine.turbo.replayed_games", 0)
            == engine._replayed_games
        )


class TestExchangeFallback:
    def test_exchange_falls_back_bit_identical_to_turbo_loop(self):
        fused = build_engine(name="fused")
        turbo = build_engine(name="turbo")
        seatings = make_seatings(fused, 4)
        config = ExchangeConfig(enabled=True, interval=3, fanout=2)

        f_stats = TournamentStats()
        fused.reset_generation()
        fused.run_generation(
            seatings,
            9,
            RandomPathOracle(np.random.default_rng(5), SHORTER_PATHS),
            f_stats,
            config,
            np.random.default_rng(17),
        )

        t_stats = TournamentStats()
        turbo.reset_generation()
        oracle = RandomPathOracle(np.random.default_rng(5), SHORTER_PATHS)
        rng = np.random.default_rng(17)
        for seating in seatings:
            turbo.run_tournament(seating, 9, oracle, t_stats, config, rng)

        assert f_stats.to_dict() == t_stats.to_dict()
        assert np.array_equal(fused.payoff_matrix(), turbo.payoff_matrix())
        assert np.array_equal(fused.fitness(), turbo.fitness())

    def test_fallback_counts_in_telemetry_and_fires_hooks(self):
        engine = build_engine()
        oracle = CountingOracle(np.random.default_rng(2))
        seatings = make_seatings(engine, 3)
        with telemetry_session(TelemetryConfig(enabled=True)) as tel:
            engine.reset_generation()
            engine.run_generation(
                seatings,
                4,
                oracle,
                TournamentStats(),
                ExchangeConfig(enabled=True, interval=2, fanout=1),
                np.random.default_rng(0),
            )
            counters = tel.snapshot()["counters"]
        assert counters["engine.fused.fallback_tournaments"] == 3
        assert "engine.fused.env_passes" not in counters
        assert oracle.tournament_ends == 3


def make_mobile_oracle(seed=1, policy="exact", n=20):
    config = MobilityConfig(
        model="waypoint", radio_range=0.5, route_cache=policy
    )
    return build_oracle(config, range(n), np.random.default_rng(seed))


class TestRoutePolicyScoping:
    def test_swap_and_restore_around_planning(self):
        oracle = make_mobile_oracle()
        before = oracle.provider.policy
        assert before.budget == 0
        engine = build_engine()
        seatings = make_seatings(engine, 3)
        engine.reset_generation()
        engine.run_generation(seatings, 4, oracle, TournamentStats())
        # the generation-scoped share policy never leaks out of planning
        assert oracle.provider.policy is before

    def test_share_is_noop_for_approx_and_static_oracles(self):
        approx = make_mobile_oracle(policy="approx")
        before = approx.provider.policy
        assert before.budget > 0
        with FusedEngine.route_sharing(approx):
            assert approx.provider.policy is before
        assert approx.provider.policy is before
        random_oracle = RandomPathOracle(
            np.random.default_rng(0), SHORTER_PATHS
        )
        with FusedEngine.route_sharing(random_oracle):
            pass

    def test_share_swaps_exact_to_zero_budget_revalidation(self):
        oracle = make_mobile_oracle()
        previous = oracle.provider.policy
        assert previous.name == "exact"
        with FusedEngine.route_sharing(oracle):
            assert isinstance(oracle.provider.policy, ApproxPolicy)
            assert oracle.provider.policy.budget == 0
            assert oracle.provider._revalidate is True
        assert oracle.provider.policy is previous
        assert oracle.provider._revalidate is False

    def test_policy_restored_when_planning_raises(self, monkeypatch):
        import repro.sim.fused as fused_mod

        oracle = make_mobile_oracle()
        before = oracle.provider.policy

        def boom(*args, **kwargs):
            raise RuntimeError("planner exploded")

        monkeypatch.setattr(fused_mod, "plan_generation_arrays", boom)
        engine = build_engine()
        seatings = make_seatings(engine, 2)
        with pytest.raises(RuntimeError, match="planner exploded"):
            engine.run_generation(seatings, 4, oracle, TournamentStats())
        assert oracle.provider.policy is before
