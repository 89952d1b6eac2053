"""Unit tests for the fused engine's mechanics.

What's pinned here is the engine's own contract — construction and the
engine protocol, conservation over the stacked pass and over one-seating
generations, the reputation invariants, the gossip step of the round pass (against
an explicit gossip and across stack widths), oracle coverage, hook
clocking, route-policy scoping, the speculation bookkeeping (replays +
second-chance pass) and the compact watchdog write pairs.  Distributional
correctness against the exact engines lives in
``tests/test_engine_statistical.py``; cross-engine invariants in
``tests/test_properties_reputation.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.config.mobility import MobilityConfig
from repro.core.strategy import STRATEGY_LENGTH, Strategy
from repro.game.stats import TournamentStats
from repro.mobility import build_oracle
from repro.network.provider import ApproxPolicy
from repro.paths.distributions import LONGER_PATHS, SHORTER_PATHS
from repro.paths.oracle import GameSetup, RandomPathOracle, ScriptedPathOracle
from repro.reputation.exchange import ExchangeConfig, exchange_reputation_flat
from repro.sim import BIT_IDENTICAL_ENGINES, ENGINES, make_engine
from repro.sim.fused import FusedEngine, watchdog_pairs
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.runtime import telemetry_session


def build_engine(n_pop=16, n_csn=4, seed=7):
    rng = np.random.default_rng(seed)
    engine = make_engine("fused", n_pop, n_csn)
    engine.set_strategies([Strategy.random(rng) for _ in range(n_pop)])
    return engine


def play(engine, rounds=12, seed=3, participants=None):
    """One tournament: a one-seating generation."""
    if participants is None:
        participants = list(range(engine.n_population)) + engine.selfish_ids(
            engine.max_selfish
        )
    oracle = RandomPathOracle(np.random.default_rng(seed), SHORTER_PATHS)
    stats = TournamentStats()
    engine.run_generation([participants], rounds, oracle, stats)
    return stats, participants


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
        assert "fused" not in BIT_IDENTICAL_ENGINES
        # the one statistical engine next to the bit-identical three
        assert sorted(ENGINES) == ["batch", "fast", "fused", "reference"]

    def test_validation(self):
        with pytest.raises(ValueError, match="population must be >= 1"):
            FusedEngine(0, 0)
        with pytest.raises(ValueError, match="max_selfish must be >= 0"):
            FusedEngine(4, -1)

    def test_selfish_ids_bounds(self):
        engine = build_engine(10, 2)
        assert engine.selfish_ids(2) == [10, 11]
        with pytest.raises(ValueError, match="engine allocated 2"):
            engine.selfish_ids(3)

    def test_strategy_roundtrip_and_padding(self):
        engine = build_engine(6, 3)
        rng = np.random.default_rng(0)
        strategies = [Strategy.random(rng) for _ in range(6)]
        engine.set_strategies(strategies)
        matrix = engine.strategy_matrix
        assert matrix.shape == (6, STRATEGY_LENGTH)
        for row, strategy in zip(matrix, strategies):
            assert tuple(row.tolist()) == strategy.bits
        # the CSN tail of the gather table always reads "never forward"
        table = engine._strat_flat.reshape(engine.m, STRATEGY_LENGTH)
        assert not table[6:].any()
        with pytest.raises(ValueError, match="expected 6 strategies"):
            engine.set_strategies(strategies[:3])

    def test_wrong_trust_levels_rejected(self):
        from repro.reputation.trust import TrustTable

        with pytest.raises(ValueError, match="4 trust levels"):
            FusedEngine(4, 0, trust_table=TrustTable(bounds=(0.5,)))

    def test_run_stack_is_the_one_entry_point(self, monkeypatch):
        """There is no per-tournament method; ``run_generation`` is the
        one-member ``run_stack``."""
        assert not hasattr(FusedEngine, "run_tournament")
        engine = build_engine()
        calls = []
        monkeypatch.setattr(engine, "run_stack", lambda *a: calls.append(a))
        oracle = RandomPathOracle(np.random.default_rng(1), SHORTER_PATHS)
        stats = TournamentStats()
        engine.run_generation([[0, 1, 2]], 4, oracle, stats)
        assert calls == [([[[0, 1, 2]]], 4, [oracle], [stats], None, [None])]

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
        # reputation invariants across the whole stack; the (R, block,
        # block) state's observer rows, per block, in id order
        assert (engine.pf <= engine.ps).all()
        assert np.array_equal(engine.known, (engine.ps > 0).sum(-1).reshape(-1))
        assert np.array_equal(engine.pf_sum, engine.pf.sum(-1).reshape(-1))
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

    def test_matches_per_tournament_workload(self):
        """The stacked pass and one-seating passes, one per tournament,
        play the same structural workload (same games, same path-choice
        counts); outcome totals differ only within the statistical
        contract."""
        fused = build_engine()
        looped = build_engine()
        f_stats, seatings = run_generation(fused, n_tournaments=5, rounds=8)
        oracle = RandomPathOracle(np.random.default_rng(5), SHORTER_PATHS)
        t_stats = TournamentStats()
        looped.reset_generation()
        for seating in seatings:
            looped.run_generation([seating], 8, oracle, t_stats)
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


class TestExchange:
    """The gossip step is part of the round pass: every (replication,
    tournament) of the slate gossips after each ``interval``-th round."""

    def test_gossip_step_follows_the_interval_round(self):
        """With ``interval == rounds`` the one gossip step follows the last
        round, so it equals the pass without the exchange followed by an
        explicit gossip of every seating, in seating order, on the
        generator the plan drew from."""
        seatings = make_seatings(build_engine(), 4)
        config = ExchangeConfig(enabled=True, interval=9, fanout=2)

        def run(exchange):
            engine = build_engine()
            rng = np.random.default_rng(17)
            stats = TournamentStats()
            engine.reset_generation()
            engine.run_generation(
                seatings, 9, RandomPathOracle(rng, SHORTER_PATHS), stats,
                exchange, rng,
            )
            return engine, stats, rng

        gossiped, g_stats, _ = run(config)
        explicit, e_stats, rng = run(None)
        ps, pf = explicit.ps[0].tolist(), explicit.pf[0].tolist()
        known, pf_sum = explicit.known.tolist(), explicit.pf_sum.tolist()
        for seating in seatings:
            exchange_reputation_flat(ps, pf, known, pf_sum, seating, config, rng)

        assert g_stats.to_dict() == e_stats.to_dict()
        assert gossiped.ps[0].tolist() == ps
        assert gossiped.pf[0].tolist() == pf
        assert gossiped.known.tolist() == known
        assert gossiped.pf_sum.tolist() == pf_sum
        assert np.array_equal(gossiped.fitness(), explicit.fitness())

    @pytest.mark.parametrize("positive_only", [True, False], ids=["core", "full"])
    def test_wide_stack_equals_stacks_of_one(self, positive_only):
        """Each member gossips on its own generator and block, so a stack
        of two equals two stacks of one, member by member."""
        config = ExchangeConfig(
            enabled=True, interval=2, fanout=2, positive_only=positive_only
        )
        n_pop, n_csn = 8, 2
        rng = np.random.default_rng(4)
        tensor = rng.integers(0, 2, size=(2, n_pop, STRATEGY_LENGTH))
        seatings = [
            [[int(v) for v in rng.permutation(n_pop)] + [8, 9] for _ in range(3)]
            for _ in range(2)
        ]

        def run(members):
            engine = FusedEngine(n_pop, n_csn, n_replications=len(members))
            engine.set_strategies_tensor(tensor[members])
            rngs = [np.random.default_rng(10 + r) for r in members]
            stats = [TournamentStats() for _ in members]
            engine.reset_generation()
            engine.run_stack(
                [seatings[r] for r in members],
                6,
                [RandomPathOracle(g, SHORTER_PATHS) for g in rngs],
                stats,
                config,
                rngs,
            )
            return engine, stats

        wide, wide_stats = run([0, 1])
        for r in range(2):
            one, (stats,) = run([r])
            assert stats.to_dict() == wide_stats[r].to_dict(), f"member {r}"
            np.testing.assert_array_equal(one.ps[0], wide.ps[r])
            np.testing.assert_array_equal(one.pf[0], wide.pf[r])
            np.testing.assert_array_equal(
                one.fitness_tensor()[0], wide.fitness_tensor()[r]
            )

    def test_a_member_without_an_rng_is_refused(self):
        engine = FusedEngine(8, 0, n_replications=2)
        with pytest.raises(ValueError, match="reputation exchange requires an rng"):
            engine.run_stack(
                [[list(range(8))] for _ in range(2)],
                4,
                [
                    RandomPathOracle(np.random.default_rng(s), SHORTER_PATHS)
                    for s in range(2)
                ],
                [TournamentStats() for _ in range(2)],
                ExchangeConfig(enabled=True),
                [np.random.default_rng(10), None],
            )

    def test_exchange_counts_in_telemetry_and_fires_hooks(self):
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
            snap = tel.snapshot()
        # one stacked pass with a gossip step after rounds 2 and 4
        assert snap["counters"]["engine.fused.env_passes"] == 1
        assert snap["counters"]["engine.fused.stacked_tournaments"] == 3
        assert snap["timers"]["engine.exchange_s"]["count"] == 2
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


class TestTournamentLoop:
    """One tournament on its own, as a one-seating generation: the
    ``(1, 1, n, block)`` slate."""

    def test_conservation_and_reset(self):
        engine = build_engine()
        stats, participants = play(engine, rounds=9)
        assert (
            stats.nn_originated + stats.csn_originated == 9 * len(participants)
        )
        assert int(engine.n_sent.sum()) == 9 * len(participants)
        assert engine.fitness().shape == (16,)
        assert np.isfinite(engine.fitness()).all()
        engine.reset_generation()
        assert not engine.ps.any() and not engine.send_pay.any()

    def test_subset_seating(self):
        """Tournaments routinely seat a strict subset of the population in
        arbitrary order (the scheduler shuffles)."""
        engine = build_engine(16, 4)
        participants = [14, 3, 17, 7, 0, 9, 16, 5]
        stats, _ = play(engine, rounds=6, participants=participants)
        assert stats.nn_originated + stats.csn_originated == 6 * 8
        # non-participants never gained payoffs or observations
        outsiders = [pid for pid in range(20) if pid not in participants]
        assert not engine.n_sent[outsiders].any()
        (ps,) = engine.ps  # one replication's (block, block) state
        assert not ps[outsiders].any()
        assert not ps[:, outsiders].any()

    def test_replay_instrumentation(self):
        engine = build_engine()
        play(engine, rounds=20)
        first = engine._replayed_games
        assert first > 0  # speculation conflicts do happen at this density
        play(engine, rounds=1, seed=99)
        assert engine._replayed_games < first  # counter resets per tournament

    def test_payoff_accounting_matches_event_counts(self):
        engine = build_engine()
        stats, participants = play(engine, rounds=15)
        n_pop = engine.n_population
        accepted = (
            stats.requests_from_nn.accepted_by_nn
            + stats.requests_from_csn.accepted_by_nn
        )
        rejected_nn = (
            stats.requests_from_nn.rejected_by_nn
            + stats.requests_from_csn.rejected_by_nn
        )
        assert int(engine.n_fwd[:n_pop].sum()) == accepted
        assert int(engine.n_disc[:n_pop].sum()) == rejected_nn
        # CSN payoff accumulators are dead state, never touched
        assert not engine.n_fwd[n_pop:].any()
        assert not engine.n_disc[n_pop:].any()
        assert not engine.fwd_pay_acc[n_pop:].any()

    def test_all_selfish_population_delivers_nothing(self):
        """With all-zero strategies nobody forwards: zero cooperation, all
        discard payoffs — exercises the all-fail speculation path."""
        engine = make_engine("fused", 8, 0)
        engine.set_strategies(
            [Strategy((0,) * STRATEGY_LENGTH) for _ in range(8)]
        )
        stats, _ = play(engine, rounds=5)
        assert stats.nn_delivered == 0
        assert int(engine.n_fwd.sum()) == 0

    def test_all_altruist_population_delivers_everything(self):
        engine = make_engine("fused", 8, 0)
        engine.set_strategies(
            [Strategy((1,) * STRATEGY_LENGTH) for _ in range(8)]
        )
        stats, _ = play(engine, rounds=5)
        assert stats.nn_delivered == stats.nn_originated
        assert int(engine.n_disc.sum()) == 0


class TestTournamentLoopPins:
    """Digests of one tournament at a time, recorded before ``TurboEngine``
    was folded into the fused engine and kept by the one-seating
    generation that replaced the per-tournament entry point: every
    trajectory — with and without gossip, full and subset seatings, both
    hop distributions — holds across both changes."""

    PINNED = [
        # (n_pop, n_csn, seated, rounds, seed, longer, gossip, digest)
        (16, 4, 16, 12, 3, False, None, "8c8cb64c5f83ccca"),
        (24, 0, 24, 8, 11, True, None, "4cad0da380a7cc08"),
        (20, 3, 10, 10, 21, False, None, "64bbe8de22bac4f6"),
        (12, 6, 12, 20, 5, False, (2, 2, 0.5, False), "1538a0806065d126"),
        (10, 2, 10, 7, 9, True, (1, 3, 1.0, True), "2107bdf3a0649101"),
    ]

    @staticmethod
    def digest(n_pop, n_csn, seated, rounds, seed, longer, gossip):
        """Three tournaments on one engine, one generator for strategies,
        seatings, path draws and gossip; hash the reputation state,
        fitness and merged counters."""
        rng = np.random.default_rng(seed)
        engine = make_engine("fused", n_pop, n_csn)
        engine.set_strategies([Strategy.random(rng) for _ in range(n_pop)])
        oracle = RandomPathOracle(rng, LONGER_PATHS if longer else SHORTER_PATHS)
        exchange = None
        if gossip is not None:
            interval, fanout, weight, positive_only = gossip
            exchange = ExchangeConfig(
                enabled=True,
                interval=interval,
                fanout=fanout,
                weight=weight,
                positive_only=positive_only,
            )
        stats = TournamentStats()
        for _ in range(3):
            seating = [
                int(v) for v in rng.permutation(n_pop)[:seated]
            ] + engine.selfish_ids(n_csn)
            engine.run_generation([seating], rounds, oracle, stats, exchange, rng)
        blob = json.dumps(
            [
                engine.payoff_matrix().tolist(),
                engine.fitness().tolist(),
                dataclasses.asdict(stats),
            ],
            sort_keys=True,
            default=float,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @pytest.mark.parametrize(
        "n_pop,n_csn,seated,rounds,seed,longer,gossip,expected",
        PINNED,
        ids=["full", "longer-no-csn", "subset", "gossip", "gossip-longer"],
    )
    def test_pinned_digest(
        self, n_pop, n_csn, seated, rounds, seed, longer, gossip, expected
    ):
        got = self.digest(n_pop, n_csn, seated, rounds, seed, longer, gossip)
        assert got == expected


class TestOracleCoverage:
    def test_scripted_oracle_runs_through_plan_fallback(self):
        setups = []
        for _ in range(2):  # 2 rounds
            for source in range(5):
                inter = [(source + 1) % 5, (source + 2) % 5]
                setups.append(
                    GameSetup(
                        source=source,
                        destination=(source + 3) % 5,
                        paths=(tuple(inter),),
                    )
                )
        oracle = ScriptedPathOracle(setups)
        engine = make_engine("fused", 5, 0)
        rng = np.random.default_rng(1)
        engine.set_strategies([Strategy.random(rng) for _ in range(5)])
        stats = TournamentStats()
        engine.run_generation([list(range(5))], 2, oracle, stats)
        assert oracle.remaining == 0
        assert stats.nn_originated == 10

    def test_topology_oracle(self):
        """The static network: the routed oracle at speed 0."""
        rng = np.random.default_rng(2)
        oracle = build_oracle(
            MobilityConfig(
                model="waypoint", speed_min=0.0, speed_max=0.0, radio_range=0.5
            ),
            range(20),
            rng,
        )
        engine = build_engine(16, 4)
        stats = TournamentStats()
        engine.run_generation([list(range(20))], 8, oracle, stats)
        assert stats.nn_originated + stats.csn_originated == 8 * 20

    def test_mobile_oracle(self):
        rng = np.random.default_rng(3)
        oracle = build_oracle(
            MobilityConfig(model="waypoint", radio_range=0.5), range(20), rng
        )
        engine = build_engine(16, 4)
        stats = TournamentStats()
        engine.run_generation([list(range(20))], 6, oracle, stats)
        assert stats.nn_originated + stats.csn_originated == 6 * 20


class TestExchangePlumbing:
    @pytest.mark.parametrize("shared_rng", [False, True])
    def test_exchange_adds_evidence_and_stays_consistent(self, shared_rng):
        engine = build_engine()
        oracle_rng = np.random.default_rng(5)
        oracle = RandomPathOracle(oracle_rng, SHORTER_PATHS)
        rng = oracle_rng if shared_rng else np.random.default_rng(6)
        participants = list(range(16)) + engine.selfish_ids(4)
        config = ExchangeConfig(enabled=True, interval=3, fanout=2)
        stats = TournamentStats()
        engine.run_generation([participants], 12, oracle, stats, config, rng)
        assert np.array_equal(engine.known, (engine.ps > 0).sum(-1).reshape(-1))
        assert np.array_equal(engine.pf_sum, engine.pf.sum(-1).reshape(-1))
        assert (engine.pf <= engine.ps).all()

    def test_disabled_exchange_is_inert(self):
        a, b = build_engine(seed=7), build_engine(seed=7)
        sa, _ = play(a, rounds=8, seed=13)
        oracle = RandomPathOracle(np.random.default_rng(13), SHORTER_PATHS)
        sb = TournamentStats()
        b.run_generation(
            [list(range(16)) + b.selfish_ids(4)],
            8,
            oracle,
            sb,
            ExchangeConfig(enabled=False),
            np.random.default_rng(1),
        )
        assert sa.to_dict() == sb.to_dict()
        assert np.array_equal(a.payoff_matrix(), b.payoff_matrix())


class TestIntrospection:
    def test_payoff_matrix_layout(self):
        engine = build_engine()
        play(engine, rounds=5)
        matrix = engine.payoff_matrix()
        assert matrix.shape == (20, 20, 2)
        assert engine.ps.shape == engine.pf.shape == (1, 20, 20)
        assert np.array_equal(matrix[:, :, 0], engine.ps[0])
        assert np.array_equal(matrix[:, :, 1], engine.pf[0])

    def test_fitness_zero_without_events(self):
        engine = build_engine()
        assert np.array_equal(engine.fitness(), np.zeros(16))


def grid_pairs(src, jc, decided, fwd, success, n_dec, m):
    """The padded ``(hmax + 1) x hmax`` write-pair grid the compact pairs
    replaced, kept as the oracle: observer rows (source, then deciders
    masked to the updating ones by an out-of-range sentinel) against
    subject columns (decided hops), observer == subject cells dropped."""
    n, hmax = jc.shape
    obs = np.empty((n, hmax + 1), dtype=np.int32)
    obs[:, 0] = src
    upd_ok = decided & (success[:, None] | (np.arange(hmax) < (n_dec - 1)[:, None]))
    jc32 = jc.astype(np.int32)
    np.copyto(obs[:, 1:], jc32)
    np.copyto(obs[:, 1:], np.int32(m), where=~upd_ok)
    subj = np.where(decided, jc32, np.int32(m * m))
    pair = obs[:, :, None] * np.int32(m) + subj[:, None, :]
    pair[obs[:, :, None] == subj[:, None, :]] = m * m
    pair2 = pair.reshape(n, -1)
    w_ok = pair2 < m * m
    w_fwd = np.broadcast_to(fwd[:, None, :], pair.shape).reshape(n, -1)[w_ok]
    return pair2[w_ok], w_ok.sum(axis=1), w_fwd


def random_slate(rng, n, hmax, m, n_csn, repeats):
    """Speculated games as the round pass hands them over: chosen paths
    ``jc`` (padding resolves to node 0), the decide op's prefix structure
    for ``decided``/``fwd``/``success``, selfish seats that always drop.
    ``repeats`` draws path nodes with replacement from a small pool that
    includes the source, as a hand-built plan may."""
    src = rng.integers(0, m, size=n)
    lens = rng.integers(1, hmax + 1, size=n)
    if repeats:
        pool = rng.integers(0, m, size=(n, 4))
        pool[:, 0] = src
        jc = np.take_along_axis(pool, rng.integers(0, 4, size=(n, hmax)), axis=1)
    else:
        jc = np.stack(
            [rng.choice(np.delete(np.arange(m), s), hmax, replace=False) for s in src]
        )
    valid = np.arange(hmax) < lens[:, None]
    jc[~valid] = 0
    votes = rng.random((n, hmax)) < 0.7
    votes[rng.random(n) < 0.2, 0] = False  # first-hop drops
    votes[rng.random(n) < 0.2] = True  # full deliveries (unless a CSN)
    votes &= jc < m - n_csn
    votes &= valid
    prefix = np.logical_and.accumulate(votes | ~valid, axis=1)
    decided = valid.copy()
    decided[:, 1:] &= prefix[:, :-1]
    # the round pass hands over strided column slices of its fold buffers
    fwd = np.zeros((n, hmax + 3), dtype=bool)[:, :hmax]
    fwd[:] = votes
    return src, jc, decided, fwd, prefix[:, -1], decided.sum(axis=1), lens


def flat_hops(jc, lens):
    """The padded chosen paths as the round pass hands them over now:
    every game's real hops back to back, and each game's start."""
    starts = np.cumsum(lens) - lens
    return jc[np.arange(jc.shape[1]) < lens[:, None]], starts


def padded_hops(jc, starts, n):
    """The inverse of :func:`flat_hops`, padded with node 0."""
    lens = np.diff(np.append(starts, jc.size))
    hmax = max(int(lens.max()), 1) if n else 1
    out = np.zeros((n, hmax), dtype=jc.dtype)
    out[np.arange(hmax) < lens[:, None]] = jc
    return out


class TestWatchdogPairs:
    """The compact write pairs equal the padded grid's output — codes,
    per-game counts and forward flags, in the same game-major order."""

    @pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeats"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_padded_grid(self, seed, repeats):
        rng = np.random.default_rng(seed)
        n, hmax, m, n_csn = 300, 7, 40, 6
        src, jc, decided, fwd, success, n_dec, lens = random_slate(
            rng, n, hmax, m, n_csn, repeats
        )
        jc_flat, starts = flat_hops(jc, lens)
        obs, subj, game, flags = watchdog_pairs(src, jc_flat, starts, n_dec, success)
        codes = obs * m + subj
        want_codes, want_counts, want_flags = grid_pairs(
            src, jc, decided, fwd, success, n_dec, m
        )
        np.testing.assert_array_equal(codes, want_codes)
        np.testing.assert_array_equal(np.bincount(game, minlength=n), want_counts)
        np.testing.assert_array_equal(flags, want_flags)
        assert (np.diff(game) >= 0).all()
        # the slate holds every shape the pairs must get right
        first_hop = decided[:, 0] & ~fwd[:, 0]
        assert (first_hop & (n_dec == 1)).any()
        assert (success & (n_dec >= 3)).any()
        assert (decided & (jc >= m - n_csn)).any()
        # beyond each decider meeting itself, observer == subject pairs
        # (a repeated node, the source on its own path) exist only with
        # repeats
        n_upd = np.where(success, n_dec, n_dec - 1)
        observers = np.concatenate([src[:, None], jc], axis=1)
        t = np.arange(hmax + 1)[None, :, None]
        s = np.arange(hmax)[None, None, :]
        same = (
            (observers[:, :, None] == jc[:, None, :])
            & (t <= n_upd[:, None, None])
            & decided[:, None, :]
            & (t != s + 1)
        )
        assert same.any() == repeats

    def test_engine_round_passes_match_padded_grid(self, monkeypatch):
        # every call the engine makes, on real plans and real decisions
        import repro.sim.fused as fused_mod
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.replication import run_stack

        real = fused_mod.watchdog_pairs
        calls = []

        def checked(src, jc, starts, n_dec, success):
            obs, subj, game, flags = out = real(src, jc, starts, n_dec, success)
            m = int(max(src.max(), jc.max())) + 1  # any code base past every id
            grid = padded_hops(jc, starts, len(n_dec))
            cols = np.arange(grid.shape[1])
            decided = cols < n_dec[:, None]
            # the decide op's votes on decided hops (pinned against the
            # padded op in test_sim_kernels.py)
            fwd = decided & ((cols < (n_dec - 1)[:, None]) | success[:, None])
            want = grid_pairs(src, grid, decided, fwd, success, n_dec, m)
            np.testing.assert_array_equal(obs * m + subj, want[0])
            np.testing.assert_array_equal(
                np.bincount(game, minlength=len(n_dec)), want[1]
            )
            np.testing.assert_array_equal(flags, want[2])
            calls.append(len(n_dec))
            return out

        monkeypatch.setattr(fused_mod, "watchdog_pairs", checked)
        config = ExperimentConfig.for_case(
            "case3", scale="smoke", engine="fused", seed=7, replications=2,
            generations=1,
        )
        run_stack(config, range(config.replications))
        assert len(calls) > config.sim.rounds
