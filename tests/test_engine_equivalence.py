"""Reference vs batch engine: bit-for-bit equivalence.

Both engines consume randomness exclusively through shared components (path
oracle, seating scheduler, GA, exchange), so under identical seeds they must
produce identical decisions, payoffs, reputation matrices, statistics,
fitness and — through a whole GA replication — identical evolved populations.

The batch engine additionally pre-draws whole tournament/round schedules
(:func:`repro.paths.oracle.plan_games`); these tests pin that pre-drawing
never changes a trajectory, for every oracle kind and with the second-hand
exchange enabled (where gossip draws interleave with oracle draws on a
shared generator at round boundaries).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.strategy import Strategy
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication
from repro.game.stats import TournamentStats
from repro.paths.distributions import LONGER_PATHS, SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.reputation.exchange import ExchangeConfig
from repro.sim import BIT_IDENTICAL_ENGINES, make_engine
from repro.tournament.environment import TournamentEnvironment
from repro.tournament.evaluation import evaluate_generation

# the fused engine is deliberately absent: its contract is statistical
# equivalence (tests/test_engine_statistical.py), not bit-identity
ENGINE_NAMES = BIT_IDENTICAL_ENGINES  # ("reference", "batch")


def build_engines(n_pop=16, max_csn=5, seed=77, names=ENGINE_NAMES):
    rng = np.random.default_rng(seed)
    strategies = [Strategy.random(rng) for _ in range(n_pop)]
    engines = []
    for name in names:
        engine = make_engine(name, n_pop, max_csn)
        engine.set_strategies(strategies)
        engines.append(engine)
    return engines


def run_engine(
    engine,
    participants,
    rounds,
    oracle_seed,
    hop_dist=SHORTER_PATHS,
    exchange=None,
    shared_rng=False,
):
    oracle_rng = np.random.default_rng(oracle_seed)
    oracle = RandomPathOracle(oracle_rng, hop_dist)
    if exchange is None:
        rng = None
    elif shared_rng:
        rng = oracle_rng  # exchange and oracle draw from one stream
    else:
        rng = np.random.default_rng(oracle_seed + 1)
    stats = TournamentStats()
    engine.reset_generation()
    engine.run_tournament(participants, rounds, oracle, stats, exchange, rng)
    return stats


class TestTournamentEquivalence:
    @pytest.mark.parametrize("oracle_seed", [0, 1, 2, 3])
    def test_stats_identical(self, oracle_seed):
        ref, batch = build_engines()
        participants = list(range(12)) + [16, 17, 18]  # 12 NN + 3 CSN
        s_ref = run_engine(ref, participants, 15, oracle_seed)
        s_batch = run_engine(batch, participants, 15, oracle_seed)
        assert s_ref.to_dict() == s_batch.to_dict()

    @pytest.mark.parametrize("hop_dist", [SHORTER_PATHS, LONGER_PATHS])
    def test_reputation_matrices_identical(self, hop_dist):
        ref, batch = build_engines()
        participants = list(range(10)) + [16, 17]
        for engine in (ref, batch):
            run_engine(engine, participants, 12, 5, hop_dist)
        assert np.array_equal(ref.payoff_matrix(), batch.payoff_matrix())

    def test_fitness_identical(self):
        ref, batch = build_engines()
        participants = list(range(14)) + [16]
        for engine in (ref, batch):
            run_engine(engine, participants, 10, 9)
        assert np.array_equal(ref.fitness(), batch.fitness())

    def test_payoff_components_identical(self):
        ref, batch = build_engines()
        participants = list(range(16))
        for engine in (ref, batch):
            run_engine(engine, participants, 10, 11)
        for pid in range(16):
            acc = ref.player(pid).payoffs
            assert acc.send_payoff == batch.send_pay[pid]
            assert acc.forward_payoff == batch.fwd_pay_acc[pid]
            assert acc.discard_payoff == batch.disc_pay_acc[pid]
            assert acc.n_sent == batch.n_sent[pid]
            assert acc.n_forwarded == batch.n_fwd[pid]
            assert acc.n_discarded == batch.n_disc[pid]


class TestExchangeEquivalence:
    """The second-hand exchange runs identically on both engines."""

    CONFIGS = [
        ExchangeConfig(enabled=True, interval=5, fanout=2, positive_only=True),
        ExchangeConfig(enabled=True, interval=3, fanout=3, positive_only=False),
        ExchangeConfig(
            enabled=True, interval=7, fanout=1, weight=0.9, positive_only=False
        ),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("shared_rng", [False, True])
    def test_exchange_identical(self, config, shared_rng):
        """Separate rngs, and the hard case: exchange and oracle sharing one
        generator, where pre-drawing past a gossip step would skew the
        stream."""
        ref, batch = build_engines()
        participants = list(range(12)) + [16, 17, 18]
        s_ref, s_batch = [
            run_engine(
                engine,
                participants,
                20,
                5,
                exchange=config,
                shared_rng=shared_rng,
            )
            for engine in (ref, batch)
        ]
        assert s_ref.to_dict() == s_batch.to_dict()
        assert np.array_equal(ref.payoff_matrix(), batch.payoff_matrix())
        assert np.array_equal(ref.fitness(), batch.fitness())


class TestGenerationEquivalence:
    def test_full_evaluation_identical(self):
        envs = [
            TournamentEnvironment("A", 10, 0),
            TournamentEnvironment("B", 10, 4),
        ]
        results = []
        for engine in build_engines():
            oracle = RandomPathOracle(np.random.default_rng(21), SHORTER_PATHS)
            res = evaluate_generation(
                engine,
                envs,
                rounds=8,
                plays_per_environment=1,
                oracle=oracle,
                rng=np.random.default_rng(22),
            )
            results.append(res)
        a, b = results
        assert np.array_equal(a.fitness, b.fitness)
        assert a.overall.to_dict() == b.overall.to_dict()
        for env in ("A", "B"):
            assert a.per_environment[env].to_dict() == b.per_environment[env].to_dict()


class TestReplicationEquivalence:
    @pytest.mark.parametrize("case", ["case1", "case3"])
    @pytest.mark.parametrize("alt_engine", ENGINE_NAMES[1:])
    def test_whole_replication_identical(self, case, alt_engine):
        """The strongest check: an entire GA run (evaluation + evolution)."""
        base = ExperimentConfig.for_case(case, scale="smoke", seed=31)
        ref = run_replication(base.with_(engine="reference"), 0)
        alt = run_replication(base.with_(engine=alt_engine), 0)
        assert ref.history.to_dict() == alt.history.to_dict()
        assert ref.final_population == alt.final_population
        assert ref.final_overall.to_dict() == alt.final_overall.to_dict()
        for env in ref.final_per_env:
            assert (
                ref.final_per_env[env].to_dict() == alt.final_per_env[env].to_dict()
            )

    @pytest.mark.parametrize(
        "case", ["mobile_waypoint", "exchange_core", "exchange_full"]
    )
    def test_extension_replication_identical(self, case):
        """Extensions: mobile oracle (batch pre-draws via the generic
        fallback) and exchange regimes (per-round planning) stay
        bit-identical through a whole replication."""
        base = ExperimentConfig.for_case(case, scale="smoke", seed=13)
        ref = run_replication(base.with_(engine="reference"), 0)
        batch = run_replication(base.with_(engine="batch"), 0)
        assert ref.history.to_dict() == batch.history.to_dict()
        assert ref.final_population == batch.final_population


class TestRandomizedSeedEquivalence:
    """Fresh-seed sweep: stream-identity must hold for *any* seed, not just
    the pinned lists above.

    Every run draws ``REPRO_EQUIV_RANDOM_SEEDS`` (default 3) new oracle
    seeds from OS entropy, so the bit-identity claim cannot quietly overfit
    to the fixed seeds used elsewhere in this file.  On failure the assert
    message carries the offending seed so the run can be reproduced with a
    pinned test.
    """

    N_SEEDS = int(os.environ.get("REPRO_EQUIV_RANDOM_SEEDS", "3"))

    def test_fresh_seeds_whole_tournament_identical(self):
        seeds = np.random.SeedSequence().generate_state(self.N_SEEDS)
        for seed in seeds.tolist():
            ref, batch = build_engines()
            participants = list(range(12)) + [16, 17, 18]
            s_ref = run_engine(ref, participants, 12, seed)
            s_batch = run_engine(batch, participants, 12, seed)
            assert s_ref.to_dict() == s_batch.to_dict(), f"oracle seed {seed}"
            assert np.array_equal(
                ref.payoff_matrix(), batch.payoff_matrix()
            ), f"oracle seed {seed}"
            assert np.array_equal(ref.fitness(), batch.fitness()), (
                f"oracle seed {seed}"
            )

    def test_fresh_seeds_exchange_identical(self):
        """The hard case on fresh seeds too: exchange and oracle sharing one
        generator."""
        config = ExchangeConfig(
            enabled=True, interval=4, fanout=2, positive_only=False
        )
        seeds = np.random.SeedSequence().generate_state(max(1, self.N_SEEDS // 2))
        for seed in seeds.tolist():
            ref, batch = build_engines()
            participants = list(range(12)) + [16, 17]
            results = [
                run_engine(
                    engine, participants, 12, seed, exchange=config, shared_rng=True
                )
                for engine in (ref, batch)
            ]
            assert results[0].to_dict() == results[1].to_dict(), (
                f"oracle seed {seed}"
            )
            assert np.array_equal(
                ref.payoff_matrix(), batch.payoff_matrix()
            ), f"oracle seed {seed}"
