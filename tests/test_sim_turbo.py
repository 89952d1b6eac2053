"""Unit tests for the turbo engine's mechanics (construction, protocol,
speculation bookkeeping, exchange plumbing, oracle coverage).

Distributional correctness lives in ``test_engine_statistical.py``;
cross-engine invariants in ``test_properties_reputation.py``.  This file
covers what's specific to the implementation itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.mobility import MobilityConfig
from repro.core.strategy import STRATEGY_LENGTH, Strategy
from repro.game.stats import TournamentStats
from repro.mobility import build_oracle
from repro.network.topology import GeometricTopology, TopologyPathOracle
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import GameSetup, RandomPathOracle, ScriptedPathOracle
from repro.reputation.exchange import ExchangeConfig
from repro.sim import ENGINES, make_engine
from repro.sim.turbo import TurboEngine


def build_engine(n_pop=16, n_csn=4, seed=7):
    rng = np.random.default_rng(seed)
    engine = make_engine("turbo", n_pop, n_csn)
    engine.set_strategies([Strategy.random(rng) for _ in range(n_pop)])
    return engine


def run(engine, rounds=12, seed=3, participants=None):
    if participants is None:
        participants = list(range(engine.n_population)) + engine.selfish_ids(
            engine.max_selfish
        )
    oracle = RandomPathOracle(np.random.default_rng(seed), SHORTER_PATHS)
    stats = TournamentStats()
    engine.run_tournament(participants, rounds, oracle, stats, None, None)
    return stats, participants


class TestConstruction:
    def test_registered(self):
        assert ENGINES["turbo"] is TurboEngine
        assert TurboEngine.name == "turbo"

    def test_validation(self):
        with pytest.raises(ValueError, match="population must be >= 1"):
            TurboEngine(0, 0)
        with pytest.raises(ValueError, match="max_selfish must be >= 0"):
            TurboEngine(4, -1)

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
            TurboEngine(4, 0, trust_table=TrustTable(bounds=(0.5,)))


class TestTournamentMechanics:
    def test_rounds_and_exchange_validation(self):
        engine = build_engine()
        oracle = RandomPathOracle(np.random.default_rng(0), SHORTER_PATHS)
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            engine.run_tournament([0, 1, 2], 0, oracle, TournamentStats(), None, None)
        with pytest.raises(ValueError, match="requires an rng"):
            engine.run_tournament(
                [0, 1, 2],
                2,
                oracle,
                TournamentStats(),
                ExchangeConfig(enabled=True),
                None,
            )

    def test_conservation_and_reset(self):
        engine = build_engine()
        stats, participants = run(engine, rounds=9)
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
        stats, _ = run(engine, rounds=6, participants=participants)
        assert stats.nn_originated + stats.csn_originated == 6 * 8
        # non-participants never gained payoffs or observations
        outsiders = [pid for pid in range(20) if pid not in participants]
        assert not engine.n_sent[outsiders].any()
        assert not engine.ps[outsiders].any()
        assert not engine.ps[:, outsiders].any()

    def test_replay_instrumentation(self):
        engine = build_engine()
        run(engine, rounds=20)
        first = engine._replayed_games
        assert first > 0  # speculation conflicts do happen at this density
        run(engine, rounds=1, seed=99)
        assert engine._replayed_games < first  # counter resets per tournament

    def test_payoff_accounting_matches_event_counts(self):
        engine = build_engine()
        stats, participants = run(engine, rounds=15)
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
        engine = make_engine("turbo", 8, 0)
        engine.set_strategies(
            [Strategy((0,) * STRATEGY_LENGTH) for _ in range(8)]
        )
        stats, _ = run(engine, rounds=5)
        assert stats.nn_delivered == 0
        assert int(engine.n_fwd.sum()) == 0

    def test_all_altruist_population_delivers_everything(self):
        engine = make_engine("turbo", 8, 0)
        engine.set_strategies(
            [Strategy((1,) * STRATEGY_LENGTH) for _ in range(8)]
        )
        stats, _ = run(engine, rounds=5)
        assert stats.nn_delivered == stats.nn_originated
        assert int(engine.n_disc.sum()) == 0
        # with no conflicts possible on decisions? conflicts may still occur;
        # either way the outcome above is exact


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
        engine = make_engine("turbo", 5, 0)
        rng = np.random.default_rng(1)
        engine.set_strategies([Strategy.random(rng) for _ in range(5)])
        stats = TournamentStats()
        engine.run_tournament(list(range(5)), 2, oracle, stats, None, None)
        assert oracle.remaining == 0
        assert stats.nn_originated == 10

    def test_topology_oracle(self):
        rng = np.random.default_rng(2)
        topology = GeometricTopology(range(20), radio_range=0.5, rng=rng)
        oracle = TopologyPathOracle(topology, rng)
        engine = build_engine(16, 4)
        stats = TournamentStats()
        engine.run_tournament(list(range(20)), 8, oracle, stats, None, None)
        assert stats.nn_originated + stats.csn_originated == 8 * 20

    def test_mobile_oracle(self):
        rng = np.random.default_rng(3)
        oracle = build_oracle(
            MobilityConfig(model="waypoint", radio_range=0.5), range(20), rng
        )
        engine = build_engine(16, 4)
        stats = TournamentStats()
        engine.run_tournament(list(range(20)), 6, oracle, stats, None, None)
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
        baseline = build_engine()
        run(baseline, rounds=12, seed=55)
        stats = TournamentStats()
        engine.run_tournament(participants, 12, oracle, stats, config, rng)
        assert np.array_equal(engine.known, (engine.ps > 0).sum(axis=1))
        assert np.array_equal(engine.pf_sum, engine.pf.sum(axis=1))
        assert (engine.pf <= engine.ps).all()

    def test_disabled_exchange_is_inert(self):
        a, b = build_engine(seed=7), build_engine(seed=7)
        sa, _ = run(a, rounds=8, seed=13)
        oracle = RandomPathOracle(np.random.default_rng(13), SHORTER_PATHS)
        sb = TournamentStats()
        b.run_tournament(
            list(range(16)) + b.selfish_ids(4),
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
        run(engine, rounds=5)
        matrix = engine.payoff_matrix()
        assert matrix.shape == (20, 20, 2)
        assert np.array_equal(matrix[:, :, 0], engine.ps)
        assert np.array_equal(matrix[:, :, 1], engine.pf)

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
    return src, jc, decided, fwd, prefix[:, -1], decided.sum(axis=1)


class TestWatchdogPairs:
    """The compact write pairs equal the padded grid's output — codes,
    per-game counts and forward flags, in the same game-major order."""

    @pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeats"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_padded_grid(self, seed, repeats):
        from repro.sim.turbo import watchdog_pairs

        rng = np.random.default_rng(seed)
        n, hmax, m, n_csn = 300, 7, 40, 6
        src, jc, decided, fwd, success, n_dec = random_slate(
            rng, n, hmax, m, n_csn, repeats
        )
        codes, game, flags = watchdog_pairs(src, jc, fwd, n_dec, success, m)
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
        # every call the engines make, on real plans and real decisions
        import repro.sim.turbo as turbo_mod
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.replication import run_stack

        real = turbo_mod.watchdog_pairs
        calls = []

        def checked(src, jc, fwd, n_dec, success, m):
            out = real(src, jc, fwd, n_dec, success, m)
            decided = np.arange(jc.shape[1]) < n_dec[:, None]
            want = grid_pairs(src, jc, decided, fwd, success, n_dec, m)
            np.testing.assert_array_equal(out[0], want[0])
            np.testing.assert_array_equal(
                np.bincount(out[1], minlength=len(n_dec)), want[1]
            )
            np.testing.assert_array_equal(out[2], want[2])
            calls.append(len(n_dec))
            return out

        monkeypatch.setattr(turbo_mod, "watchdog_pairs", checked)
        config = ExperimentConfig.for_case(
            "case3", scale="smoke", engine="fused", seed=7, replications=2,
            generations=1,
        )
        run_stack(config, range(config.replications))
        assert len(calls) > config.sim.rounds
