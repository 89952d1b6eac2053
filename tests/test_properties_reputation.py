"""Seeded property-based tests for reputation-state invariants, across
random game traces on **all** engines (bit-identical pair + fused; the
``fast`` name builds batch).

The pair's correctness is pinned trajectory-by-trajectory in
``test_engine_equivalence.py``; the fused engine's only in distribution.
What every engine must guarantee *exactly*, on any trace, are the
reputation-accounting invariants this file drives with hypothesis:

* counters are non-negative and ``pf <= ps`` cellwise (a node cannot have
  forwarded more packets than it was observed handling);
* the O(1) activity aggregates stay consistent with the matrices:
  ``known[u] == #{j: ps[u][j] > 0}`` and ``pf_sum[u] == sum_j pf[u][j]``;
* counters are monotone non-decreasing across tournaments (watchdog
  evidence is never forgotten within a generation);
* the second-hand exchange only adds evidence — senders' rows are
  untouched, receivers' counters never decrease, and CORE-style
  positive-only gossip never worsens any observed forwarding rate.

Runs are seeded through hypothesis' deterministic profile
(``derandomize=True``), so CI failures reproduce locally from the printed
example instead of flaking.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategy import Strategy
from repro.game.stats import TournamentStats
from repro.paths.distributions import LONGER_PATHS, SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.reputation.exchange import ExchangeConfig, exchange_reputation_flat
from repro.sim import ENGINES, make_engine

ENGINE_NAMES = sorted(ENGINES)

scenario = st.fixed_dictionaries(
    {
        "n_pop": st.integers(8, 18),
        "n_csn": st.integers(0, 4),
        "rounds": st.integers(1, 7),
        "seed": st.integers(0, 2**31 - 1),
        "longer": st.booleans(),
    }
)

exchange_params = st.fixed_dictionaries(
    {
        "interval": st.integers(1, 5),
        "fanout": st.integers(0, 3),
        "weight": st.sampled_from([0.25, 0.5, 1.0]),
        "positive_only": st.booleans(),
    }
)

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)


def build(engine_name, params):
    rng = np.random.default_rng(params["seed"])
    engine = make_engine(engine_name, params["n_pop"], params["n_csn"])
    engine.set_strategies(
        [Strategy.random(rng) for _ in range(params["n_pop"])]
    )
    hop_dist = LONGER_PATHS if params["longer"] else SHORTER_PATHS
    oracle = RandomPathOracle(rng, hop_dist)
    participants = list(range(params["n_pop"])) + engine.selfish_ids(
        params["n_csn"]
    )
    return engine, oracle, participants


def play(engine, participants, rounds, oracle, stats, exchange=None, rng=None):
    """One tournament: ``run_tournament``, or a one-seating generation on
    a fusing engine (which has no per-tournament entry point)."""
    if getattr(engine, "supports_generation_fusion", False):
        engine.run_generation([participants], rounds, oracle, stats, exchange, rng)
    else:
        engine.run_tournament(participants, rounds, oracle, stats, exchange, rng)


def reputation_state(engine):
    matrix = engine.payoff_matrix()
    return matrix[:, :, 0], matrix[:, :, 1]


def aggregates(engine) -> tuple[np.ndarray, np.ndarray]:
    """(known, pf_sum) in a layout shared by all engines."""
    if hasattr(engine, "known"):
        return (
            np.asarray(engine.known, dtype=np.int64),
            np.asarray(engine.pf_sum, dtype=np.int64),
        )
    # the reference engine keeps per-player tables instead of flat vectors
    m = engine.n_population + engine.max_selfish
    known = np.zeros(m, dtype=np.int64)
    pf_sum = np.zeros(m, dtype=np.int64)
    for pid in range(m):
        table = engine.player(pid).reputation
        known[pid] = table.n_known
        pf_sum[pid] = table.pf_total
    return known, pf_sum


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
class TestReputationInvariants:
    @SETTINGS
    @given(params=scenario)
    def test_counters_sane_and_aggregates_consistent(self, engine_name, params):
        engine, oracle, participants = build(engine_name, params)
        stats = TournamentStats()
        play(engine, participants, params["rounds"], oracle, stats)
        ps, pf = reputation_state(engine)
        assert (ps >= 0).all() and (pf >= 0).all()
        assert (pf <= ps).all(), "forwarded counts exceed observations"
        known, pf_sum = aggregates(engine)
        assert np.array_equal(known, (ps > 0).sum(axis=1))
        assert np.array_equal(pf_sum, pf.sum(axis=1))
        # nobody observes themselves
        assert (np.diagonal(ps) == 0).all()

    @SETTINGS
    @given(params=scenario)
    def test_counters_monotone_across_tournaments(self, engine_name, params):
        engine, oracle, participants = build(engine_name, params)
        play(engine, participants, params["rounds"], oracle, TournamentStats())
        ps1, pf1 = reputation_state(engine)
        play(engine, participants, params["rounds"], oracle, TournamentStats())
        ps2, pf2 = reputation_state(engine)
        assert (ps2 >= ps1).all(), "ps decreased between tournaments"
        assert (pf2 >= pf1).all(), "pf decreased between tournaments"
        engine.reset_generation()
        ps3, pf3 = reputation_state(engine)
        assert not ps3.any() and not pf3.any()


@pytest.mark.parametrize("engine_name", ENGINE_NAMES)
class TestExchangeInvariants:
    @SETTINGS
    @given(params=scenario, xparams=exchange_params)
    def test_exchange_only_adds_evidence(self, engine_name, params, xparams):
        engine, oracle, participants = build(engine_name, params)
        config = ExchangeConfig(enabled=True, **xparams)
        rng = np.random.default_rng(params["seed"] + 1)
        play(engine, participants, params["rounds"], oracle, TournamentStats())
        ps1, pf1 = reputation_state(engine)
        rate1 = np.divide(
            pf1, ps1, out=np.zeros(ps1.shape), where=ps1 > 0
        )
        play(
            engine,
            participants,
            params["rounds"],
            oracle,
            TournamentStats(),
            config,
            rng,
        )
        ps2, pf2 = reputation_state(engine)
        # gossip (and play) only ever adds observations
        assert (ps2 >= ps1).all() and (pf2 >= pf1).all()
        assert (pf2 <= ps2).all()
        known, pf_sum = aggregates(engine)
        assert np.array_equal(known, (ps2 > 0).sum(axis=1))
        assert np.array_equal(pf_sum, pf2.sum(axis=1))


class TestStackedPassInvariants:
    """The fused engine's own entry point, the stacked pass
    (:meth:`~repro.sim.fused.FusedEngine.run_stack`), on ``R`` replications
    at once: every replication keeps the reputation invariants inside its
    own diagonal block, and no evidence crosses into another's."""

    @staticmethod
    def run(engine, params, width, generation):
        n_pop, n_csn = params["n_pop"], params["n_csn"]
        rng = np.random.default_rng([params["seed"], generation])
        hop_dist = LONGER_PATHS if params["longer"] else SHORTER_PATHS
        seatings = [
            [
                [int(v) for v in rng.permutation(n_pop)] + engine.selfish_ids(n_csn)
                for _ in range(3)
            ]
            for _ in range(width)
        ]
        oracles = [
            RandomPathOracle(np.random.default_rng(rng.integers(2**32)), hop_dist)
            for _ in range(width)
        ]
        engine.run_stack(
            seatings,
            params["rounds"],
            oracles,
            [TournamentStats() for _ in range(width)],
        )

    @staticmethod
    def build(params, width):
        rng = np.random.default_rng(params["seed"])
        engine = make_engine(
            "fused", params["n_pop"], params["n_csn"], n_replications=width
        )
        engine.set_strategies(
            [Strategy.random(rng) for _ in range(params["n_pop"])]
        )
        return engine

    @SETTINGS
    @given(params=scenario, width=st.integers(1, 3))
    def test_counters_sane_and_blocks_isolated(self, params, width):
        engine = self.build(params, width)
        self.run(engine, params, width, 0)
        ps, pf = reputation_state(engine)
        assert (ps >= 0).all() and (pf >= 0).all()
        assert (pf <= ps).all(), "forwarded counts exceed observations"
        known, pf_sum = aggregates(engine)
        assert np.array_equal(known, (ps > 0).sum(axis=1))
        assert np.array_equal(pf_sum, pf.sum(axis=1))
        assert (np.diagonal(ps) == 0).all()
        block = engine.block
        owner = np.arange(engine.m) // block
        cross = owner[:, None] != owner[None, :]
        assert not ps[cross].any(), "evidence crossed replication blocks"

    @SETTINGS
    @given(params=scenario, width=st.integers(1, 3))
    def test_counters_monotone_across_passes(self, params, width):
        engine = self.build(params, width)
        self.run(engine, params, width, 0)
        ps1, pf1 = reputation_state(engine)
        self.run(engine, params, width, 1)
        ps2, pf2 = reputation_state(engine)
        assert (ps2 >= ps1).all(), "ps decreased between passes"
        assert (pf2 >= pf1).all(), "pf decreased between passes"
        engine.reset_generation()
        ps3, pf3 = reputation_state(engine)
        assert not ps3.any() and not pf3.any()


class TestFlatExchangeConservation:
    """The flat gossip kernel in isolation: exact conservation properties on
    arbitrary reputation states (no game noise in the way)."""

    state = st.fixed_dictionaries(
        {
            "m": st.integers(4, 10),
            "seed": st.integers(0, 2**31 - 1),
            "density": st.floats(0.1, 0.9),
        }
    )

    @staticmethod
    def random_state(m, seed, density):
        rng = np.random.default_rng(seed)
        ps = (rng.random((m, m)) < density) * rng.integers(1, 20, (m, m))
        np.fill_diagonal(ps, 0)
        pf = rng.integers(0, 20, (m, m)) % (ps + 1)  # pf <= ps
        known = (ps > 0).sum(axis=1)
        pf_sum = pf.sum(axis=1)
        return (
            [row.tolist() for row in ps],
            [row.tolist() for row in pf],
            known.tolist(),
            pf_sum.tolist(),
        )

    @SETTINGS
    @given(params=state, xparams=exchange_params)
    def test_gossip_conserves_and_never_worsens(self, params, xparams):
        ps, pf, known, pf_sum = self.random_state(
            params["m"], params["seed"], params["density"]
        )
        before_ps = [row.copy() for row in ps]
        before_pf = [row.copy() for row in pf]
        config = ExchangeConfig(enabled=True, **xparams)
        rng = np.random.default_rng(params["seed"] + 7)
        participants = list(range(params["m"]))
        messages = exchange_reputation_flat(
            ps, pf, known, pf_sum, participants, config, rng
        )
        a_ps, a_pf = np.asarray(ps), np.asarray(pf)
        b_ps, b_pf = np.asarray(before_ps), np.asarray(before_pf)
        # evidence is only ever added, and stays internally consistent
        assert (a_ps >= b_ps).all() and (a_pf >= b_pf).all()
        assert (a_pf <= a_ps).all()
        assert known == ((a_ps > 0).sum(axis=1)).tolist()
        assert pf_sum == (a_pf.sum(axis=1)).tolist()
        if config.fanout == 0:
            assert messages == 0
            assert (a_ps == b_ps).all() and (a_pf == b_pf).all()
        if config.positive_only:
            # CORE's rule: a gossip message can never worsen a subject's
            # observed forwarding rate
            old_rate = np.divide(
                b_pf, b_ps, out=np.zeros(b_ps.shape), where=b_ps > 0
            )
            new_rate = np.divide(
                a_pf, a_ps, out=np.zeros(a_ps.shape), where=a_ps > 0
            )
            changed = a_ps != b_ps
            assert (
                new_rate[changed] >= old_rate[changed] - 1e-12
            ).all(), "positive-only gossip lowered a forwarding rate"
