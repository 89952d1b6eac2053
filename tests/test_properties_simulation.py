"""Cross-module property tests: whole-simulation invariants under random
configurations (hypothesis drives the scenario shape, numpy the content)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategy import Strategy
from repro.game.stats import TournamentStats
from repro.paths.distributions import LONGER_PATHS, SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.sim.batch import BatchEngine
from repro.tournament.environment import TournamentEnvironment
from repro.tournament.evaluation import evaluate_generation

scenario = st.fixed_dictionaries(
    {
        "n_pop": st.integers(8, 20),
        "n_csn": st.integers(0, 5),
        "rounds": st.integers(1, 8),
        "seed": st.integers(0, 2**31 - 1),
        "longer": st.booleans(),
    }
)


def run_scenario(params) -> tuple[BatchEngine, TournamentStats, int]:
    rng = np.random.default_rng(params["seed"])
    engine = BatchEngine(params["n_pop"], params["n_csn"])
    engine.set_strategies(
        [Strategy.random(rng) for _ in range(params["n_pop"])]
    )
    hop_dist = LONGER_PATHS if params["longer"] else SHORTER_PATHS
    oracle = RandomPathOracle(rng, hop_dist)
    participants = list(range(params["n_pop"])) + engine.selfish_ids(
        params["n_csn"]
    )
    stats = TournamentStats()
    engine.run_tournament(participants, params["rounds"], oracle, stats, None, None)
    return engine, stats, len(participants)


@settings(max_examples=25, deadline=None)
@given(scenario)
def test_packet_conservation(params):
    """Every participant sources exactly once per round; every packet is
    either delivered or dropped."""
    _, stats, n_participants = run_scenario(params)
    total = stats.nn_originated + stats.csn_originated
    assert total == n_participants * params["rounds"]
    assert stats.nn_delivered <= stats.nn_originated
    assert stats.csn_delivered <= stats.csn_originated


@settings(max_examples=25, deadline=None)
@given(scenario)
def test_request_accounting(params):
    """Accepted + rejected == total requests, for both source classes."""
    _, stats, _ = run_scenario(params)
    for counters in (stats.requests_from_nn, stats.requests_from_csn):
        assert (
            counters.accepted + counters.rejected_by_nn + counters.rejected_by_csn
            == counters.total
        )


@settings(max_examples=25, deadline=None)
@given(scenario)
def test_path_choices_match_games(params):
    _, stats, n_participants = run_scenario(params)
    assert stats.nn_paths_chosen == stats.nn_originated
    assert stats.csn_paths_chosen == stats.csn_originated


@settings(max_examples=25, deadline=None)
@given(scenario)
def test_reputation_matrix_invariants(params):
    """pf <= ps cell-wise; diagonal empty; CSN never observed forwarding."""
    engine, _, _ = run_scenario(params)
    matrix = engine.payoff_matrix()
    ps, pf = matrix[:, :, 0], matrix[:, :, 1]
    assert (pf <= ps).all()
    assert (np.diag(ps) == 0).all()
    csn_cols = ps[:, params["n_pop"] :]
    csn_fwd = pf[:, params["n_pop"] :]
    assert (csn_fwd == 0).all()  # CSN never forward
    del csn_cols


@settings(max_examples=25, deadline=None)
@given(scenario)
def test_fitness_bounded_by_max_payoff(params):
    engine, _, _ = run_scenario(params)
    fitness = engine.fitness()
    assert (fitness >= 0.0).all()
    assert (fitness <= engine.payoffs.max_payoff).all()


@settings(max_examples=10, deadline=None)
@given(scenario, st.integers(1, 2))
def test_full_evaluation_invariants(params, plays):
    """evaluate_generation over a random environment keeps all invariants."""
    rng = np.random.default_rng(params["seed"])
    n_pop = max(params["n_pop"], 10)
    engine = BatchEngine(n_pop, params["n_csn"])
    engine.set_strategies([Strategy.random(rng) for _ in range(n_pop)])
    env = TournamentEnvironment(
        "P", min(8, n_pop), min(params["n_csn"], min(8, n_pop) - 3)
    )
    oracle = RandomPathOracle(rng, SHORTER_PATHS)
    result = evaluate_generation(
        engine,
        [env],
        rounds=params["rounds"],
        plays_per_environment=plays,
        oracle=oracle,
        rng=rng,
    )
    assert 0.0 <= result.cooperation_level <= 1.0
    assert result.fitness.shape == (n_pop,)
    assert (result.fitness >= 0).all()
    # every population member played at least `plays` tournaments
    stats = result.per_environment["P"]
    assert stats.nn_originated >= n_pop * plays * params["rounds"] // 2
