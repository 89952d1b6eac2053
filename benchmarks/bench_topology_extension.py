"""Extension bench: static geometric topology vs the paper's random pairing.

The paper's oracle models maximal mobility (fresh random intermediates every
game).  The routed oracle at speed 0 pins nodes in the unit square, so the
same neighbours recur — reputation accumulates about far fewer, more
relevant nodes.  Reports delivery rates for both regimes over identical
populations.
"""

from __future__ import annotations

import numpy as np

from repro.core.node import AlwaysForwardPlayer, ConstantlySelfishPlayer
from repro.core.payoff import PayoffConfig
from repro.game.stats import TournamentStats
from repro.mobility import MobilePathOracle, MobilityConfig, build_oracle
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.reputation.activity import ActivityClassifier
from repro.reputation.trust import TrustTable
from repro.tournament.runner import run_tournament
from repro.utils.tables import format_table

from benchmarks.conftest import emit_report

N_NORMAL, N_CSN, ROUNDS = 20, 5, 30


def build_players():
    players = {pid: AlwaysForwardPlayer(pid) for pid in range(N_NORMAL)}
    for k in range(N_CSN):
        players[N_NORMAL + k] = ConstantlySelfishPlayer(N_NORMAL + k)
    return players


def play(oracle) -> TournamentStats:
    return run_tournament(
        build_players(),
        list(range(N_NORMAL + N_CSN)),
        ROUNDS,
        oracle,
        TrustTable(),
        ActivityClassifier(),
        PayoffConfig(),
    )


def make_topology_oracle(seed: int = 6) -> MobilePathOracle:
    """A static unit-disk network: the waypoint model at speed 0."""
    config = MobilityConfig(
        model="waypoint", speed_min=0.0, speed_max=0.0, radio_range=0.42
    )
    ids = list(range(N_NORMAL + N_CSN))
    return build_oracle(config, ids, np.random.default_rng(seed))


def test_topology_tournament_kernel(benchmark):
    stats = benchmark.pedantic(
        lambda: play(make_topology_oracle()),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert stats.nn_originated == N_NORMAL * ROUNDS


def test_topology_extension_report(session):
    random_stats = play(RandomPathOracle(np.random.default_rng(8), SHORTER_PATHS))
    topo_stats = play(make_topology_oracle())
    rows = [
        [
            "random pairing (paper, high mobility)",
            f"{random_stats.cooperation_level * 100:.1f}%",
            f"{random_stats.nn_csn_free_fraction * 100:.1f}%",
        ],
        [
            "geometric topology (static, low mobility)",
            f"{topo_stats.cooperation_level * 100:.1f}%",
            f"{topo_stats.nn_csn_free_fraction * 100:.1f}%",
        ],
    ]
    report = format_table(
        rows,
        headers=["network model", "NN delivery", "CSN-free chosen paths"],
        title="Extension: static unit-disk topology vs random pairing (§4.1)",
    )
    emit_report(
        "topology_extension",
        session,
        report,
        metrics={
            "nn_delivery_random": random_stats.cooperation_level,
            "nn_delivery_topology": topo_stats.cooperation_level,
        },
    )
    assert random_stats.nn_originated == topo_stats.nn_originated
