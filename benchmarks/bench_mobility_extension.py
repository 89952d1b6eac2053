"""Extension bench: cooperation vs node speed on a mobile topology.

The paper's random oracle is the infinite-mobility limit and the same
unit-disk topology at speed 0 the zero-mobility limit; the mobility
subsystem sweeps the regime in between.  As node speed rises,
neighbourhoods churn faster, reputation about specific relays goes stale
sooner, and selfish relays are punished more slowly — this bench
quantifies that with a population of altruists and constantly selfish
relays at several waypoint speeds, plus the two limit regimes for
reference.
"""

from __future__ import annotations

import numpy as np

from repro.core.node import AlwaysForwardPlayer, ConstantlySelfishPlayer
from repro.core.payoff import PayoffConfig
from repro.game.stats import TournamentStats
from repro.mobility import MobilityConfig, build_oracle
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.reputation.activity import ActivityClassifier
from repro.reputation.trust import TrustTable
from repro.tournament.runner import run_tournament
from repro.utils.tables import format_table

from benchmarks.conftest import emit_report

N_NORMAL, N_CSN, ROUNDS = 20, 5, 30
RADIO_RANGE = 0.45  # ~2x the connectivity threshold for 25 nodes
SPEEDS = (0.005, 0.02, 0.08)  # unit-square lengths per round


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


def make_mobile_oracle(speed: float, seed: int = 6):
    """Waypoint speeds uniform in [0.5, 1.5] x ``speed``; static at 0."""
    config = MobilityConfig(
        model="waypoint",
        speed_min=0.5 * speed,
        speed_max=1.5 * speed,
        pause_time=0.0,
        radio_range=RADIO_RANGE,
    )
    ids = list(range(N_NORMAL + N_CSN))
    return build_oracle(config, ids, np.random.default_rng(seed))


def test_mobility_tournament_kernel(benchmark):
    stats = benchmark.pedantic(
        lambda: play(make_mobile_oracle(SPEEDS[1])),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert stats.nn_originated == N_NORMAL * ROUNDS


def test_mobility_extension_report(session):
    rows = []

    def add_row(label, stats, oracle=None):
        cache_line = "-"
        if oracle is not None:
            hits, misses = oracle.provider.cache_info
            cache_line = f"{hits}/{hits + misses} hits"
        rows.append(
            [
                label,
                f"{stats.cooperation_level * 100:.1f}%",
                f"{stats.nn_csn_free_fraction * 100:.1f}%",
                cache_line,
            ]
        )

    static = make_mobile_oracle(0.0)
    static_stats = play(static)
    add_row("static topology (speed 0)", static_stats, static)
    speed_coops = []
    for speed in SPEEDS:
        oracle = make_mobile_oracle(speed)
        stats = play(oracle)
        speed_coops.append(stats.cooperation_level)
        add_row(f"waypoint, speed {speed:g}/round", stats, oracle)
    random_stats = play(RandomPathOracle(np.random.default_rng(8), SHORTER_PATHS))
    add_row("random pairing (paper, speed ~inf)", random_stats)

    report = format_table(
        rows,
        headers=[
            "mobility regime",
            "NN delivery",
            "CSN-free chosen paths",
            "route cache",
        ],
        title="Extension: cooperation vs node speed (random waypoint)",
    )
    emit_report(
        "mobility_extension",
        session,
        report,
        metrics={
            "nn_delivery_static": static_stats.cooperation_level,
            "nn_delivery_random": random_stats.cooperation_level,
            **{
                f"nn_delivery_speed_{speed:g}": coop
                for speed, coop in zip(SPEEDS, speed_coops)
            },
        },
    )
    assert len(speed_coops) >= 3
    assert all(0.0 <= c <= 1.0 for c in speed_coops)
    assert static_stats.nn_originated == random_stats.nn_originated
