"""Scenario: a low-mobility sensor field on a static unit-disk topology.

The paper models maximal mobility (random intermediates every packet).  Here
the same game runs on a fixed geometric topology — e.g. sensors bolted to a
field — using the routed unit-disk oracle with nodes that never move (a
waypoint model at speed 0).  Because neighbours recur, reputation about the
few local relays accumulates quickly and selfish relays are identified much
faster than under random pairing.

Run:
    python examples/static_topology.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AlwaysForwardPlayer,
    ConstantlySelfishPlayer,
    MobilityConfig,
    PayoffConfig,
    RandomPathOracle,
    SHORTER_PATHS,
    TrustTable,
)
from repro.game.stats import TournamentStats
from repro.mobility import build_oracle
from repro.reputation.activity import ActivityClassifier
from repro.tournament.runner import run_tournament
from repro.utils.tables import format_table

N_NODES = 30
N_CSN = 6
ROUNDS = 40
RADIO_RANGE = 0.38


def build_players():
    players = {pid: AlwaysForwardPlayer(pid) for pid in range(N_NODES - N_CSN)}
    for pid in range(N_NODES - N_CSN, N_NODES):
        players[pid] = ConstantlySelfishPlayer(pid)
    return players


def play(oracle) -> TournamentStats:
    return run_tournament(
        build_players(),
        list(range(N_NODES)),
        ROUNDS,
        oracle,
        TrustTable(),
        ActivityClassifier(),
        PayoffConfig(),
    )


def main() -> None:
    config = MobilityConfig(
        model="waypoint", speed_min=0.0, speed_max=0.0, radio_range=RADIO_RANGE
    )
    oracle = build_oracle(config, list(range(N_NODES)), np.random.default_rng(7))
    mean_deg, min_deg, max_deg = oracle.topology.degree_stats()
    print(
        f"placed {N_NODES} nodes (radio range {RADIO_RANGE});"
        f" degree mean/min/max = {mean_deg:.1f}/{min_deg}/{max_deg}"
    )

    topo_stats = play(oracle)
    rand_stats = play(RandomPathOracle(np.random.default_rng(9), SHORTER_PATHS))

    rows = [
        [
            "static topology",
            f"{topo_stats.cooperation_level * 100:.1f}%",
            f"{topo_stats.nn_csn_free_fraction * 100:.1f}%",
            f"{topo_stats.requests_from_csn.fraction_accepted() * 100:.1f}%",
        ],
        [
            "random pairing (paper)",
            f"{rand_stats.cooperation_level * 100:.1f}%",
            f"{rand_stats.nn_csn_free_fraction * 100:.1f}%",
            f"{rand_stats.requests_from_csn.fraction_accepted() * 100:.1f}%",
        ],
    ]
    print()
    print(
        format_table(
            rows,
            headers=[
                "network model",
                "NN delivery",
                "CSN-free paths",
                "CSN requests accepted",
            ],
            title=f"Altruists + {N_CSN} selfish relays, {ROUNDS} rounds",
        )
    )


if __name__ == "__main__":
    main()
