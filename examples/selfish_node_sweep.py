"""Scenario: how much selfishness can a self-policing network absorb?

The paper's motivation (§1): battery-saving selfish nodes threaten ad hoc
networks.  This example sweeps the fraction of constantly selfish nodes in a
tournament and reports, after evolution, the delivery rate for normal nodes,
the delivery rate for the CSN themselves (the enforcement effect), and how
often sources manage to route around CSN.

Run:
    python examples/selfish_node_sweep.py
"""

from __future__ import annotations

from repro import ExperimentConfig, GAConfig, SimulationConfig
from repro.experiments.cases import EvaluationCase
from repro.experiments.runner import run_experiment
from repro.tournament.environment import TournamentEnvironment
from repro.utils.tables import format_table

POPULATION = 60
TOURNAMENT = 30
CSN_COUNTS = (0, 3, 6, 12, 18)


def sweep_point(n_csn: int):
    case = EvaluationCase(
        name=f"sweep_csn{n_csn}",
        description=f"{n_csn} CSN of {TOURNAMENT} seats",
        environments=(
            TournamentEnvironment(f"SW{n_csn}", TOURNAMENT, n_csn),
        ),
        path_mode="shorter",
    )
    config = ExperimentConfig(
        case=case,
        generations=20,
        replications=2,
        seed=42,
        ga=GAConfig(population_size=POPULATION),
        sim=SimulationConfig(rounds=60),
    )
    result = run_experiment(config)
    env = case.environments[0].name
    stats = result.final_env_stats(env)
    return stats


def main() -> None:
    rows = []
    for n_csn in CSN_COUNTS:
        print(f"evolving with {n_csn} CSN / {TOURNAMENT} seats ...")
        stats = sweep_point(n_csn)
        rows.append(
            [
                f"{n_csn}/{TOURNAMENT} ({n_csn / TOURNAMENT * 100:.0f}%)",
                f"{stats.cooperation_level * 100:.1f}%",
                f"{stats.csn_delivery_level * 100:.1f}%",
                f"{stats.nn_csn_free_fraction * 100:.1f}%",
                f"{stats.requests_from_csn.fraction_accepted() * 100:.1f}%",
            ]
        )
    print()
    print(
        format_table(
            rows,
            headers=[
                "CSN share",
                "NN delivery",
                "CSN delivery",
                "CSN-free paths",
                "CSN requests accepted",
            ],
            title="Cooperation enforcement vs selfish-node density",
        )
    )
    print(
        "\nReading: normal nodes keep communicating while CSN packets are"
        "\nfrozen out - selfishness buys battery but loses the network."
    )


if __name__ == "__main__":
    main()
