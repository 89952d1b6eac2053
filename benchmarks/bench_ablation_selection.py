"""Ablation: tournament vs roulette selection (§5's stated deviation from the
IPDRP reference, which used roulette).

Runs the miniature world under both selection schemes and reports final
cooperation; times one GA generation step for each scheme.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.parameters import GAConfig, SimulationConfig
from repro.experiments.cases import EvaluationCase
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication
from repro.ga.evolution import GeneticAlgorithm
from repro.tournament.environment import TournamentEnvironment
from repro.utils.tables import format_table

from benchmarks.conftest import emit_report


def mini_config(selection: str) -> ExperimentConfig:
    return ExperimentConfig(
        case=EvaluationCase(
            "mini",
            "selection ablation world",
            (TournamentEnvironment("MINI", 12, 2),),
            "shorter",
        ),
        generations=18,
        replications=1,
        seed=5,
        ga=GAConfig(population_size=24, selection=selection),
        sim=SimulationConfig(rounds=40),
    )


@pytest.mark.parametrize("selection", ["tournament", "roulette"])
def test_ga_step_kernel(benchmark, selection):
    rng = np.random.default_rng(0)
    ga = GeneticAlgorithm(GAConfig(population_size=100, selection=selection))
    pop = ga.initial_population(13, rng)
    fitness = rng.random(100) * 5
    out = benchmark(ga.next_generation, pop, fitness, rng)
    assert len(out) == 100


def test_selection_ablation_report(session):
    rows = []
    finals = {}
    for selection in ("tournament", "roulette"):
        rep = run_replication(mini_config(selection), 0)
        final = float(rep.history.cooperation_series()[-5:].mean())
        finals[selection] = final
        rows.append([selection, f"{final * 100:.1f}%"])
    report = format_table(
        rows,
        headers=["selection", "final cooperation (mini world)"],
        title=(
            "Ablation: selection scheme (paper replaced ref [12]'s roulette"
            " with tournament)"
        ),
    )
    emit_report(
        "ablation_selection",
        session,
        report,
        metrics={f"final_coop_{k}": v for k, v in finals.items()},
    )
    # The finding that motivates the paper's §5 deviation from ref [12]:
    # tournament selection sustains cooperation where roulette's weak
    # pressure (payoff differences are small relative to the mean) lets
    # cooperation collapse.
    assert finals["tournament"] > 0.3
    assert finals["tournament"] > finals["roulette"]
