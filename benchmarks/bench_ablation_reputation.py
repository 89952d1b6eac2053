"""Ablation: remove the reputation-shaped payoff table (§4.2's claim).

"If such system was not used, the payoff for selfish behavior (discarding
packets) would always be higher than for forwarding" — under those payoffs
evolution should abandon forwarding entirely; with the paper's table it
sustains cooperation.  This bench demonstrates both regimes.
"""

from __future__ import annotations

from repro.config.parameters import GAConfig, SimulationConfig
from repro.core.payoff import PayoffConfig
from repro.experiments.cases import EvaluationCase
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication
from repro.tournament.environment import TournamentEnvironment
from repro.utils.tables import format_table

from benchmarks.conftest import emit_report


def mini_config(payoffs: PayoffConfig) -> ExperimentConfig:
    return ExperimentConfig(
        case=EvaluationCase(
            "mini",
            "reputation-payoff ablation world",
            (TournamentEnvironment("MINI", 12, 0),),
            "shorter",
        ),
        generations=18,
        replications=1,
        seed=11,
        ga=GAConfig(population_size=24),
        sim=SimulationConfig(rounds=40, payoffs=payoffs),
    )


def run_final_cooperation(payoffs: PayoffConfig) -> float:
    rep = run_replication(mini_config(payoffs), 0)
    return float(rep.history.cooperation_series()[-5:].mean())


def test_reputation_payoffs_kernel(benchmark):
    coop = benchmark.pedantic(
        run_final_cooperation,
        args=(PayoffConfig(),),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert coop > 0.5


def test_reputation_ablation_report(session):
    with_rep = run_final_cooperation(PayoffConfig())
    without_rep = run_final_cooperation(PayoffConfig.without_reputation())
    report = format_table(
        [
            ["paper payoffs (reputation-shaped)", f"{with_rep * 100:.1f}%"],
            ["flat payoffs (no enforcement)", f"{without_rep * 100:.1f}%"],
        ],
        headers=["payoff regime", "final cooperation (mini world)"],
        title="Ablation: reputation enforcement in the payoff table (§4.2)",
    )
    emit_report(
        "ablation_reputation",
        session,
        report,
        metrics={
            "final_coop_with_reputation": with_rep,
            "final_coop_without_reputation": without_rep,
        },
    )
    assert with_rep > 0.5
    assert without_rep < 0.25
    assert with_rep - without_rep > 0.4
