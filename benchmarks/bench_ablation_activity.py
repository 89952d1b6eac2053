"""Ablation: trust-only strategies (activity dimension disabled).

The paper's strategies condition on trust x activity.  Setting the activity
band very wide makes every known source 'medium' activity, collapsing the
three activity columns into one — i.e. a trust-only strategy space.  The
bench compares evolved cooperation with and without the activity dimension.
"""

from __future__ import annotations

from repro.config.parameters import GAConfig, SimulationConfig
from repro.experiments.cases import EvaluationCase
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication
from repro.tournament.environment import TournamentEnvironment
from repro.utils.tables import format_table

from benchmarks.conftest import emit_report


def mini_config(activity_band: float) -> ExperimentConfig:
    return ExperimentConfig(
        case=EvaluationCase(
            "mini",
            "activity ablation world",
            (TournamentEnvironment("MINI", 12, 3),),
            "shorter",
        ),
        generations=18,
        replications=1,
        seed=17,
        ga=GAConfig(population_size=24),
        sim=SimulationConfig(rounds=40, activity_band=activity_band),
    )


def run_final(band: float) -> float:
    rep = run_replication(mini_config(band), 0)
    return float(rep.history.cooperation_series()[-5:].mean())


def test_activity_ablation_kernel(benchmark):
    coop = benchmark.pedantic(
        run_final, args=(0.2,), rounds=1, iterations=1, warmup_rounds=0
    )
    assert 0.0 <= coop <= 1.0


def test_activity_ablation_report(session):
    with_activity = run_final(0.2)  # the paper's +-20% band
    trust_only = run_final(1e9)  # every known source classified MI
    report = format_table(
        [
            ["trust x activity (paper, band 0.2)", f"{with_activity * 100:.1f}%"],
            ["trust only (band -> inf)", f"{trust_only * 100:.1f}%"],
        ],
        headers=["strategy space", "final cooperation (mini world)"],
        title="Ablation: activity dimension of the strategy (§3.2)",
    )
    emit_report(
        "ablation_activity",
        session,
        report,
        metrics={
            "final_coop_with_activity": with_activity,
            "final_coop_trust_only": trust_only,
        },
    )
    # both regimes sustain cooperation; the claim tested is that the activity
    # dimension does not *break* evolution (the paper never isolates it).
    assert with_activity > 0.3
    assert trust_only > 0.3
