"""Table 5 — per-environment cooperation and CSN-free paths (cases 3-4).

Timed kernel: one paper-sized generation evaluation of case 3 (four
environments, 50-seat tournaments) on the default engine.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import render_table5
from repro.config.presets import paper_environments
from repro.core.strategy import Strategy
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.sim import DEFAULT_ENGINE, make_engine
from repro.tournament.evaluation import evaluate_generation

from benchmarks.conftest import emit_report


def evaluate_case3_generation(rounds: int = 20) -> float:
    rng = np.random.default_rng(1)
    engine = make_engine(DEFAULT_ENGINE, 100, 30)
    engine.set_strategies([Strategy.random(rng) for _ in range(100)])
    oracle = RandomPathOracle(rng, SHORTER_PATHS)
    result = evaluate_generation(
        engine,
        paper_environments(),
        rounds=rounds,
        plays_per_environment=1,
        oracle=oracle,
        rng=rng,
    )
    return result.cooperation_level


def test_table5_generation_kernel(benchmark):
    coop = benchmark.pedantic(
        evaluate_case3_generation, rounds=1, iterations=1, warmup_rounds=0
    )
    assert 0.0 <= coop <= 1.0


def test_table5_report(session):
    case3 = session.result_for("case3")
    case4 = session.result_for("case4")
    report = render_table5(case3, case4)
    emit_report(
        "table5",
        session,
        report,
        metrics={
            "case3_final_coop": case3.final_cooperation()[0],
            "case4_final_coop": case4.final_cooperation()[0],
        },
    )
    if session.scale != "smoke":
        coop3 = case3.per_env_cooperation()
        coop4 = case4.per_env_cooperation()
        # paper shape: cooperation decreases with CSN density in both cases,
        # and the shorter-path case dominates the longer-path case env-wise.
        assert coop3["TE1"] > coop3["TE2"] > coop3["TE3"] >= coop3["TE4"]
        assert coop4["TE1"] > coop4["TE2"] > coop4["TE3"] >= coop4["TE4"]
        for env in ("TE2", "TE3", "TE4"):
            assert coop3[env] > coop4[env]
        # TE1 is CSN-free in both cases
        assert case3.per_env_csn_free()["TE1"] == 1.0
