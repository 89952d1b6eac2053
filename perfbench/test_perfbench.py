"""Tests of the benchmark's own arithmetic, on tiny smoke-scale inputs.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import child  # noqa: E402
import metrics  # noqa: E402
import probes  # noqa: E402

ENVS = [("TE1", 50, 0), ("TE2", 40, 10)]


def stats(originated: int, delivered: int, csn: int = 0) -> dict:
    return {"nn_originated": originated, "nn_delivered": delivered, "csn_originated": csn}


def rep(index: int, te1: dict, te2: dict, history=()) -> dict:
    overall = {k: te1[k] + te2[k] for k in te1}
    return {
        "replication": index,
        "final_per_env": {"TE1": te1, "TE2": te2},
        "final_overall": overall,
        "history": {"records": list(history)},
    }


# -- games from seatings -------------------------------------------------------


def test_geometry_counts_normal_and_selfish_seats():
    records = [(50, 2), (40, 3)] * 3
    assert metrics.seating_geometry(records, ENVS, 3) == {"TE1": (2, 50), "TE2": (3, 50)}


@pytest.mark.parametrize(
    "records",
    [
        [(50, 2), (40, 3), (50, 2)],  # TE2 drawn once, TE1 twice
        [(50, 2), (40, 3), (50, 1), (40, 3)],  # TE1 tournament counts differ
        [(50, 2), (40, 3), (30, 4), (40, 3)],  # a seat count no environment has
    ],
)
def test_geometry_rejects_inconsistent_seatings(records):
    with pytest.raises(metrics.CheckFailed):
        metrics.seating_geometry(records, ENVS, 2)


def test_games_conserved_and_counted():
    rounds = 8
    geometry = {"TE1": (2, 50), "TE2": (3, 50)}
    # TE1: 2 x 8 x 50 = 800 games, all NN; TE2: 3 x 8 x 50 = 1200, 240 by CSN
    reps = [rep(0, stats(800, 700), stats(960, 300, 240))]
    metrics.check_games_conserved(reps, geometry, rounds)
    assert metrics.games_simulated(reps, generations=3) == 3 * 2000

    short = [rep(0, stats(800, 700), stats(960, 300, 239))]
    with pytest.raises(metrics.CheckFailed):
        metrics.check_games_conserved(short, geometry, rounds)


def test_seating_probe_on_a_smoke_run(monkeypatch, tmp_path):
    """The probe's seating records account for every game a real
    smoke-scale run reports, on the stacked and per-replication paths."""
    import repro.experiments.replication as replication
    import repro.tournament.evaluation as evaluation
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    for engine, reps in (("fused", 2), ("fast", 1)):
        seen = probes.Probes(tmp_path, traced=False, setup_only=False)
        monkeypatch.setattr(probes, "_ACTIVE", seen)
        for module in (replication, evaluation):
            monkeypatch.setattr(
                module, "iter_seatings", probes._seating_probe(module.iter_seatings)
            )
        config = ExperimentConfig.for_case(
            "case3", scale="smoke", engine=engine, replications=reps
        )
        result = run_experiment(config, processes=1)
        monkeypatch.undo()
        out = [r.to_dict() for r in result.replications]
        envs = [(e.name, e.n_normal, e.n_selfish) for e in config.case.environments]
        geometry = metrics.seating_geometry(
            seen.seatings, envs, config.generations * reps
        )
        metrics.check_games_conserved(out, geometry, config.sim.rounds)
        metrics.check_cooperation_bounds(out)
        per_gen = sum(t * config.sim.rounds * s for t, s in geometry.values())
        assert metrics.games_simulated(out, config.generations) == (
            config.generations * reps * per_gen
        )
        assert len(seen.stamps) == 1  # set-up ends once, at the first seating


# -- cooperation and fidelity --------------------------------------------------


def test_cooperation_bounds():
    good = rep(0, stats(10, 10), stats(10, 0), [{"cooperation": 0.5, "cooperation_per_env": {"TE1": 1.0}}])
    metrics.check_cooperation_bounds([good])
    bad = rep(0, stats(10, 10), stats(10, 0), [{"cooperation": 1.2, "cooperation_per_env": {}}])
    with pytest.raises(metrics.CheckFailed):
        metrics.check_cooperation_bounds([bad])


def test_table5_error_against_the_paper():
    from repro.analysis.reporting import PAPER_TABLE5

    paper = {env: values[0] for env, values in PAPER_TABLE5.items()}  # case-3 column
    envs = list(paper)

    def run_at(levels: dict) -> list[dict]:
        return [
            {
                "replication": 0,
                "final_per_env": {
                    env: stats(1000, round(levels[env] * 1000)) for env in envs
                },
            }
        ]

    assert metrics.table5_abs_err_pp(run_at(paper), paper) == pytest.approx(0.0)
    shifted = {env: value - 0.02 for env, value in paper.items()}
    assert metrics.table5_abs_err_pp(run_at(shifted), paper) == pytest.approx(2.0)
    # pooled over replications: 0.60 and 0.70 pool to 0.65, 1 pp from TE2's 0.66
    reps = run_at(paper) + run_at(paper)
    reps[0]["final_per_env"]["TE2"] = stats(1000, 600)
    reps[1]["final_per_env"]["TE2"] = stats(1000, 700)
    assert metrics.table5_abs_err_pp(reps, {"TE2": paper["TE2"]}) == pytest.approx(1.0)


# -- layer split ---------------------------------------------------------------


def test_unattributed_closes_the_sum():
    layers = {"paths.plan": 1.5, "sim.dispatch": 6.0, "sim.fold": 0.25}
    assert metrics.unattributed(8.0, layers) == pytest.approx(0.25)
    assert sum(layers.values()) + metrics.unattributed(8.0, layers) == pytest.approx(8.0)


def test_spread_over_region_sums_to_the_region():
    busy = {"sim.run": 6.0, "paths.plan": 10.0}
    spread = metrics.spread_over_region(busy, covered_s=20.0, region_s=10.0)
    assert spread["sim.run"] == pytest.approx(3.0)
    assert spread["unattributed"] == pytest.approx(2.0)
    assert sum(spread.values()) == pytest.approx(10.0)


def test_layer_split_in_process_moves_kernels_out_of_the_round_pass():
    trace = {
        "self_s": {"sim.run": 5.0, "sim.fold.tournament": 0.5, "sim.fold": 0.25, "paths.plan": 1.0},
        "first_start": {},
    }
    telemetry = {"timers": {"kernel.commit_s": {"total_s": 2.0}}}
    split, sim_run_s = child.layer_split(trace, telemetry, [], pooled=False)
    assert split["sim.dispatch"] == pytest.approx(3.0)
    assert split["sim.kernel.commit"] == pytest.approx(2.0)
    assert split["sim.fold"] == pytest.approx(0.75)
    assert sim_run_s == pytest.approx(5.5)
    assert sum(split.values()) == pytest.approx(6.75)  # all the spans covered


def test_layer_split_pooled_spreads_worker_time_over_the_region():
    trace = {
        "self_s": {"service.submit": 0.5, "service.run": 0.25, "experiments.run": 10.0},
        "first_start": {"experiments.run": 100.0},
    }
    tasks = [
        {"t0": 101.0, "t1": 110.0, "trace": {"self_s": {"sim.run": 6.0, "paths.plan": 2.0}}},
        {"t0": 101.0, "t1": 110.0, "trace": {"self_s": {"sim.run": 6.0, "paths.plan": 3.0}}},
    ]
    split, _ = child.layer_split(trace, {}, tasks, pooled=True)
    assert split["parallel.spawn"] == pytest.approx(1.0)
    # 18 busy seconds over a 9 s region after the spawn: scale 0.5
    assert split["sim.dispatch"] == pytest.approx(6.0)
    assert split["paths.plan"] == pytest.approx(2.5)
    assert split["service.overhead"] == pytest.approx(0.25)
    wall = 11.0
    assert metrics.unattributed(wall, split) == pytest.approx(0.25 + 0.5)


# -- medians -------------------------------------------------------------------


def test_median():
    assert metrics.median([3.0, 1.0, 2.0]) == 2.0
    assert metrics.median([4.0, 1.0, 2.0, 3.0]) == 2.5
