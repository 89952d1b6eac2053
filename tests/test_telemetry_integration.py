"""End-to-end telemetry: counters reconcile with engine ground truth.

The acceptance bar for the telemetry layer is that an instrumented run's
aggregated counters equal what the engines actually did — games played
counted independently by the engine layer (``engine.games``) and the
evaluation layer (``evaluation.games``, from the tournament stats the
paper's numbers come from) must match exactly — and that instrumentation
never perturbs simulation results (telemetry reads no RNG).
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import ReproductionSession
from repro.experiments.replication import run_replication
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import run_experiment
from repro.telemetry import TelemetryConfig
from repro.utils.validation import validate_run_manifest


def telemetry_config(case: str, **overrides) -> ExperimentConfig:
    config = ExperimentConfig.for_case(case, scale="smoke", **overrides)
    return config.with_(telemetry=TelemetryConfig(enabled=True))


@pytest.fixture(scope="module")
def smoke_result() -> ExperimentResult:
    return run_experiment(telemetry_config("case1"), processes=1)


class TestReconciliation:
    def test_games_reconcile_across_layers(self, smoke_result):
        counters = smoke_result.telemetry["metrics"]["counters"]
        assert counters["engine.games"] > 0
        assert counters["engine.games"] == counters["evaluation.games"]

    def test_round_and_tournament_counts(self, smoke_result):
        config = telemetry_config("case1")
        counters = smoke_result.telemetry["metrics"]["counters"]
        assert (
            counters["engine.rounds"]
            == counters["engine.tournaments"] * config.sim.rounds
        )
        assert counters["evaluation.generations"] == (
            config.generations * config.replications
        )
        # one GA step per generation except the last, per replication
        assert counters["ga.generations"] == (
            (config.generations - 1) * config.replications
        )

    def test_pool_metrics_cover_all_replications(self, smoke_result):
        config = telemetry_config("case1")
        metrics = smoke_result.telemetry["metrics"]
        assert metrics["counters"]["parallel.tasks"] == config.replications
        assert metrics["histograms"]["parallel.task_s"]["count"] == (
            config.replications
        )
        assert 0.0 < metrics["gauges"]["parallel.utilization"] <= 1.0

    def test_ga_timers_and_diversity(self, smoke_result):
        metrics = smoke_result.telemetry["metrics"]
        for name in ("ga.selection_s", "ga.crossover_s", "ga.mutation_s"):
            assert metrics["timers"][name]["count"] > 0
        assert 0.0 < metrics["gauges"]["ga.diversity"] <= 1.0

    def test_span_tree_present(self, smoke_result):
        timers = smoke_result.telemetry["metrics"]["timers"]
        config = telemetry_config("case1")
        expected_generations = config.generations * config.replications
        assert timers["span.generation"]["count"] == expected_generations
        assert "span.generation/tournament" in timers
        assert timers["span.generation/tournament/round"]["count"] > 0

    def test_events_recorded(self, smoke_result):
        events = smoke_result.telemetry["events"]
        assert any(event.get("event") == "span" for event in events)
        assert smoke_result.telemetry["wall_s"] > 0.0


class TestProcessPoolParity:
    def test_worker_processes_ship_telemetry(self):
        """Counters harvested in worker processes merge into the parent:
        the serial and two-worker runs reconcile to identical game counts."""
        config = telemetry_config("case1", replications=2)
        serial = run_experiment(config, processes=1)
        pooled = run_experiment(config, processes=2)
        serial_counters = serial.telemetry["metrics"]["counters"]
        pooled_counters = pooled.telemetry["metrics"]["counters"]
        for name in ("engine.games", "evaluation.games", "ga.crossovers"):
            assert serial_counters[name] == pooled_counters[name]
        assert pooled_counters["engine.games"] == pooled_counters[
            "evaluation.games"
        ]


class TestOracleCounters:
    def test_mobile_approx_counters(self):
        config = telemetry_config("mobile_waypoint").with_route_cache("approx", 8)
        result = run_experiment(config, processes=1)
        metrics = result.telemetry["metrics"]
        counters = metrics["counters"]
        lookups = counters["route.approx.cache_hits"] + (
            counters["route.approx.cache_misses"]
        )
        assert lookups > 0
        # every miss triggers at most one full compute; stale serves and
        # revalidations only exist on the approx policy
        assert counters["route.approx.route_computes"] <= (
            counters["route.approx.cache_misses"]
        )
        assert counters["route.approx.stale_serves"] >= 0
        assert metrics["gauges"]["route.drift_budget"] == 8
        assert counters["mobility.steps"] > 0
        assert counters["ksp.queries"] > 0
        # the per-epoch snapshot cost is reported apart from enumeration
        assert counters["ksp.snapshot_s"] > 0
        # ... and timing it perturbs nothing
        plain = run_experiment(
            config.with_(telemetry=TelemetryConfig(enabled=False)), processes=1
        )
        assert plain.telemetry is None
        assert plain.replications == result.replications

    def test_fused_replay_counter(self):
        config = telemetry_config("case1", engine="fused")
        result = run_experiment(config, processes=1)
        counters = result.telemetry["metrics"]["counters"]
        assert 0 <= counters["engine.turbo.replayed_games"]
        assert counters["engine.turbo.replayed_games"] <= counters["engine.games"]
        assert counters["engine.games"] == counters["evaluation.games"]


class TestNeutrality:
    def test_telemetry_does_not_change_results(self):
        """Instrumentation must consume no RNG and perturb nothing."""
        config = ExperimentConfig.for_case("case1", scale="smoke")
        plain = run_replication(config, 0)
        instrumented = run_replication(
            config.with_(telemetry=TelemetryConfig(enabled=True)), 0
        )
        assert instrumented.telemetry is not None
        assert plain.telemetry is None
        assert plain.history.to_dict() == instrumented.history.to_dict()
        assert plain.final_population == instrumented.final_population
        assert plain.final_overall.to_dict() == instrumented.final_overall.to_dict()

    def test_disabled_run_attaches_no_telemetry(self):
        config = ExperimentConfig.for_case("case1", scale="smoke")
        result = run_experiment(config, processes=1)
        assert result.telemetry is None
        assert "telemetry" not in result.to_dict()


class TestPersistence:
    def test_saved_result_carries_results_only(self, smoke_result, tmp_path):
        """The telemetry block lives in the run manifest, not the raw
        results document, so a reload has results and no timings."""
        import json

        path = smoke_result.save(tmp_path / "case1.json")
        assert "telemetry" not in json.loads(path.read_text())
        loaded = ExperimentResult.load(path)
        assert loaded.telemetry is None
        assert loaded.to_dict() == smoke_result.to_dict()
        assert loaded == smoke_result

    def test_session_writes_validated_manifest(self, tmp_path):
        session = ReproductionSession(
            scale="smoke",
            overrides={"telemetry": True},
            run={"processes": 1},
            telemetry_dir=tmp_path,
        )
        session.result_for("case1")
        manifest_path = session.manifests["case1"]
        assert manifest_path == tmp_path / "case1_smoke_manifest.json"
        import json

        payload = json.loads(manifest_path.read_text())
        validate_run_manifest(payload, name="session manifest")
        assert payload["run"]["case"] == "case1"
        counters = payload["metrics"]["counters"]
        assert counters["engine.games"] == counters["evaluation.games"]
        assert (tmp_path / "case1_smoke_metrics.jsonl").exists()

    def test_session_without_telemetry_writes_nothing(self, tmp_path):
        session = ReproductionSession(
            scale="smoke", run={"processes": 1}, telemetry_dir=tmp_path
        )
        session.result_for("case1")
        assert session.manifests == {}
        assert list(tmp_path.iterdir()) == []

    def test_session_cache_hit_writes_no_manifest(self, tmp_path):
        """Nothing runs on a cache hit, so there is nothing to report."""

        def session(telemetry_dir):
            return ReproductionSession(
                scale="smoke",
                overrides={"telemetry": True},
                run={"processes": 1},
                cache_dir=tmp_path / "cache",
                telemetry_dir=telemetry_dir,
            )

        fresh = session(tmp_path / "fresh")
        fresh.result_for("case1")
        assert set(fresh.manifests) == {"case1"}
        hit = session(tmp_path / "hit")
        assert hit.result_for("case1") == fresh.result_for("case1")
        assert hit.manifests == {}
        assert not (tmp_path / "hit").exists()
