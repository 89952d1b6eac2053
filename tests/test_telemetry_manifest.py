"""Run-manifest contract tests: schema validation, hashing, files, rendering.

The manifest is the artefact a ``--telemetry`` run leaves behind and the
surface ``repro stats`` consumes, so its exact-key schema and the
config-hash stability rules (telemetry settings excluded) are pinned here.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.telemetry import (
    TelemetryConfig,
    build_run_manifest,
    config_hash,
    render_manifest,
    telemetry_session,
    write_run_manifest,
)
from repro.utils.validation import RUN_MANIFEST_KEYS, validate_run_manifest


@pytest.fixture()
def config_summary() -> dict:
    return ExperimentConfig.for_case("case1", scale="smoke").describe()


def sample_telemetry() -> dict:
    with telemetry_session(TelemetryConfig(enabled=True)) as tel:
        tel.count("engine.games", 2400)
        tel.set_gauge("ga.diversity", 0.93)
        tel.observe("route.drift_age", 3, bounds=(1, 2, 4))
        tel.timer_add("ga.selection_s", 0.25)
        tel.timer_add("ga.selection_s", 0.75)
        tel.event("span", span="generation", dur_s=0.5)
        export = tel.export()
    export["wall_s"] = 1.5
    return export


class TestConfigHash:
    def test_stable_across_telemetry_settings(self, config_summary):
        config = ExperimentConfig.for_case("case1", scale="smoke")
        instrumented = config.with_(
            telemetry=TelemetryConfig(enabled=True)
        ).describe()
        assert config_hash(config_summary) == config_hash(instrumented)

    def test_sensitive_to_simulation_settings(self, config_summary):
        other = ExperimentConfig.for_case("case2", scale="smoke").describe()
        assert config_hash(config_summary) != config_hash(other)

    def test_deterministic(self, config_summary):
        assert config_hash(config_summary) == config_hash(config_summary)

    @pytest.mark.parametrize(
        "case,engine,expected",
        [
            ("case3", "fast", "2ccff64afe579d06"),
            ("case3", "fused", "21252dfee2e61a1d"),
            ("case4", "fast", "54dee2013885eda3"),
            ("case3", "batch", "93ec224f7e66005a"),
            ("case4", "batch", "22416ef244165912"),
        ],
    )
    def test_pinned_content_addresses(self, case, engine, expected):
        # checkpoint directories and service job ids are these digests:
        # a change here orphans every stored checkpoint and job result
        config = ExperimentConfig.for_case(case, scale="default", engine=engine)
        assert config_hash(config.describe())[:16] == expected

    def test_every_entry_point_defaults_to_batch(self):
        """The config, the CLI, the reproduction registry and a scenario
        all take their engine from one default, so the default
        content addresses are the batch rows above."""
        from pathlib import Path

        from repro.cli import build_parser
        from repro.experiments.cases import get_case
        from repro.experiments.registry import ReproductionSession
        from repro.scenarios import load_scenario, resolve_scenario

        scenario = Path(__file__).resolve().parent.parent / "scenarios" / "case4.yaml"
        engines = {
            ExperimentConfig(case=get_case("case4")).engine,
            build_parser().parse_args(["run-case", "case4"]).engine,
            ReproductionSession().config_for("case4").engine,
            resolve_scenario(load_scenario(scenario)).config.engine,
        }
        assert engines == {"batch"}


class TestBuildManifest:
    def test_exact_keys(self, config_summary):
        manifest = build_run_manifest("t", config_summary, {}, wall_s=1.0)
        assert set(manifest) == set(RUN_MANIFEST_KEYS)

    def test_run_summary_fields(self, config_summary):
        manifest = build_run_manifest("t", config_summary, {}, wall_s=1.0)
        run = manifest["run"]
        assert run["case"] == "case1"
        assert run["oracle"] == "random"
        assert run["route_cache"] == "none"
        assert run["replications"] >= 1

    def test_mobile_run_summary(self):
        summary = ExperimentConfig.for_case(
            "mobile_waypoint", scale="smoke"
        ).with_route_cache("approx", 8).describe()
        run = build_run_manifest("t", summary, {}, wall_s=0.0)["run"]
        assert run["oracle"].startswith("mobile:")
        assert run["route_cache"] == "approx"
        assert run["drift_budget"] == 8


class TestValidateManifest:
    def good(self, config_summary) -> dict:
        return build_run_manifest("t", config_summary, {"counters": {"g": 1}}, 1.0)

    def test_good_passes(self, config_summary):
        payload = self.good(config_summary)
        assert validate_run_manifest(payload, name="t") == payload

    def test_missing_key_rejected(self, config_summary):
        payload = self.good(config_summary)
        del payload["git_sha"]
        with pytest.raises(ValueError, match="git_sha"):
            validate_run_manifest(payload, name="t")

    def test_extra_key_rejected(self, config_summary):
        payload = self.good(config_summary) | {"extra": 1}
        with pytest.raises(ValueError, match="extra"):
            validate_run_manifest(payload, name="t")

    def test_bool_version_rejected(self, config_summary):
        payload = self.good(config_summary) | {"manifest_version": True}
        with pytest.raises(ValueError, match="manifest_version"):
            validate_run_manifest(payload, name="t")

    def test_unknown_version_rejected(self, config_summary):
        payload = self.good(config_summary) | {"manifest_version": 99}
        with pytest.raises(ValueError, match="manifest_version"):
            validate_run_manifest(payload, name="t")

    def test_negative_wall_rejected(self, config_summary):
        payload = self.good(config_summary) | {"wall_s": -1.0}
        with pytest.raises(ValueError, match="wall_s"):
            validate_run_manifest(payload, name="t")

    def test_non_numeric_metrics_rejected(self, config_summary):
        payload = self.good(config_summary) | {
            "metrics": {"counters": {"g": "lots"}}
        }
        with pytest.raises(ValueError):
            validate_run_manifest(payload, name="t")

    def test_nested_run_mapping_rejected(self, config_summary):
        payload = self.good(config_summary)
        payload = payload | {"run": dict(payload["run"], nested={"a": 1})}
        with pytest.raises(ValueError, match="run"):
            validate_run_manifest(payload, name="t")

    def test_empty_events_file_rejected(self, config_summary):
        payload = self.good(config_summary) | {"events_file": ""}
        with pytest.raises(ValueError, match="events_file"):
            validate_run_manifest(payload, name="t")

    def test_none_events_file_allowed(self, config_summary):
        payload = self.good(config_summary) | {"events_file": None}
        assert validate_run_manifest(payload, name="t")["events_file"] is None


class TestWriteManifest:
    def test_writes_manifest_and_jsonl(self, tmp_path, config_summary):
        path = write_run_manifest(
            tmp_path, "case1_smoke", config_summary, sample_telemetry()
        )
        assert path == tmp_path / "case1_smoke_manifest.json"
        payload = json.loads(path.read_text())
        validate_run_manifest(payload, name="written")
        assert payload["events_file"] == "case1_smoke_metrics.jsonl"
        assert payload["metrics"]["counters"]["engine.games"] == 2400
        assert payload["wall_s"] == 1.5

    def test_jsonl_has_events_then_metric_lines(self, tmp_path, config_summary):
        write_run_manifest(tmp_path, "t", config_summary, sample_telemetry())
        lines = [
            json.loads(line)
            for line in (tmp_path / "t_metrics.jsonl").read_text().splitlines()
        ]
        assert lines[0]["event"] == "span"
        metric_lines = [rec for rec in lines if rec["event"] == "metric"]
        by_name = {rec["name"]: rec for rec in metric_lines}
        assert by_name["engine.games"]["value"] == 2400
        assert by_name["engine.games"]["kind"] == "counter"
        assert by_name["ga.selection_s"]["value"]["count"] == 2

    def test_creates_out_dir(self, tmp_path, config_summary):
        nested = tmp_path / "a" / "b"
        write_run_manifest(nested, "t", config_summary, sample_telemetry())
        assert (nested / "t_manifest.json").exists()


class TestRender:
    def test_render_round_trip(self, tmp_path, config_summary):
        path = write_run_manifest(
            tmp_path, "case1_smoke", config_summary, sample_telemetry()
        )
        text = render_manifest(json.loads(path.read_text()))
        assert "run manifest: case1_smoke" in text
        assert "engine.games" in text and "2,400" in text
        assert "ga.diversity" in text
        assert "ga.selection_s" in text
        assert "route.drift_age" in text

    def test_render_survives_empty_metrics(self, config_summary):
        manifest = build_run_manifest("t", config_summary, {}, wall_s=0.0)
        text = render_manifest(manifest)
        assert "run manifest: t" in text
        assert "counters" not in text
