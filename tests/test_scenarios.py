"""Tests for the declarative scenario layer (repro.scenarios).

Pins the three properties the serving stack depends on:

* every committed ``scenarios/*.yaml`` loads, resolves, and round-trips
  stably (load → resolve → re-serialize → reload gives the same payload
  and the same ``config_hash``);
* a scenario file and the equivalent CLI-flag invocation resolve to the
  same config — same hash, bit-identical runs;
* the schema rejects everything outside the exact-key contract.
"""

from __future__ import annotations

import copy
from pathlib import Path

import pytest
import yaml

from repro.scenarios import (
    apply_overrides,
    build_scenario_payload,
    dump_scenario,
    list_scenarios,
    load_scenario,
    resolve_scenario,
)
from repro.utils.validation import validate_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS_DIR = REPO_ROOT / "scenarios"
LIBRARY = list_scenarios(SCENARIOS_DIR)


def minimal_payload(**changes) -> dict:
    payload = {
        "scenario_version": 1,
        "name": "t",
        "description": "",
        "case": "case1",
        "scale": "smoke",
        "overrides": {},
        "run": {},
    }
    payload.update(changes)
    return payload


class TestCommittedLibrary:
    def test_library_is_nonempty(self):
        assert len(LIBRARY) >= 10

    @pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
    def test_round_trip_is_stable(self, path):
        payload = load_scenario(path)
        resolved = resolve_scenario(payload)
        # re-serialize the normalized payload and reload: same payload,
        # same resolved hash — the DSL has one canonical form
        text = dump_scenario(resolved.to_payload())
        reloaded = validate_scenario(yaml.safe_load(text), name=str(path))
        assert reloaded == resolved.to_payload()
        assert resolve_scenario(reloaded).config_hash() == resolved.config_hash()

    @pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.stem)
    def test_resolution_is_deterministic(self, path):
        first = resolve_scenario(load_scenario(path))
        second = resolve_scenario(load_scenario(path))
        assert first.describe() == second.describe()
        assert first.config_hash() == second.config_hash()

    def test_library_covers_every_case(self):
        from repro.experiments.cases import ALL_CASES

        covered = {load_scenario(p)["case"] for p in LIBRARY}
        assert covered >= set(ALL_CASES)

    def test_library_names_are_unique(self):
        names = [load_scenario(p)["name"] for p in LIBRARY]
        assert len(names) == len(set(names))

    def test_run_block_never_changes_the_hash(self):
        # case3_checkpointed differs from case3 only in execution options
        plain = resolve_scenario(load_scenario(SCENARIOS_DIR / "case3.yaml"))
        ckpt = resolve_scenario(
            load_scenario(SCENARIOS_DIR / "case3_checkpointed.yaml")
        )
        assert plain.config_hash() == ckpt.config_hash()
        assert ckpt.shards == 2
        assert ckpt.resume is True
        assert ckpt.checkpoint_dir == Path("results/checkpoints")


class TestFlagEquivalence:
    def test_fig4_smoke_matches_run_case_flags(self):
        """The acceptance pair: scenarios/fig4_smoke.yaml versus
        `run-case case1 --scale smoke` (whose flag defaults are
        seed 2007 / engine fast)."""
        from_file = resolve_scenario(
            load_scenario(SCENARIOS_DIR / "fig4_smoke.yaml")
        )
        from_flags = resolve_scenario(
            build_scenario_payload(
                "case1", "smoke", overrides={"seed": 2007, "engine": "fast"}
            )
        )
        assert from_file.describe() == from_flags.describe()
        assert from_file.config_hash() == from_flags.config_hash()

    def test_mobility_flags_match_overrides(self):
        """Scenario overrides apply in the same order run-case flags did,
        including the speed -> (min, max, mean) expansion."""
        resolved = resolve_scenario(
            build_scenario_payload(
                "case1",
                "smoke",
                overrides={
                    "mobility": "waypoint",
                    "speed": 0.04,
                    "pause": 2.0,
                    "rounds": 5,
                },
            )
        )
        mobility = resolved.config.sim.mobility
        assert resolved.config.case.mobility == "waypoint"
        assert mobility.model == "waypoint"
        assert mobility.mean_speed == pytest.approx(0.04)
        assert mobility.speed_min == pytest.approx(0.02)
        assert mobility.speed_max == pytest.approx(0.06)
        assert mobility.pause_time == pytest.approx(2.0)
        assert resolved.config.sim.rounds == 5

    def test_mobility_none_disables_mobile_case(self):
        resolved = resolve_scenario(
            build_scenario_payload(
                "mobile_waypoint", "smoke", overrides={"mobility": "none"}
            )
        )
        assert resolved.config.sim.mobility.model == "none"

    def test_route_cache_override(self):
        resolved = resolve_scenario(
            load_scenario(SCENARIOS_DIR / "mobile_waypoint_approx.yaml")
        )
        assert resolved.config.sim.mobility.route_cache == "approx"
        assert resolved.config.sim.mobility.drift_budget == 240

    def test_telemetry_never_changes_the_hash(self):
        base = build_scenario_payload("case1", "smoke")
        instrumented = build_scenario_payload(
            "case1", "smoke", overrides={"telemetry": True}
        )
        a, b = resolve_scenario(base), resolve_scenario(instrumented)
        assert a.config_hash() == b.config_hash()
        assert b.config.telemetry.enabled


class TestApplyOverrides:
    def test_explicit_flags_win_and_none_defers(self):
        base = build_scenario_payload(
            "case1", "smoke", overrides={"seed": 11, "generations": 2}
        )
        merged = apply_overrides(
            base, overrides={"seed": 99, "generations": None, "rounds": 4}
        )
        assert merged["overrides"]["seed"] == 99
        assert merged["overrides"]["generations"] == 2
        assert merged["overrides"]["rounds"] == 4

    def test_run_block_merges(self):
        base = build_scenario_payload("case1", "smoke", run={"shards": 2})
        merged = apply_overrides(base, run={"processes": 1, "shards": None})
        assert merged["run"] == {"processes": 1, "shards": 2}

    def test_merged_payload_is_revalidated(self):
        base = build_scenario_payload("case1", "smoke")
        with pytest.raises(ValueError, match="require 'mobility'"):
            apply_overrides(base, overrides={"speed": 0.1})

    def test_base_payload_is_not_mutated(self):
        base = build_scenario_payload("case1", "smoke", overrides={"seed": 1})
        snapshot = copy.deepcopy(base)
        apply_overrides(base, overrides={"seed": 2}, run={"shards": 3})
        assert base == snapshot


class TestSchemaRejections:
    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda p: p.pop("run"), "keys mismatch"),
            (lambda p: p.update(extra=1), "keys mismatch"),
            (lambda p: p.update(scenario_version=2), "'scenario_version'"),
            (lambda p: p.update(name=""), "'name'"),
            (lambda p: p.update(name="bad name!"), "A-Za-z0-9"),
            (lambda p: p.update(overrides={"nope": 1}), "unknown override"),
            (lambda p: p.update(overrides={"generations": 0}), "generations"),
            (lambda p: p.update(overrides={"speed": 0.1}), "require 'mobility'"),
            (
                lambda p: p.update(
                    overrides={"mobility": "none", "speed": 0.3, "pause": 5}
                ),
                "other than 'none'",
            ),
            (lambda p: p.update(overrides={"seed": -1}), "seed"),
            (
                lambda p: p.update(overrides={"drift_budget": 8}),
                "route_cache",
            ),
            (
                lambda p: p.update(overrides={"telemetry": "yes"}),
                "telemetry",
            ),
            (lambda p: p.update(run={"shards": 0}), "shards"),
            (lambda p: p.update(run={"resume": "yes"}), "resume"),
            (lambda p: p.update(run={"checkpoint_dir": ""}), "checkpoint_dir"),
        ],
    )
    def test_contract_violations_raise(self, mutate, match):
        payload = minimal_payload()
        mutate(payload)
        with pytest.raises(ValueError, match=match):
            validate_scenario(payload)

    def test_unknown_case_fails_at_resolve(self):
        with pytest.raises(ValueError, match="unknown case"):
            resolve_scenario(minimal_payload(case="case99"))

    def test_unknown_scale_fails_at_resolve(self):
        with pytest.raises(ValueError, match="unknown scale"):
            resolve_scenario(minimal_payload(scale="galactic"))

    def test_unknown_engine_fails_at_resolve(self):
        with pytest.raises(ValueError, match="engine"):
            resolve_scenario(
                minimal_payload(overrides={"engine": "antimatter"})
            )

    def test_unknown_mobility_fails_at_resolve(self):
        with pytest.raises(ValueError, match="mobility"):
            resolve_scenario(minimal_payload(overrides={"mobility": "warp"}))


class TestLoader:
    def test_rejects_unknown_suffix(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("{}")
        with pytest.raises(ValueError, match="must end in"):
            load_scenario(path)

    def test_rejects_unparseable_yaml(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("{unclosed: [")
        with pytest.raises(ValueError, match="not a valid scenario"):
            load_scenario(path)

    def test_json_scenarios_load_too(self, tmp_path):
        import json

        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_payload()))
        assert load_scenario(path)["case"] == "case1"

    def test_list_scenarios_missing_dir_is_empty(self, tmp_path):
        assert list_scenarios(tmp_path / "nope") == []

    def test_dump_writes_when_given_path(self, tmp_path):
        target = tmp_path / "out.yaml"
        dump_scenario(minimal_payload(), target)
        assert load_scenario(target)["name"] == "t"
