"""Unit tests for the validation helpers."""

from __future__ import annotations

import re

import pytest

from repro.utils.validation import (
    CHECKPOINT_VERSION,
    SCHEMAS,
    check,
    check_probability,
)


@pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
def test_probability_accepts_unit_interval(value):
    assert check_probability(value, "p") == value


@pytest.mark.parametrize("value", [-0.01, 1.01, 2])
def test_probability_rejects_outside(value):
    with pytest.raises(ValueError, match="p must be"):
        check_probability(value, "p")


class TestCheckpointManifestSchema:
    """Exact-key contract for checkpoint manifests (gen*.json)."""

    @staticmethod
    def valid() -> dict:
        return {
            "checkpoint_version": CHECKPOINT_VERSION,
            "config_hash": "ab" * 32,
            "replication": 3,
            "generation": 42,
            "state_file": "gen000042.pkl",
            "state_sha256": "0" * 64,
        }

    def test_valid_payload_passes(self):
        from repro.utils.validation import (
            CHECKPOINT_KEYS,
            validate_checkpoint_manifest,
        )

        payload = self.valid()
        assert validate_checkpoint_manifest(payload) == payload
        assert set(payload) == CHECKPOINT_KEYS

    def test_rejects_non_mapping(self):
        from repro.utils.validation import validate_checkpoint_manifest

        with pytest.raises(ValueError, match="JSON object"):
            validate_checkpoint_manifest([1, 2])

    def test_rejects_missing_and_extra_keys(self):
        from repro.utils.validation import validate_checkpoint_manifest

        payload = self.valid()
        del payload["state_sha256"]
        payload["bonus"] = 1
        with pytest.raises(ValueError, match="keys mismatch"):
            validate_checkpoint_manifest(payload)

    @pytest.mark.parametrize(
        "version",
        [
            0,
            CHECKPOINT_VERSION - 1,
            CHECKPOINT_VERSION + 1,
            str(CHECKPOINT_VERSION),
            True,
            None,
        ],
    )
    def test_rejects_wrong_version(self, version):
        from repro.utils.validation import validate_checkpoint_manifest

        payload = self.valid()
        payload["checkpoint_version"] = version
        with pytest.raises(ValueError, match="checkpoint_version"):
            validate_checkpoint_manifest(payload)

    @pytest.mark.parametrize("field", ["replication", "generation"])
    @pytest.mark.parametrize("bad", [-1, 1.5, "3", True, None])
    def test_rejects_non_counting_ints(self, field, bad):
        from repro.utils.validation import validate_checkpoint_manifest

        payload = self.valid()
        payload[field] = bad
        with pytest.raises(ValueError, match=field):
            validate_checkpoint_manifest(payload)

    @pytest.mark.parametrize(
        "digest", ["", "0" * 63, "Z" * 64, "A" * 64, None, 7]
    )
    def test_rejects_bad_digest(self, digest):
        from repro.utils.validation import validate_checkpoint_manifest

        payload = self.valid()
        payload["state_sha256"] = digest
        with pytest.raises(ValueError, match="state_sha256"):
            validate_checkpoint_manifest(payload)

    @pytest.mark.parametrize("field", ["config_hash", "state_file"])
    def test_rejects_empty_strings(self, field):
        from repro.utils.validation import validate_checkpoint_manifest

        payload = self.valid()
        payload[field] = ""
        with pytest.raises(ValueError, match=field):
            validate_checkpoint_manifest(payload)


class TestFlagValidators:
    """drift_budget_error / shards_error — shared by CLI, scenarios, service."""

    def test_drift_budget_none_is_fine(self):
        from repro.utils.validation import drift_budget_error

        assert drift_budget_error(None, None) is None
        assert drift_budget_error("approx", None) is None
        assert drift_budget_error("approx", 8) is None

    def test_drift_budget_requires_approx(self):
        from repro.utils.validation import drift_budget_error

        assert "requires --route-cache approx" in drift_budget_error(None, 8)
        assert "requires --route-cache approx" in drift_budget_error("exact", 8)

    def test_drift_budget_range(self):
        from repro.utils.validation import drift_budget_error

        assert ">= 0" in drift_budget_error("approx", -1)

    def test_drift_budget_custom_labels(self):
        from repro.utils.validation import drift_budget_error

        message = drift_budget_error(
            None, 8, route_cache_label="'route_cache':", budget_label="'drift_budget'"
        )
        assert message == "'drift_budget' requires 'route_cache': approx"

    def test_shards_error(self):
        from repro.utils.validation import shards_error

        assert shards_error(None) is None
        assert shards_error(1) is None
        assert "--shards must be >= 1, got 0" == shards_error(0)
        assert "shards=" in shards_error(0, label="shards=")


class TestJobRecordSchema:
    @staticmethod
    def valid() -> dict:
        return {
            "job_version": 1,
            "job_id": "a" * 64,
            "name": "fig4_smoke",
            "state": "queued",
            "scenario": {
                "scenario_version": 1,
                "name": "fig4_smoke",
                "description": "",
                "case": "case1",
                "scale": "smoke",
                "overrides": {},
                "run": {},
            },
            "submitted_s": 1.0,
            "started_s": None,
            "finished_s": None,
            "attempts": 0,
            "error": None,
            "result_file": None,
            "manifest_file": None,
        }

    def test_accepts_valid_record(self):
        from repro.utils.validation import validate_job_record

        assert validate_job_record(self.valid())["state"] == "queued"

    def test_rejects_missing_and_extra_keys(self):
        from repro.utils.validation import validate_job_record

        payload = self.valid()
        payload.pop("attempts")
        with pytest.raises(ValueError, match="keys mismatch"):
            validate_job_record(payload)
        payload = self.valid()
        payload["extra"] = 1
        with pytest.raises(ValueError, match="keys mismatch"):
            validate_job_record(payload)

    @pytest.mark.parametrize("state", ["", "pending", "DONE", None])
    def test_rejects_unknown_states(self, state):
        from repro.utils.validation import validate_job_record

        payload = self.valid()
        payload["state"] = state
        with pytest.raises(ValueError, match="state"):
            validate_job_record(payload)

    @pytest.mark.parametrize("job_id", ["", "a" * 63, "G" * 64, 7, None])
    def test_rejects_bad_job_ids(self, job_id):
        from repro.utils.validation import validate_job_record

        payload = self.valid()
        payload["job_id"] = job_id
        with pytest.raises(ValueError, match="job_id"):
            validate_job_record(payload)

    def test_rejects_invalid_embedded_scenario(self):
        from repro.utils.validation import validate_job_record

        payload = self.valid()
        payload["scenario"]["case"] = ""
        with pytest.raises(ValueError, match="scenario"):
            validate_job_record(payload)

    @pytest.mark.parametrize("field", ["started_s", "finished_s"])
    def test_timestamps_may_be_null_but_not_nan(self, field):
        from repro.utils.validation import validate_job_record

        payload = self.valid()
        payload[field] = float("nan")
        with pytest.raises(ValueError, match=field):
            validate_job_record(payload)

    @pytest.mark.parametrize("field", ["error", "result_file", "manifest_file"])
    def test_optional_strings_reject_empty(self, field):
        from repro.utils.validation import validate_job_record

        payload = self.valid()
        payload[field] = ""
        with pytest.raises(ValueError, match=field):
            validate_job_record(payload)


def _scenario() -> dict:
    return {
        "scenario_version": 1,
        "name": "fig4_smoke",
        "description": "",
        "case": "case1",
        "scale": "smoke",
        "overrides": {"seed": 0, "mobility": "waypoint", "speed": 0.5},
        "run": {"processes": 1, "resume": False, "stacked": None},
    }


#: One valid document per schema kind (the table test below requires one).
VALID = {
    "bench_report": lambda: {
        "bench": "probe",
        "scale": {"seats": 50},
        "wall_s": 0.5,
        "metrics": {"games": 10, "nested": {"a": 0.5}},
        "git_sha": "abc1234",
    },
    "run_manifest": lambda: {
        "manifest_version": 1,
        "name": "case1_smoke",
        "git_sha": "abc1234",
        "config_hash": "ab" * 32,
        "run": {"engine": "fast", "stack_width": 1},
        "wall_s": 1.5,
        "metrics": {"counters": {"engine.games": 2400}},
        "events_file": "case1_smoke_metrics.jsonl",
    },
    "checkpoint": TestCheckpointManifestSchema.valid,
    "scenario": _scenario,
    "job_record": lambda: dict(TestJobRecordSchema.valid(), scenario=_scenario()),
}


def _rows(rule, prefix=""):
    """(dotted path, parent keys exact?) for every row under ``rule``."""
    for key, sub in rule.rows.items():
        path = f"{prefix}{key}"
        yield path, rule.exact
        if hasattr(sub, "rows"):
            yield from _rows(sub, f"{path}.")


def _at(payload: dict, path: str) -> tuple[dict, str]:
    """The mapping holding ``path`` (nested blocks created as needed)."""
    *parents, key = path.split(".")
    for parent in parents:
        payload = payload.setdefault(parent, {})
    return payload, key


ROWS = [
    (kind, path, exact)
    for kind in sorted(SCHEMAS)
    for path, exact in _rows(SCHEMAS[kind])
]


class TestSchemaTable:
    """Every row of every schema rejects a missing key and a wrong type."""

    def test_every_kind_has_a_valid_example(self):
        assert set(VALID) == set(SCHEMAS)
        for kind, example in VALID.items():
            assert check(kind, example()) == example()

    @pytest.mark.parametrize(
        "kind, path",
        [(kind, path) for kind, path, exact in ROWS if exact],
    )
    def test_dropping_a_key_is_a_mismatch(self, kind, path):
        payload = VALID[kind]()
        parent, key = _at(payload, path)
        del parent[key]
        with pytest.raises(ValueError, match=rf"keys mismatch: missing \['{key}'\]"):
            check(kind, payload)

    @pytest.mark.parametrize("kind, path", [(kind, path) for kind, path, _ in ROWS])
    def test_wrong_typed_value_names_the_key(self, kind, path):
        payload = VALID[kind]()
        parent, key = _at(payload, path)
        parent[key] = object()
        with pytest.raises(ValueError, match=re.escape(f"'{path}'")):
            check(kind, payload)
