"""Schema contract for the machine-readable bench reports.

Every ``results/bench_reports/*.json`` must satisfy the ``{bench, scale,
wall_s, metrics, git_sha}`` contract
(:func:`repro.utils.validation.validate_bench_report`), so a malformed bench
cannot slip an unparseable artefact past CI's report-archiving step.  The
validator itself is unit-tested here against representative corruptions.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.utils.validation import BENCH_REPORT_KEYS, validate_bench_report

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_DIR = REPO_ROOT / "results" / "bench_reports"

committed_reports = sorted(REPORT_DIR.glob("*.json"))


class TestCommittedArtefacts:
    @pytest.mark.parametrize(
        "path", committed_reports, ids=lambda p: p.name
    )
    def test_committed_report_matches_contract(self, path):
        payload = json.loads(path.read_text())
        validate_bench_report(payload, name=path.name)

    def test_report_directory_is_populated(self):
        """The repo commits its bench artefacts; an empty directory means
        the parametrization above silently validated nothing."""
        assert len(committed_reports) > 1


def good_payload() -> dict:
    return {
        "bench": "probe",
        "scale": "smoke",
        "wall_s": 0.5,
        "metrics": {"metric": 1.0, "nested": {"a": 2}},
        "git_sha": "abc1234",
    }


class TestValidator:
    def test_accepts_flat_and_nested(self):
        """Flat and nested metrics both pass (``good_payload`` has both)."""
        assert validate_bench_report(good_payload())["bench"] == "probe"

    def test_accepts_null_wall(self):
        payload = good_payload()
        payload["wall_s"] = None
        validate_bench_report(payload)

    @pytest.mark.parametrize("key", sorted(BENCH_REPORT_KEYS))
    def test_missing_key_rejected(self, key):
        payload = good_payload()
        del payload[key]
        with pytest.raises(ValueError, match=f"missing \\['{key}'\\]"):
            validate_bench_report(payload)

    def test_extra_key_rejected(self):
        payload = good_payload()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="unexpected \\['surprise'\\]"):
            validate_bench_report(payload)

    @pytest.mark.parametrize("bench", ["", 7, None])
    def test_bad_bench_rejected(self, bench):
        payload = good_payload()
        payload["bench"] = bench
        with pytest.raises(ValueError, match="non-empty string"):
            validate_bench_report(payload)

    def test_negative_wall_rejected(self):
        payload = good_payload()
        payload["wall_s"] = -0.1
        with pytest.raises(ValueError, match="'wall_s' must be >= 0"):
            validate_bench_report(payload)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_metric_rejected(self, bad):
        """NaN poisons comparisons; inf serializes as non-RFC-8259 JSON."""
        payload = good_payload()
        payload["metrics"] = {"bad": bad}
        with pytest.raises(ValueError, match="not finite"):
            validate_bench_report(payload)

    def test_non_finite_wall_rejected(self):
        payload = good_payload()
        payload["wall_s"] = float("inf")
        with pytest.raises(ValueError, match="not finite"):
            validate_bench_report(payload)

    def test_non_numeric_metric_rejected(self):
        payload = good_payload()
        payload["metrics"] = {"bad": "fast"}
        with pytest.raises(ValueError, match="number or a nested mapping"):
            validate_bench_report(payload)

    def test_bool_metric_rejected(self):
        payload = good_payload()
        payload["metrics"] = {"ok": True}
        with pytest.raises(ValueError, match="bool"):
            validate_bench_report(payload)

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_bench_report([1, 2, 3])

    def test_metrics_must_be_mapping(self):
        payload = good_payload()
        payload["metrics"] = [1.0]
        with pytest.raises(ValueError, match="'metrics' must be a mapping"):
            validate_bench_report(payload)

    @pytest.mark.parametrize(
        "scale",
        [{"seats": 50, "rounds": 40}, 3, "", None],
        ids=["mapping", "int", "empty", "null"],
    )
    def test_scale_must_be_a_name(self, scale):
        """``scale`` names a preset; a geometry mapping is not accepted."""
        payload = good_payload()
        payload["scale"] = scale
        with pytest.raises(ValueError, match="'scale' must be a non-empty string"):
            validate_bench_report(payload)

    @pytest.mark.parametrize(
        "wall",
        [{"random": {"batch": 0.02, "fused": 0.013}}, "0.5", True, [0.5]],
        ids=["tree", "str", "bool", "list"],
    )
    def test_wall_must_be_one_number(self, wall):
        """A report times one thing: ``wall_s`` is a number or null."""
        payload = good_payload()
        payload["wall_s"] = wall
        with pytest.raises(ValueError, match="'wall_s' must be a finite number"):
            validate_bench_report(payload)

    @pytest.mark.parametrize("sha", ["", None])
    def test_bad_git_sha_rejected(self, sha):
        payload = good_payload()
        payload["git_sha"] = sha
        with pytest.raises(ValueError, match="'git_sha' must be a non-empty string"):
            validate_bench_report(payload)
