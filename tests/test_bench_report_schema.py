"""Schema contract for the machine-readable bench reports.

Every ``results/bench_reports/*.json`` plus the repo-root ``BENCH_ENGINE.json``
ledger must satisfy the ``{bench, scale, wall_s, metrics, git_sha}`` contract
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
#: ``benchmarks/bench_engine_perf.py``'s random-row guard: fused >= 1.2x
#: batch.  Restated, not imported: the tier-1 suite does not import benches.
MIN_FUSED_VS_BATCH_RANDOM = 1.2
REPORT_DIR = REPO_ROOT / "results" / "bench_reports"

committed_reports = sorted(REPORT_DIR.glob("*.json")) + [
    REPO_ROOT / "BENCH_ENGINE.json"
]


class TestCommittedArtefacts:
    @pytest.mark.parametrize(
        "path", committed_reports, ids=lambda p: p.name
    )
    def test_committed_report_matches_contract(self, path):
        if not path.exists():  # pragma: no cover - fresh clone without reports
            pytest.skip(f"{path.name} not generated in this checkout")
        payload = json.loads(path.read_text())
        validate_bench_report(payload, name=path.name)

    def test_report_directory_is_populated(self):
        """The repo commits its bench artefacts; an empty directory means
        the parametrization above silently validated nothing."""
        assert len(committed_reports) > 1

    def test_engine_ledger_has_all_engine_rows(self):
        """The committed perf ledger carries a row per registered engine on
        every gated oracle (check_perf_regression gates them from here);
        an alias (a name its class does not carry, e.g. ``fast``) has none."""
        from repro.sim import ENGINES

        engines = {name for name, cls in ENGINES.items() if cls.name == name}
        assert engines == {"reference", "batch", "fused"}
        ledger = json.loads((REPO_ROOT / "BENCH_ENGINE.json").read_text())
        for oracle in ("random", "topology", "mobile"):
            assert set(ledger["wall_s"][oracle]) == engines, oracle
        random_walls = ledger["wall_s"]["random"]
        assert (
            random_walls["batch"] / random_walls["fused"]
            >= MIN_FUSED_VS_BATCH_RANDOM
        )

    def test_engine_ledger_has_stacked_rows(self):
        """The cross-replication rows must survive ledger regenerations."""
        ledger = json.loads((REPO_ROOT / "BENCH_ENGINE.json").read_text())
        for kind in ("random", "topology", "mobile"):
            assert set(ledger["wall_s"][f"{kind}_stacked"]) == {"stacked"}
        assert ledger["metrics"]["stacked_random_games_per_s"] > 0


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
        assert validate_bench_report(good_payload())["bench"] == "probe"
        ledger_style = good_payload()
        ledger_style["scale"] = {"seats": 50, "rounds": 40}
        ledger_style["wall_s"] = {"random": {"batch": 0.02, "fused": 0.013}}
        validate_bench_report(ledger_style)

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
