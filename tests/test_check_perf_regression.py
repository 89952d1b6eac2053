"""Unit tests for ``scripts/check_perf_regression.py`` — the CI perf gate.

The gate is the last line of defence for the perf ledger; until now it was
itself untested.  These tests drive ``main()`` with synthetic baseline/fresh
ledgers covering the tripping, passing, normalization and degenerate-input
behaviours.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = (
    Path(__file__).resolve().parent.parent / "scripts" / "check_perf_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_perf_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ledger(walls: dict) -> dict:
    return {
        "bench": "engine_perf",
        "scale": {"games_per_tournament": 2000},
        "wall_s": walls,
        "metrics": {},
        "git_sha": "test",
    }


BASE_WALLS = {
    oracle: {"reference": 0.060, "batch": 0.020, "fused": 0.014}
    for oracle in ("random", "topology", "mobile")
}


def write(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_gate(gate, tmp_path, fresh_walls, extra_args=()):
    baseline = write(tmp_path, "baseline.json", ledger(BASE_WALLS))
    fresh = write(tmp_path, "fresh.json", ledger(fresh_walls))
    return gate.main(
        ["--baseline", str(baseline), "--fresh", str(fresh), *extra_args]
    )


class TestWithinGate:
    def test_identical_ledgers_pass(self, gate, tmp_path):
        assert run_gate(gate, tmp_path, BASE_WALLS) == 0

    def test_uniformly_slower_runner_passes(self, gate, tmp_path):
        """A 3x slower machine trips neither gate: the reference canary
        normalizes it away and 3x < the 6x absolute failsafe."""
        slower = {
            oracle: {eng: wall * 3.0 for eng, wall in walls.items()}
            for oracle, walls in BASE_WALLS.items()
        }
        assert run_gate(gate, tmp_path, slower) == 0

    def test_faster_run_passes(self, gate, tmp_path):
        faster = {
            oracle: {eng: wall * 0.5 for eng, wall in walls.items()}
            for oracle, walls in BASE_WALLS.items()
        }
        assert run_gate(gate, tmp_path, faster) == 0


class TestRegressionTrips:
    def test_single_engine_regression_trips_normalized(self, gate, tmp_path):
        """One engine 4x slower while the canary is flat -> normalized gate
        fires even though 4x < the absolute 6x failsafe."""
        walls = json.loads(json.dumps(BASE_WALLS))
        walls["random"]["fused"] = BASE_WALLS["random"]["fused"] * 4.0
        assert run_gate(gate, tmp_path, walls) == 1

    def test_shared_component_regression_trips_absolute(self, gate, tmp_path):
        """Everything (canary included) 7x slower -> the normalized gate is
        blind but the absolute failsafe fires."""
        walls = {
            oracle: {eng: wall * 7.0 for eng, wall in w.items()}
            for oracle, w in BASE_WALLS.items()
        }
        assert run_gate(gate, tmp_path, walls) == 1

    def test_custom_factor_tightens_gate(self, gate, tmp_path):
        walls = json.loads(json.dumps(BASE_WALLS))
        walls["mobile"]["batch"] = BASE_WALLS["mobile"]["batch"] * 1.5
        assert run_gate(gate, tmp_path, walls, ("--factor", "1.2")) == 1
        assert run_gate(gate, tmp_path, walls, ("--factor", "2.0")) == 0


class TestDegenerateInputs:
    def test_no_comparable_rows_errors(self, gate, tmp_path):
        """Disjoint engine sets (e.g. a renamed engine) must hard-error, not
        silently pass."""
        fresh = {
            oracle: {"renamed": 0.02} for oracle in ("random", "topology", "mobile")
        }
        with pytest.raises(SystemExit, match="no comparable"):
            run_gate(gate, tmp_path, fresh)

    def test_missing_engine_in_fresh_is_skipped(self, gate, tmp_path):
        """An engine present only in the baseline is skipped, not crashed on
        (the row disappears from the comparison)."""
        walls = {
            oracle: {k: v for k, v in w.items() if k != "fused"}
            for oracle, w in BASE_WALLS.items()
        }
        assert run_gate(gate, tmp_path, walls) == 0

    def test_missing_file_errors(self, gate, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            gate.main(
                [
                    "--baseline",
                    str(tmp_path / "nope.json"),
                    "--fresh",
                    str(tmp_path / "nope.json"),
                ]
            )

    def test_invalid_json_errors(self, gate, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            gate.main(["--baseline", str(bad), "--fresh", str(bad)])

    def test_non_positive_factor_errors(self, gate, tmp_path):
        baseline = write(tmp_path, "b.json", ledger(BASE_WALLS))
        with pytest.raises(SystemExit, match="factors must be > 0"):
            gate.main(
                [
                    "--baseline",
                    str(baseline),
                    "--fresh",
                    str(baseline),
                    "--factor",
                    "0",
                ]
            )

    def test_zero_wall_baseline_skipped(self, gate, tmp_path):
        """A corrupt zero wall time in the baseline must not divide by zero;
        the row is skipped and the remaining rows still gate."""
        base = json.loads(json.dumps(BASE_WALLS))
        base["random"]["batch"] = 0.0
        baseline = write(tmp_path, "baseline.json", ledger(base))
        fresh = write(tmp_path, "fresh.json", ledger(BASE_WALLS))
        assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0

    def test_oracle_row_missing_from_both_ledgers_is_skipped(self, gate, tmp_path):
        """A gated row absent from *both* ledgers predates them (e.g. an old
        baseline without the highspeed rows) and must not error."""
        walls = {
            "random": dict(BASE_WALLS["random"]),
            "topology": dict(BASE_WALLS["topology"]),
        }
        baseline = write(tmp_path, "baseline.json", ledger(walls))
        fresh = write(tmp_path, "fresh.json", ledger(walls))
        assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0

    def test_stacked_rows_are_gated(self, gate):
        """The cross-replication stacked rows must stay in the gate list —
        dropping one silently un-gates the stacked kernel throughput
        trajectory."""
        for row in ("random_stacked", "topology_stacked", "mobile_stacked"):
            assert row in gate.GATED_ORACLES

    def test_stacked_row_gates_absolute_only(self, gate, tmp_path):
        """Stacked rows carry a single ``stacked`` engine and no reference
        canary: a 4x slowdown passes (absolute 6x failsafe only), a 7x one
        trips."""
        base = json.loads(json.dumps(BASE_WALLS))
        base["random_stacked"] = {"stacked": 0.001}
        for factor, expected in ((4.0, 0), (7.0, 1)):
            walls = json.loads(json.dumps(base))
            walls["random_stacked"]["stacked"] = 0.001 * factor
            baseline = write(tmp_path, "baseline.json", ledger(base))
            fresh = write(tmp_path, "fresh.json", ledger(walls))
            assert (
                gate.main(["--baseline", str(baseline), "--fresh", str(fresh)])
                == expected
            ), f"{factor}x stacked slowdown"

    def test_stacked_row_missing_from_one_ledger_errors(
        self, gate, tmp_path, capsys
    ):
        base = json.loads(json.dumps(BASE_WALLS))
        base["mobile_stacked"] = {"stacked": 0.002}
        baseline = write(tmp_path, "baseline.json", ledger(base))
        fresh = write(tmp_path, "fresh.json", ledger(BASE_WALLS))
        assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 3
        err = capsys.readouterr().err
        assert "'mobile_stacked'" in err and "fresh" in err

    def test_canary_absent_disables_normalized_gate_only(self, gate, tmp_path):
        """Without a reference row the normalized gate cannot run; the
        absolute failsafe still does."""
        base = {
            oracle: {k: v for k, v in w.items() if k != "reference"}
            for oracle, w in BASE_WALLS.items()
        }
        walls = {
            oracle: {eng: wall * 4.0 for eng, wall in w.items()}
            for oracle, w in base.items()
        }
        baseline = write(tmp_path, "baseline.json", ledger(base))
        fresh = write(tmp_path, "fresh.json", ledger(walls))
        # 4x would trip normalized (2.5) but not absolute (6.0)
        assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0


class TestNamedRowErrors:
    """Missing/malformed named ledger rows exit with the distinct code 3
    (``EXIT_ROW_ERROR``) and a message naming the offending row, instead of
    a raw KeyError/AttributeError traceback."""

    def test_exit_code_is_distinct(self, gate):
        assert gate.EXIT_ROW_ERROR == 3
        assert gate.EXIT_ROW_ERROR not in (0, 1)

    def test_oracle_row_missing_from_fresh_errors(self, gate, tmp_path, capsys):
        """A gated row present in the baseline but dropped from the fresh
        ledger is a broken bench, not a clean comparison."""
        walls = {
            "random": dict(BASE_WALLS["random"]),
            "topology": dict(BASE_WALLS["topology"]),
        }
        assert run_gate(gate, tmp_path, walls) == 3
        err = capsys.readouterr().err
        assert "'mobile'" in err and "fresh" in err

    def test_oracle_row_missing_from_baseline_errors(self, gate, tmp_path, capsys):
        base = {
            "random": dict(BASE_WALLS["random"]),
            "topology": dict(BASE_WALLS["topology"]),
        }
        baseline = write(tmp_path, "baseline.json", ledger(base))
        fresh = write(tmp_path, "fresh.json", ledger(BASE_WALLS))
        assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 3
        err = capsys.readouterr().err
        assert "'mobile'" in err and "baseline" in err

    def test_row_not_a_mapping_errors(self, gate, tmp_path, capsys):
        walls = json.loads(json.dumps(BASE_WALLS))
        walls["topology"] = 0.123
        assert run_gate(gate, tmp_path, walls) == 3
        assert "'topology'" in capsys.readouterr().err

    def test_non_numeric_wall_errors(self, gate, tmp_path, capsys):
        walls = json.loads(json.dumps(BASE_WALLS))
        walls["random"]["batch"] = "fast!"
        assert run_gate(gate, tmp_path, walls) == 3
        err = capsys.readouterr().err
        assert "'batch'" in err and "'random'" in err

    def test_non_finite_wall_errors(self, gate, tmp_path):
        # json.dumps/loads round-trip NaN, so the malformed ledger survives
        # the file hop exactly as a buggy bench would write it
        walls = json.loads(json.dumps(BASE_WALLS))
        walls["mobile"]["batch"] = float("nan")
        assert run_gate(gate, tmp_path, walls) == 3

    def test_wall_table_not_a_mapping_errors(self, gate, tmp_path, capsys):
        baseline = write(tmp_path, "baseline.json", ledger(BASE_WALLS))
        payload = ledger(BASE_WALLS)
        payload["wall_s"] = ["not", "a", "mapping"]
        fresh = write(tmp_path, "fresh.json", payload)
        assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 3
        assert "wall_s" in capsys.readouterr().err
