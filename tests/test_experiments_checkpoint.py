"""Unit tests for checkpoint/resume: store mechanics and bit-identity.

The load-bearing property: a replication resumed from any intact checkpoint
is bit-identical to an uninterrupted run — across engines and oracle
families, because the single-blob pickle preserves the rng/oracle object
sharing.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    CRASH_ENV,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication, run_stack
from repro.experiments.runner import run_experiment
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.manifest import config_hash

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def smoke_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig.for_case("case1", scale="smoke", **overrides)


def write_stale_checkpoint(store: CheckpointStore, config, replication, generation):
    """Hand-write a previous-layout (version 1) checkpoint pair: a manifest
    that is intact in every other respect and a blob it names."""
    rep_dir = store.replication_dir(config, replication)
    rep_dir.mkdir(parents=True, exist_ok=True)
    blob = pickle.dumps({"from": "an older layout"})
    (rep_dir / f"gen{generation:06d}.pkl").write_bytes(blob)
    manifest = {
        "checkpoint_version": 1,
        "config_hash": config_hash(config.describe()),
        "replication": replication,
        "generation": generation,
        "state_file": f"gen{generation:06d}.pkl",
        "state_sha256": hashlib.sha256(blob).hexdigest(),
    }
    (rep_dir / f"gen{generation:06d}.json").write_text(json.dumps(manifest))


def delete_newest_checkpoint(store: CheckpointStore, config, replication) -> int:
    """Simulate a crash that lost the newest checkpoint; returns the
    generation of the surviving one."""
    rep_dir = store.replication_dir(config, replication)
    manifests = sorted(rep_dir.glob("gen*.json"))
    assert len(manifests) >= 2, "need an older checkpoint to fall back to"
    newest = manifests[-1]
    newest.with_suffix(".pkl").unlink()
    newest.unlink()
    return json.loads(manifests[-2].read_text())["generation"]


class TestCheckpointStore:
    def test_save_then_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cfg = smoke_config()
        state = {"population": [1, 2, 3], "note": "x"}
        manifest_path = store.save(cfg, 0, 5, state)
        assert manifest_path.exists()
        loaded = store.load_latest(cfg, 0)
        assert loaded is not None
        assert loaded.generation == 5
        assert loaded.state == state
        assert loaded.manifest["checkpoint_version"] == CHECKPOINT_VERSION

    def test_load_latest_prefers_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cfg = smoke_config()
        store.save(cfg, 0, 1, {"generation": 1})
        store.save(cfg, 0, 2, {"generation": 2})
        assert store.load_latest(cfg, 0).generation == 2

    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cfg = smoke_config()
        for generation in range(5):
            store.save(cfg, 0, generation, {"g": generation}, keep=2)
        rep_dir = store.replication_dir(cfg, 0)
        names = sorted(p.name for p in rep_dir.glob("gen*.json"))
        assert names == ["gen000003.json", "gen000004.json"]
        assert sorted(p.name for p in rep_dir.glob("gen*.pkl")) == [
            "gen000003.pkl",
            "gen000004.pkl",
        ]

    def test_missing_dir_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load_latest(smoke_config(), 3) is None

    def test_config_key_separates_experiments(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(smoke_config(seed=1), 0, 4, {"seed": 1})
        # same replication index, different config: must not cross-load
        assert store.load_latest(smoke_config(seed=2), 0) is None

    def test_corrupt_blob_falls_back_to_older(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cfg = smoke_config()
        store.save(cfg, 0, 1, {"g": 1})
        store.save(cfg, 0, 2, {"g": 2})
        blob = store.replication_dir(cfg, 0) / "gen000002.pkl"
        blob.write_bytes(b"\x00" + blob.read_bytes()[1:])
        loaded = store.load_latest(cfg, 0)
        assert loaded.generation == 1
        assert loaded.state == {"g": 1}

    def test_invalid_manifest_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cfg = smoke_config()
        store.save(cfg, 0, 1, {"g": 1})
        store.save(cfg, 0, 2, {"g": 2})
        manifest = store.replication_dir(cfg, 0) / "gen000002.json"
        payload = json.loads(manifest.read_text())
        payload["extra_key"] = True  # exact-key schema violation
        manifest.write_text(json.dumps(payload))
        assert store.load_latest(cfg, 0).generation == 1

    def test_manifest_blob_missing_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cfg = smoke_config()
        store.save(cfg, 0, 1, {"g": 1})
        store.save(cfg, 0, 2, {"g": 2})
        (store.replication_dir(cfg, 0) / "gen000002.pkl").unlink()
        assert store.load_latest(cfg, 0).generation == 1

    def test_other_layout_version_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cfg = smoke_config()
        write_stale_checkpoint(store, cfg, 0, 2)
        assert CHECKPOINT_VERSION != 1
        assert store.load_latest(cfg, 0) is None
        assert not store.has_checkpoints(cfg)  # --resume finds nothing
        store.save(cfg, 0, 1, {"g": 1})
        assert store.has_checkpoints(cfg)
        assert store.load_latest(cfg, 0).generation == 1

    def test_save_rejects_bad_args(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.save(smoke_config(), 0, -1, {})
        with pytest.raises(ValueError):
            store.save(smoke_config(), 0, 0, {}, keep=0)


class TestResumeBitIdentity:
    @pytest.mark.parametrize(
        "case, engine",
        [
            ("case1", "fast"),
            # the gossip step of the fused round pass
            ("exchange_core", "fused"),
            ("mobile_waypoint", "batch"),
            # the fused engine's GA step is next_generation_tensor at W = 1
            ("case3", "fused"),
        ],
    )
    def test_resume_matches_uninterrupted(self, tmp_path, case, engine):
        cfg = ExperimentConfig.for_case(
            case, scale="smoke", engine=engine, generations=5
        )
        control = run_replication(cfg, 0)
        interrupted = run_replication(cfg, 0, checkpoint_dir=tmp_path)
        assert interrupted == control  # checkpointing itself changes nothing

        store = CheckpointStore(tmp_path)
        survivor = delete_newest_checkpoint(store, cfg, 0)
        resumed = run_replication(cfg, 0, checkpoint_dir=tmp_path, resume=True)
        assert resumed == control
        assert resumed.checkpoint["resumed_from_generation"] == survivor
        assert survivor < cfg.generations - 1  # genuinely resumed mid-run

    def test_stacked_exchange_resume_matches_uninterrupted(self, tmp_path):
        # a 3-wide stack whose members gossip on their own generators
        cfg = ExperimentConfig.for_case(
            "exchange_core", scale="smoke", engine="fused", generations=5
        )
        control, _ = run_stack(cfg, [0, 1, 2])
        interrupted, _ = run_stack(cfg, [0, 1, 2], checkpoint_dir=tmp_path)
        assert interrupted == control
        store = CheckpointStore(tmp_path)
        survivors = [delete_newest_checkpoint(store, cfg, r) for r in range(3)]
        resumed, _ = run_stack(cfg, [0, 1, 2], checkpoint_dir=tmp_path)
        assert resumed == control
        assert [r.checkpoint["resumed_from_generation"] for r in resumed] == (
            survivors
        )
        assert max(survivors) < cfg.generations - 1

    def test_stale_layout_checkpoint_starts_fresh(self, tmp_path):
        cfg = ExperimentConfig.for_case("mobile_waypoint", scale="smoke", generations=3)
        control = run_replication(cfg, 0)
        write_stale_checkpoint(CheckpointStore(tmp_path), cfg, 0, 1)
        resumed = run_replication(cfg, 0, checkpoint_dir=tmp_path, resume=True)
        assert resumed == control
        assert resumed.checkpoint["resumed_from_generation"] is None
        assert resumed.checkpoint["checkpoints_written"] == cfg.generations

    def test_resume_false_starts_fresh(self, tmp_path):
        cfg = smoke_config(generations=4)
        control = run_replication(cfg, 0)
        run_replication(cfg, 0, checkpoint_dir=tmp_path)
        fresh = run_replication(cfg, 0, checkpoint_dir=tmp_path, resume=False)
        assert fresh == control
        assert fresh.checkpoint["resumed_from_generation"] is None
        assert fresh.checkpoint["checkpoints_written"] == cfg.generations

    def test_checkpoint_every_thins_writes(self, tmp_path):
        cfg = smoke_config(generations=5)
        result = run_replication(
            cfg, 0, checkpoint_dir=tmp_path, checkpoint_every=2
        )
        # boundaries after generations 1 and 3, plus the final one (gen 4)
        assert result.checkpoint["checkpoints_written"] == 3

    def test_checkpoint_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            run_replication(
                smoke_config(), 0, checkpoint_dir=tmp_path, checkpoint_every=0
            )

    def test_no_checkpoint_dir_no_provenance(self):
        assert run_replication(smoke_config(), 0).checkpoint is None

    def test_finished_run_reconstitutes_without_simulation(self, tmp_path):
        cfg = smoke_config(generations=3)
        first = run_replication(cfg, 0, checkpoint_dir=tmp_path)
        again = run_replication(cfg, 0, checkpoint_dir=tmp_path)
        assert again == first
        # resumed from the final boundary: nothing was re-simulated
        assert again.checkpoint["resumed_from_generation"] == cfg.generations - 1
        assert again.checkpoint["checkpoints_written"] == 0


class TestCrashInjection:
    def test_sigkill_after_nth_checkpoint(self, tmp_path):
        """The injected crash is a real SIGKILL, so it needs a subprocess."""
        code = (
            "from repro.experiments.config import ExperimentConfig\n"
            "from repro.experiments.replication import run_replication\n"
            "cfg = ExperimentConfig.for_case('case1', scale='smoke',"
            " generations=5)\n"
            f"run_replication(cfg, 0, checkpoint_dir={str(tmp_path)!r})\n"
        )
        env = os.environ.copy()
        env[CRASH_ENV] = "2"
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == -signal.SIGKILL
        cfg = ExperimentConfig.for_case("case1", scale="smoke", generations=5)
        loaded = CheckpointStore(tmp_path).load_latest(cfg, 0)
        assert loaded is not None
        assert loaded.generation == 1  # died right after the 2nd checkpoint


#: a 4-wide stack at ``--processes 1``: the run-case command whose victim the
#: stacked crash tests kill (three generations, so twelve checkpoints)
STACK_ARGV = [
    "run-case", "case3", "--scale", "smoke", "--engine", "fused",
    "--replications", "4", "--processes", "1",
]
STACK_CONFIG = ExperimentConfig.for_case(
    "case3", scale="smoke", engine="fused", replications=4
)


def crash_stacked_run(checkpoints: Path, crash_after: int, *extra: str) -> None:
    """Run STACK_ARGV with checkpoints in a subprocess that SIGKILLs itself
    after its ``crash_after``-th checkpoint."""
    env = os.environ.copy()
    env[CRASH_ENV] = str(crash_after)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *STACK_ARGV,
         "--checkpoint-dir", str(checkpoints), *extra],
        env=env,
        cwd=checkpoints.parent,
        capture_output=True,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()


def results_bytes(result) -> str:
    """The raw results document, checkpoint provenance stripped."""
    data = result.to_dict()
    for rep in data["replications"]:
        rep.pop("checkpoint", None)
    return json.dumps(data, sort_keys=True)


class TestStackedCrashResume:
    """A checkpointed stack resumes at any width, bit-identically, with its
    telemetry counted once."""

    @pytest.fixture(scope="class")
    def mid_boundary(self, tmp_path_factory) -> Path:
        # checkpoints 1-4 are generation 0's boundary; the crash after the
        # 6th leaves replications 0-1 at generation 1 and 2-3 at generation 0
        checkpoints = tmp_path_factory.mktemp("mid") / "checkpoints"
        crash_stacked_run(checkpoints, 6, "--telemetry")
        return checkpoints

    @pytest.mark.parametrize(
        "options",
        [{}, {"shards": 2}, {"stacked": False}],
        ids=["w4", "shards2", "no-stacked"],
    )
    def test_mid_boundary_crash_resumes_byte_equal(
        self, mid_boundary, tmp_path, options
    ):
        checkpoints = shutil.copytree(mid_boundary, tmp_path / "checkpoints")
        resumed = run_experiment(
            STACK_CONFIG, processes=1, checkpoint_dir=checkpoints, **options
        )
        assert [
            rep.checkpoint["resumed_from_generation"]
            for rep in resumed.replications
        ] == [1, 1, 0, 0]
        control = run_experiment(STACK_CONFIG, processes=1)
        assert results_bytes(resumed) == results_bytes(control)

    @pytest.fixture(scope="class")
    def clean_boundary(self, tmp_path_factory) -> Path:
        # the 4th checkpoint completes generation 0's boundary
        checkpoints = tmp_path_factory.mktemp("clean") / "checkpoints"
        crash_stacked_run(checkpoints, 4, "--telemetry")
        return checkpoints

    @pytest.mark.parametrize("shards", [None, 2], ids=["w4", "w2"])
    def test_clean_boundary_resume_counts_games_once(
        self, clean_boundary, tmp_path, shards
    ):
        checkpoints = shutil.copytree(clean_boundary, tmp_path / "checkpoints")
        traced = STACK_CONFIG.with_(telemetry=TelemetryConfig(enabled=True))
        resumed = run_experiment(
            traced, processes=1, shards=shards, checkpoint_dir=checkpoints
        )
        control = run_experiment(traced, processes=1)
        assert resumed.telemetry["stack_width"] == (shards and 4 // shards or 4)
        assert results_bytes(resumed) == results_bytes(control)
        counters = resumed.telemetry["metrics"]["counters"]
        expected = control.telemetry["metrics"]["counters"]
        for name in ("engine.games", "evaluation.games"):
            assert counters[name] == expected[name], name

    @pytest.mark.parametrize("shards", [None, 2], ids=["w4", "w2"])
    @pytest.mark.parametrize("boundary", ["clean_boundary", "mid_boundary"])
    def test_resume_reports_the_uninterrupted_totals(
        self, request, tmp_path, boundary, shards
    ):
        """The carrier's snapshot holds its boundary's saves, and members
        that lag it (the mid-boundary crash) re-run the generation it
        already counts without counting it again."""
        checkpoints = shutil.copytree(
            request.getfixturevalue(boundary), tmp_path / "checkpoints"
        )
        traced = STACK_CONFIG.with_(telemetry=TelemetryConfig(enabled=True))
        resumed = run_experiment(
            traced, processes=1, shards=shards, checkpoint_dir=checkpoints
        )
        counters = resumed.telemetry["metrics"]["counters"]
        # four replications of three case3 smoke generations, 5,600 games
        # each, and one save per replication per generation
        assert {
            name: counters[name]
            for name in ("engine.games", "evaluation.games", "checkpoint.saves")
        } == {
            "engine.games": 67_200,
            "evaluation.games": 67_200,
            "checkpoint.saves": 12,
        }
        assert counters["checkpoint.resumes"] == 4
