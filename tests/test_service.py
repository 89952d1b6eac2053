"""Tests for the service core: store, job runner, endpoints.

The load-bearing guarantees:

* identical submissions dedupe into one content-addressed run (the job id
  *is* the telemetry-excluded ``config_hash``);
* a runner killed mid-job recovers on restart and finishes bit-identical
  to an uninterrupted run (checkpoints + resume, the PR-7 contract);
* job status is the schema-validated telemetry run manifest — no second
  reporting path.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.scenarios import build_scenario_payload, load_scenario
from repro.service import JobRunner, Service
from repro.service.store import ResultStore
from repro.utils.validation import validate_job_record, validate_run_manifest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = Path(repro.__file__).resolve().parents[1]
CRASH_ENV = "REPRO_CHECKPOINT_CRASH_AFTER"


def smoke_payload(**overrides) -> dict:
    merged = {"seed": 2007, **overrides}
    return build_scenario_payload("case1", "smoke", overrides=merged)


class TestResultStore:
    def test_records_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        record = store.save_record(
            ResultStore.new_record("a" * 64, "t", smoke_payload())
        )
        assert store.load_record("a" * 64) == record
        assert validate_job_record(record)

    def test_corrupt_record_reads_as_absent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_record(ResultStore.new_record("a" * 64, "t", smoke_payload()))
        store.record_path("a" * 64).write_text("{broken")
        assert store.load_record("a" * 64) is None

    def test_unknown_job_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load_record("b" * 64) is None
        assert store.list_records() == []

    def test_result_payload_is_canonical(self, tmp_path):
        store = ResultStore(tmp_path)
        # ExperimentResult.to_dict()'s shape: results plus the
        # per-replication checkpoint provenance, which is stripped
        payload = {
            "replications": [{"history": [1, 2], "checkpoint": {"x": 1}}],
            "config": {"case": "case1"},
        }
        path = store.save_result("c" * 64, payload)
        assert path.read_text() == (
            '{"config":{"case":"case1"},"replications":[{"history":[1,2]}]}'
        )
        assert store.load_result("c" * 64)["replications"] == [{"history": [1, 2]}]


class TestDoneResultReconciliation:
    """A ``done`` record whose result.json is missing or corrupt must read
    as ``failed`` (persisted, distinct error) so resubmission requeues it —
    previously it served ``result: null`` forever."""

    def _finished_job(self, tmp_path):
        runner = JobRunner(tmp_path)
        record, _ = runner.submit(smoke_payload())
        runner.run_pending()
        job_id = record["job_id"]
        assert runner.store.load_record(job_id)["state"] == "done"
        return runner, job_id

    def test_missing_result_demotes_to_failed(self, tmp_path):
        runner, job_id = self._finished_job(tmp_path)
        runner.store.result_path(job_id).unlink()
        record = runner.store.load_record(job_id)
        assert record["state"] == "failed"
        assert record["error"] == "result file missing or corrupt for a done job"
        # the demotion is persisted: a fresh store reads the same state
        fresh = ResultStore(tmp_path)
        assert fresh.load_record(job_id)["state"] == "failed"

    def test_truncated_result_demotes_to_failed(self, tmp_path):
        runner, job_id = self._finished_job(tmp_path)
        path = runner.store.result_path(job_id)
        path.write_text(path.read_text()[: 40])  # torn write
        record = runner.store.load_record(job_id)
        assert record["state"] == "failed"
        assert "missing or corrupt" in record["error"]

    def test_healthy_done_job_is_untouched(self, tmp_path):
        runner, job_id = self._finished_job(tmp_path)
        record = runner.store.load_record(job_id)
        assert record["state"] == "done"
        assert record["error"] is None

    def test_resubmission_requeues_and_recovers(self, tmp_path):
        runner, job_id = self._finished_job(tmp_path)
        runner.store.result_path(job_id).unlink()
        assert runner.store.load_record(job_id)["state"] == "failed"
        requeued, created = runner.submit(smoke_payload())
        assert created and requeued["state"] == "queued"
        assert runner.run_pending() == 1
        healed = runner.store.load_record(job_id)
        assert healed["state"] == "done"
        assert runner.store.load_result(job_id)["replications"]

    def test_list_records_surfaces_the_demotion(self, tmp_path):
        runner, job_id = self._finished_job(tmp_path)
        runner.store.result_path(job_id).unlink()
        (listed,) = runner.store.list_records()
        assert listed["job_id"] == job_id
        assert listed["state"] == "failed"


class TestRecordCache:
    """``load_record``/``list_records`` serve from the (mtime_ns, size)
    stat-keyed cache — re-parsing only when the file actually changed."""

    def test_cached_record_is_served_without_reparse(self, tmp_path, monkeypatch):
        import repro.service.store as store_mod

        store = ResultStore(tmp_path)
        record = store.save_record(
            ResultStore.new_record("a" * 64, "t", smoke_payload())
        )

        def boom(*args, **kwargs):
            raise AssertionError("cache miss: record was re-parsed")

        monkeypatch.setattr(store_mod.json, "loads", boom)
        assert store.load_record("a" * 64) == record
        assert store.list_records() == [record]

    def test_cache_returns_copies_not_aliases(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_record(ResultStore.new_record("a" * 64, "t", smoke_payload()))
        first = store.load_record("a" * 64)
        first["state"] = "mangled-by-caller"
        assert store.load_record("a" * 64)["state"] == "queued"

    def test_out_of_band_write_is_picked_up(self, tmp_path):
        store = ResultStore(tmp_path)
        record = store.save_record(
            ResultStore.new_record("a" * 64, "t", smoke_payload())
        )
        assert store.load_record("a" * 64)["state"] == "queued"
        # another process replaces the record (atomic replace moves
        # mtime_ns/size); this store must not serve its stale cache
        other = ResultStore(tmp_path)
        other.save_record(dict(record, state="running", attempts=1))
        assert store.load_record("a" * 64)["state"] == "running"

    def test_corruption_after_caching_reads_as_absent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_record(ResultStore.new_record("a" * 64, "t", smoke_payload()))
        assert store.load_record("a" * 64) is not None
        store.record_path("a" * 64).write_text("{broken")
        assert store.load_record("a" * 64) is None

    def test_list_records_stable_under_concurrent_submits(self, tmp_path):
        """GET /jobs-equivalent listing while a worker drains the queue:
        every snapshot is a valid, consistent record set."""
        import time

        runner = JobRunner(tmp_path)
        reader = ResultStore(tmp_path)  # a second server process's view
        runner.start()
        seen_states = set()
        try:
            records = [
                runner.submit(smoke_payload(seed=s))[0] for s in range(3)
            ]
            job_ids = {r["job_id"] for r in records}
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                listing = reader.list_records()
                assert {r["job_id"] for r in listing} <= job_ids
                for r in listing:
                    assert validate_job_record(r)
                    seen_states.add(r["state"])
                states = {
                    runner.store.load_record(job_id)["state"]
                    for job_id in job_ids
                }
                if states == {"done"}:
                    break
                time.sleep(0.01)
        finally:
            runner.stop()
        assert {
            runner.store.load_record(job_id)["state"] for job_id in job_ids
        } == {"done"}
        assert "done" in seen_states


class TestJobRunnerLifecycle:
    def test_duplicate_submission_dedupes_to_one_run(self, tmp_path):
        runner = JobRunner(tmp_path)
        rec1, created1 = runner.submit(smoke_payload())
        rec2, created2 = runner.submit(smoke_payload())
        assert created1 and not created2
        assert rec1["job_id"] == rec2["job_id"]
        assert runner.counters["deduped"] == 1
        assert runner.run_pending() == 1  # one queued job, not two
        done = runner.store.load_record(rec1["job_id"])
        assert done["state"] == "done"
        assert done["attempts"] == 1
        # resubmitting a finished job is also a dedupe hit, no re-run
        rec3, created3 = runner.submit(smoke_payload())
        assert not created3 and rec3["state"] == "done"
        assert runner.run_pending() == 0

    def test_job_id_is_the_config_hash(self, tmp_path):
        from repro.scenarios import resolve_scenario

        runner = JobRunner(tmp_path)
        record, _ = runner.submit(smoke_payload())
        assert record["job_id"] == resolve_scenario(smoke_payload()).config_hash()

    def test_done_job_serves_result_and_valid_manifest(self, tmp_path):
        runner = JobRunner(tmp_path)
        record, _ = runner.submit(smoke_payload())
        runner.run_pending()
        record = runner.store.load_record(record["job_id"])
        result = runner.store.load_result(record["job_id"])
        assert result["replications"], "result payload missing replications"
        manifest = runner.store.load_manifest(record)
        assert validate_run_manifest(manifest)
        assert manifest["config_hash"] == record["job_id"]
        assert manifest["run"]["checkpoint_dir"] == str(
            runner.store.checkpoint_dir
        )

    def test_manifest_records_the_checkpointed_dispatch(self, tmp_path):
        # service jobs always checkpoint, which keeps every stack at width 1
        # even on the fused engine; the manifest says so and why
        runner = JobRunner(tmp_path)
        record, _ = runner.submit(smoke_payload(engine="fused", replications=2))
        runner.run_pending()
        record = runner.store.load_record(record["job_id"])
        run = runner.store.load_manifest(record)["run"]
        assert run["stack_width"] == 1
        assert "checkpoint" in run["stack_reason"]

    def test_distinct_scenarios_get_distinct_jobs(self, tmp_path):
        runner = JobRunner(tmp_path)
        rec1, _ = runner.submit(smoke_payload(seed=1))
        rec2, _ = runner.submit(smoke_payload(seed=2))
        assert rec1["job_id"] != rec2["job_id"]
        assert runner.run_pending() == 2

    def test_invalid_scenario_is_rejected(self, tmp_path):
        runner = JobRunner(tmp_path)
        with pytest.raises(ValueError):
            runner.submit({"case": "case1"})
        assert runner.store.list_records() == []

    def test_negative_seed_is_rejected_at_submit(self, tmp_path):
        """A seed numpy cannot take fails the submission, not the worker."""
        runner = JobRunner(tmp_path)
        payload = smoke_payload()
        payload["overrides"]["seed"] = -1
        with pytest.raises(ValueError, match="seed"):
            runner.submit(payload)
        assert runner.store.list_records() == []

    def test_unhonourable_stack_request_is_rejected_at_submit(self, tmp_path):
        """The resolver refuses a stack the engine cannot run, by name,
        before a job exists (the HTTP surface answers 400)."""
        runner = JobRunner(tmp_path)
        payload = build_scenario_payload(
            "case1", "smoke", overrides={"engine": "batch"}, run={"stacked": True}
        )
        with pytest.raises(ValueError, match="does not fuse generations"):
            runner.submit(payload)
        assert runner.store.list_records() == []

    def test_failed_job_records_error_and_requeues(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        runner = JobRunner(tmp_path)
        record, _ = runner.submit(smoke_payload())

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(runner_mod, "run_experiment", boom)
        runner.run_pending()
        failed = runner.store.load_record(record["job_id"])
        assert failed["state"] == "failed"
        assert "injected failure" in failed["error"]
        assert runner.counters["failed"] == 1
        # a failed job is the one state a resubmission requeues
        requeued, created = runner.submit(smoke_payload())
        assert created and requeued["state"] == "queued"
        assert requeued["error"] is None
        monkeypatch.undo()
        runner.run_pending()
        done = runner.store.load_record(record["job_id"])
        assert done["state"] == "done"
        assert done["attempts"] == 2

    def test_recover_requeues_orphaned_jobs(self, tmp_path):
        runner = JobRunner(tmp_path)
        record, _ = runner.submit(smoke_payload())
        # simulate a runner that died mid-job: record left "running"
        runner.store.save_record(dict(record, state="running", attempts=1))
        runner._queue.clear()
        fresh = JobRunner(tmp_path)
        assert fresh.recover() == 1
        assert fresh.run_pending() == 1
        assert fresh.store.load_record(record["job_id"])["state"] == "done"

    def test_worker_thread_drains_the_queue(self, tmp_path):
        import time

        runner = JobRunner(tmp_path)
        runner.start()
        try:
            record, _ = runner.submit(smoke_payload())
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                state = runner.store.load_record(record["job_id"])["state"]
                if state in ("done", "failed"):
                    break
                time.sleep(0.05)
        finally:
            runner.stop()
        assert runner.store.load_record(record["job_id"])["state"] == "done"


class TestCrashRecoveryBitIdentity:
    def test_killed_runner_resumes_bit_identical(self, tmp_path):
        """SIGKILL the runner mid-job (via the PR-7 checkpoint crash hook),
        recover in a fresh runner, and demand the stored result match a
        never-interrupted control byte-for-byte."""
        victim_root = tmp_path / "victim"
        control_root = tmp_path / "control"
        scenario = REPO_ROOT / "scenarios" / "fig4_smoke.yaml"
        driver = (
            "import sys\n"
            "from repro.scenarios import load_scenario\n"
            "from repro.service import JobRunner\n"
            "runner = JobRunner(sys.argv[1])\n"
            "runner.submit(load_scenario(sys.argv[2]))\n"
            "runner.run_pending()\n"
        )
        env = os.environ.copy()
        env["PYTHONPATH"] = (
            f"{SRC_ROOT}{os.pathsep}{env['PYTHONPATH']}"
            if env.get("PYTHONPATH")
            else str(SRC_ROOT)
        )
        env[CRASH_ENV] = "2"  # die right after the 2nd checkpoint write
        victim = subprocess.run(
            [sys.executable, "-c", driver, str(victim_root), str(scenario)],
            env=env,
            capture_output=True,
        )
        assert victim.returncode == -signal.SIGKILL, (
            f"crash injection did not fire: rc={victim.returncode},"
            f" stderr={victim.stderr.decode()}"
        )
        orphan = JobRunner(victim_root).store.list_records()
        assert len(orphan) == 1 and orphan[0]["state"] == "running"
        assert not JobRunner(victim_root).store.result_path(
            orphan[0]["job_id"]
        ).exists()

        recovered = JobRunner(victim_root)
        assert recovered.recover() == 1
        assert recovered.run_pending() == 1
        record = recovered.store.load_record(orphan[0]["job_id"])
        assert record["state"] == "done"
        assert record["attempts"] == 2

        control = JobRunner(control_root)
        control.submit(load_scenario(scenario))
        control.run_pending()

        resumed_bytes = recovered.store.result_path(record["job_id"]).read_bytes()
        control_bytes = control.store.result_path(record["job_id"]).read_bytes()
        assert resumed_bytes == control_bytes, (
            "resumed service result differs from the uninterrupted control"
        )


class TestServiceEndpoints:
    def test_submit_status_result_round_trip(self, tmp_path):
        runner = JobRunner(tmp_path)
        service = Service(runner, scenarios_dir=REPO_ROOT / "scenarios")
        code, record = service.submit({"library": "fig4_smoke"})
        assert code == 201
        job_id = record["job_id"]
        code, queued = service.status(job_id)
        assert code == 200 and queued["state"] == "queued"
        code, blocked = service.result(job_id)
        assert code == 409
        runner.run_pending()
        code, status = service.status(job_id)
        assert code == 200 and status["state"] == "done"
        # the status payload embeds the schema-validated run manifest
        assert validate_run_manifest(status["manifest"])
        code, result = service.result(job_id)
        assert code == 200 and result["replications"]
        # duplicate submission: 200, same job, still one record
        code, again = service.submit({"library": "fig4_smoke"})
        assert code == 200 and again["job_id"] == job_id
        assert len(runner.store.list_records()) == 1

    def test_submit_rejects_garbage(self, tmp_path):
        service = Service(JobRunner(tmp_path))
        assert service.submit(["not", "a", "mapping"])[0] == 400
        assert service.submit({"case": "case1"})[0] == 400
        assert service.submit({"library": "nope"})[0] == 400
        negative_seed = smoke_payload()
        negative_seed["overrides"]["seed"] = -1
        assert service.submit(negative_seed)[0] == 400

    def test_unknown_job_is_404(self, tmp_path):
        service = Service(JobRunner(tmp_path))
        assert service.status("f" * 64)[0] == 404
        assert service.result("f" * 64)[0] == 404

    def test_healthz_reports_counters(self, tmp_path):
        runner = JobRunner(tmp_path)
        service = Service(runner)
        runner.submit(smoke_payload())
        runner.submit(smoke_payload())
        code, payload = service.healthz()
        assert code == 200
        assert payload["counters"]["submitted"] == 2
        assert payload["counters"]["deduped"] == 1

    def test_scenarios_listing(self, tmp_path):
        service = Service(JobRunner(tmp_path), scenarios_dir=REPO_ROOT / "scenarios")
        code, payload = service.list_scenarios()
        assert code == 200
        stems = {entry["library"] for entry in payload["scenarios"]}
        assert "fig4_smoke" in stems
        # without a library the endpoint degrades to empty, not an error
        assert Service(JobRunner(tmp_path)).list_scenarios() == (
            200,
            {"scenarios": []},
        )

    def test_stream_until_terminal(self, tmp_path):
        runner = JobRunner(tmp_path)
        service = Service(runner)
        record, _ = runner.submit(smoke_payload())
        runner.run_pending()
        snapshots = list(service.stream(record["job_id"], poll_s=0.01))
        assert snapshots[-1]["state"] == "done"

    def test_stream_unknown_job(self, tmp_path):
        service = Service(JobRunner(tmp_path))
        snapshots = list(service.stream("f" * 64))
        assert "error" in snapshots[0]
