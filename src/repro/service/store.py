"""Content-addressed job/result store for the service layer.

Layout (everything under one root, safe to tar up or resume from)::

    <root>/jobs/<config_hash>/job.json              # validated job record
    <root>/jobs/<config_hash>/result.json           # canonical result payload
    <root>/jobs/<config_hash>/<name>_manifest.json  # telemetry run manifest
    <root>/jobs/<config_hash>/<name>_metrics.jsonl  # telemetry event stream
    <root>/checkpoints/...                          # shared CheckpointStore

The job id *is* the run's full telemetry-excluded ``config_hash``
(:func:`repro.telemetry.manifest.config_hash`): two submissions that
resolve to the same experiment share one directory, one execution, one
result — dedupe is a filesystem property, not a bookkeeping table.  Job
records are checked against the ``job_record`` schema of
:data:`repro.utils.validation.SCHEMAS` at write *and* read time, and written atomically so a crash can never leave a torn record.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Mapping

from repro.utils.validation import validate_job_record

__all__ = ["ResultStore"]


class ResultStore:
    """Durable job records + results, content-addressed by config hash."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        #: shared checkpoint store root — every job checkpoints here, keyed
        #: by the same config hash, so a restarted runner resumes mid-run
        self.checkpoint_dir = self.root / "checkpoints"
        #: (mtime_ns, size)-keyed record cache: ``load_record`` (and through
        #: it ``list_records``) re-parses and re-validates a job.json only
        #: when the file actually changed, so ``GET /jobs`` stops costing
        #: O(total jobs) disk reads per request; ``save_record`` refreshes
        #: the entry it wrote.  Out-of-band writers are still picked up via
        #: the stat key (atomic replace always moves mtime_ns/size).
        self._record_cache: dict[str, tuple[tuple[int, int], dict]] = {}
        #: same-keyed verdicts of "does this job's result.json parse" for
        #: the done-state reconciliation below, so reads of a healthy done
        #: job don't re-parse a potentially large result payload every time
        self._result_ok_cache: dict[str, tuple[tuple[int, int], bool]] = {}

    # -- paths ----------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def record_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    # -- records --------------------------------------------------------------

    @staticmethod
    def new_record(job_id: str, name: str, scenario: Mapping[str, Any]) -> dict:
        """A fresh queued record for a first-time submission."""
        return validate_job_record(
            {
                "job_version": 1,
                "job_id": job_id,
                "name": name,
                "state": "queued",
                "scenario": dict(scenario),
                "submitted_s": time.time(),
                "started_s": None,
                "finished_s": None,
                "attempts": 0,
                "error": None,
                "result_file": None,
                "manifest_file": None,
            }
        )

    def save_record(self, record: Mapping[str, Any]) -> dict:
        """Validate and atomically persist a job record."""
        record = validate_job_record(record)
        path = self.record_path(record["job_id"])
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        try:
            stat = path.stat()
            self._record_cache[record["job_id"]] = (
                (stat.st_mtime_ns, stat.st_size),
                dict(record),
            )
        except OSError:
            self._record_cache.pop(record["job_id"], None)
        return record

    def load_record(self, job_id: str) -> dict | None:
        """The validated record for a job, or ``None`` if unknown.

        A record that cannot be parsed or validated is treated as absent
        (the submission path will recreate it) rather than poisoning the
        store.  A ``done`` record whose ``result.json`` is missing or
        corrupt is *reconciled* to ``failed`` on read (see
        :meth:`_reconcile`) — the same "surface the damage, let resubmit
        requeue" posture, one level up.
        """
        path = self.record_path(job_id)
        try:
            stat = path.stat()
        except OSError:
            self._record_cache.pop(job_id, None)
            return None
        key = (stat.st_mtime_ns, stat.st_size)
        cached = self._record_cache.get(job_id)
        if cached is not None and cached[0] == key:
            record = dict(cached[1])
        else:
            try:
                payload = json.loads(path.read_text())
                record = validate_job_record(payload, name=str(path))
            except (OSError, json.JSONDecodeError, ValueError):
                self._record_cache.pop(job_id, None)
                return None
            self._record_cache[job_id] = (key, dict(record))
        return self._reconcile(record)

    def _reconcile(self, record: dict) -> dict:
        """Demote a ``done`` record with no loadable result to ``failed``.

        Previously such a job served ``result: null`` forever: the runner
        only requeues ``failed`` jobs, so a crash between the record write
        and a later loss/corruption of ``result.json`` was unrecoverable.
        Surfacing it as ``failed`` (with a distinct error) makes resubmit
        requeue it through the normal path.  The demotion is persisted so
        every reader agrees; ``save_record`` is atomic and the transition
        is idempotent, so concurrent readers race benignly.
        """
        if record["state"] != "done" or self._result_ok(record["job_id"]):
            return record
        return self.save_record(
            dict(
                record,
                state="failed",
                error="result file missing or corrupt for a done job",
            )
        )

    def _result_ok(self, job_id: str) -> bool:
        """Whether the job's result.json exists and parses (stat-cached)."""
        path = self.result_path(job_id)
        try:
            stat = path.stat()
        except OSError:
            self._result_ok_cache.pop(job_id, None)
            return False
        key = (stat.st_mtime_ns, stat.st_size)
        cached = self._result_ok_cache.get(job_id)
        if cached is not None and cached[0] == key:
            return cached[1]
        try:
            json.loads(path.read_text())
            ok = True
        except (OSError, json.JSONDecodeError):
            ok = False
        self._result_ok_cache[job_id] = (key, ok)
        return ok

    def list_records(self) -> list[dict]:
        """Every valid job record, oldest submission first."""
        if not self.jobs_dir.is_dir():
            return []
        records = [
            record
            for path in sorted(self.jobs_dir.iterdir())
            if (record := self.load_record(path.name)) is not None
        ]
        records.sort(key=lambda r: r["submitted_s"])
        return records

    # -- results & manifests --------------------------------------------------

    def save_result(self, job_id: str, payload: Mapping[str, Any]) -> Path:
        """Write the canonical result payload; returns the path.

        Canonical means compact, key-sorted JSON with the per-replication
        ``checkpoint`` provenance stripped (``compare=False`` metadata) —
        so a resumed run and an uninterrupted one store byte-identical
        results.
        """
        data = dict(payload)
        data["replications"] = [
            {k: v for k, v in rep.items() if k != "checkpoint"}
            for rep in data.get("replications", [])
        ]
        path = self.result_path(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")))
        os.replace(tmp, path)
        return path

    def load_result(self, job_id: str) -> dict | None:
        try:
            return json.loads(self.result_path(job_id).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def load_manifest(self, record: Mapping[str, Any]) -> dict | None:
        """The job's validated telemetry run manifest, when one exists."""
        from repro.utils.validation import validate_run_manifest

        manifest_file = record.get("manifest_file")
        if manifest_file is None:
            return None
        path = self.job_dir(record["job_id"]) / manifest_file
        try:
            return validate_run_manifest(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError, ValueError):
            return None
