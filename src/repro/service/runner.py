"""The service's execution loop: dedupe, run, checkpoint, recover.

A :class:`JobRunner` owns a :class:`~repro.service.store.ResultStore` and
moves jobs through ``queued → running → done/failed``:

* **submit** resolves the scenario through :mod:`repro.scenarios` and
  content-addresses the job by the resolved config's telemetry-excluded
  ``config_hash`` — a second submission of the same experiment (whatever
  file, flags, or HTTP body it came from) returns the existing record
  without a second execution.  Only a ``failed`` job is requeued.
* **execution** forces telemetry on (hash-excluded, result-neutral) and
  runs through :func:`repro.scenarios.execute_scenario`, the executor
  every front door shares, with generation-boundary checkpoints in the
  store's shared checkpoint directory (a fused job still stacks its
  replications, as any run does); it writes the schema-validated run
  manifest (the job's status payload — there is no second reporting
  path), then the job persists the canonical result payload.
* **recover** requeues any job found ``queued`` or ``running`` on startup;
  because checkpoints are content-addressed by the same hash and
  ``resume`` is always on, a job killed mid-run completes bit-identically
  to an uninterrupted one (same guarantee the CI crash-injection gate
  pins for the CLI).

``run_pending()`` drains the queue synchronously (tests, benches, one-shot
batch use); ``start()``/``stop()`` run the same loop on a worker thread
for ``repro serve``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping

from repro.scenarios import resolve_scenario
from repro.service.store import ResultStore

__all__ = ["JobRunner"]


class JobRunner:
    """Deduping, checkpoint-backed job execution over a result store."""

    def __init__(self, root: str | Path):
        self.store = ResultStore(root)
        #: submission/execution tallies (monotone within this process)
        self.counters: dict[str, int] = {
            "submitted": 0,
            "deduped": 0,
            "requeued": 0,
            "completed": 0,
            "failed": 0,
        }
        self._queue: deque[str] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- submission -----------------------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> tuple[dict, bool]:
        """Submit a scenario payload; returns ``(record, created)``.

        ``created`` is ``True`` only when this submission enqueued new
        work (first sight of the hash, or a ``failed`` job requeued); a
        dedupe hit returns the existing record untouched.  Raises
        :class:`ValueError` for an invalid or unresolvable scenario.
        """
        resolved = resolve_scenario(payload)
        job_id = resolved.config_hash()
        with self._lock:
            self.counters["submitted"] += 1
            record = self.store.load_record(job_id)
            if record is not None:
                if record["state"] != "failed":
                    self.counters["deduped"] += 1
                    return record, False
                record = dict(
                    record, state="queued", error=None, finished_s=None
                )
                record = self.store.save_record(record)
                self.counters["requeued"] += 1
            else:
                record = self.store.save_record(
                    ResultStore.new_record(
                        job_id, resolved.name, resolved.to_payload()
                    )
                )
            self._queue.append(job_id)
        self._wake.set()
        return record, True

    def recover(self) -> int:
        """Requeue every job left ``queued``/``running`` by a dead runner.

        Returns the number requeued.  Re-execution resumes from the
        shared checkpoint store, so a recovered job finishes bit-identical
        to one that was never interrupted.
        """
        recovered = 0
        with self._lock:
            queued = set(self._queue)
            for record in self.store.list_records():
                if record["state"] not in ("queued", "running"):
                    continue
                if record["state"] == "running":
                    self.store.save_record(dict(record, state="queued"))
                if record["job_id"] not in queued:
                    self._queue.append(record["job_id"])
                    self.counters["requeued"] += 1
                    recovered += 1
        if recovered:
            self._wake.set()
        return recovered

    # -- execution ------------------------------------------------------------

    def _pop(self) -> str | None:
        with self._lock:
            return self._queue.popleft() if self._queue else None

    def run_pending(self) -> int:
        """Execute every queued job synchronously; returns the count."""
        done = 0
        while (job_id := self._pop()) is not None:
            self._execute(job_id)
            done += 1
        return done

    def _execute(self, job_id: str) -> None:
        from repro.scenarios import execute_scenario
        from repro.telemetry.config import TelemetryConfig

        with self._lock:
            record = self.store.load_record(job_id)
            if record is None or record["state"] not in ("queued", "running"):
                return  # withdrawn or already served by another runner
            record = dict(
                record,
                state="running",
                started_s=time.time(),
                attempts=record["attempts"] + 1,
            )
            record = self.store.save_record(record)
        try:
            resolved = resolve_scenario(record["scenario"])
            # the job policy: telemetry on (hash-excluded and result-neutral,
            # so every job gets a manifest), checkpoints in the shared store
            # unless the scenario names one, and always resume.  Checkpoints
            # do not change the dispatch: a fused job stacks its replications
            resolved = replace(
                resolved,
                config=resolved.config.with_(telemetry=TelemetryConfig(enabled=True)),
                checkpoint_dir=resolved.checkpoint_dir or self.store.checkpoint_dir,
                resume=True,
            )
            result, manifest_path = execute_scenario(
                resolved, manifest_dir=self.store.job_dir(job_id)
            )
            result_path = self.store.save_result(job_id, result.to_dict())
            record = dict(
                record,
                state="done",
                finished_s=time.time(),
                result_file=result_path.name,
                manifest_file=manifest_path.name,
            )
            outcome = "completed"
        except Exception as exc:  # a failed job must land in the store
            record = dict(
                record,
                state="failed",
                finished_s=time.time(),
                error=f"{type(exc).__name__}: {exc}",
            )
            outcome = "failed"
        with self._lock:
            self.store.save_record(record)
            self.counters[outcome] += 1

    # -- worker thread --------------------------------------------------------

    def start(self) -> None:
        """Run the execution loop on a daemon worker thread."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-job-runner", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            if (job_id := self._pop()) is not None:
                self._execute(job_id)
                continue
            self._wake.wait(timeout=0.1)
            self._wake.clear()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the worker thread (lets an in-flight job finish)."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
