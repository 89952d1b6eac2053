"""Checkpoint/resume for replications: durable generation-boundary snapshots.

A 500-generation replication that dies at generation 499 should lose one
generation, not five hundred.  :class:`CheckpointStore` persists everything a
replication needs to continue — the GA population, the shared random
generator, the path oracle (reputation matrices are rebuilt per generation by
``engine.reset_generation``, so the oracle and rng are the only cross-
generation simulation state), the history so far, the last evaluated
generation's per-environment statistics, and a telemetry registry snapshot —
into a content-addressed layout keyed by the run's ``config_hash``::

    <root>/<config_hash[:16]>/rep0003/gen000042.pkl    # pickled state blob
    <root>/<config_hash[:16]>/rep0003/gen000042.json   # manifest (validated)

The manifest is an exact-key document (the ``checkpoint`` schema of
:data:`repro.utils.validation.SCHEMAS`) carrying the blob's sha256, so a
torn write or bit rot is detected *before* unpickling; corrupt or partial
checkpoints are skipped in favour of the newest intact one.  Both files are written to a temporary name and atomically renamed —
the manifest last — so a crash mid-write can never produce a manifest that
points at a missing or half-written blob.

Bit-identity contract
---------------------
The rng, the oracle and the last generation's statistics are pickled in a
*single* blob, so the object identity between the replication loop's
generator and the oracle's (they share one ``np.random.Generator``) survives
the round trip.  A run resumed from any generation boundary is therefore
bit-identical to an uninterrupted run — pinned by
``tests/test_experiments_checkpoint.py`` across engines and oracles, and
enforced end-to-end by the CI ``fault-tolerance`` job
(``scripts/ci_crash_resume.py``).

Crash injection
---------------
Setting ``REPRO_CHECKPOINT_CRASH_AFTER=N`` SIGKILLs the current process the
moment it finishes writing its ``N``-th checkpoint — a deterministic way for
tests and CI to die mid-run with intact checkpoints on disk.  Unset (the
default) it does nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.telemetry.manifest import config_hash
from repro.utils.validation import CHECKPOINT_VERSION, validate_checkpoint_manifest

__all__ = ["CheckpointStore", "Checkpoint", "CHECKPOINT_VERSION", "CRASH_ENV"]

#: Environment variable enabling deterministic crash injection (see module
#: docstring); counts checkpoints written by *this process*.
CRASH_ENV = "REPRO_CHECKPOINT_CRASH_AFTER"

_checkpoints_written = 0  # process-wide, for crash injection only


@dataclass(frozen=True)
class Checkpoint:
    """One intact checkpoint: its manifest plus the restored state blob."""

    generation: int
    state: dict[str, Any]
    manifest: dict[str, Any]


class CheckpointStore:
    """Content-addressed store of replication checkpoints under ``root``."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- layout ---------------------------------------------------------------

    @staticmethod
    def key_for(config) -> str:
        """The content address of a config (its ``config_hash`` prefix).

        Two configs that simulate identically (telemetry settings aside —
        they never change results) share a key; any change to the case,
        seed, engine, scale or simulation parameters yields a fresh one, so
        a resumed run can never pick up another experiment's state.
        """
        return config_hash(config.describe())[:16]

    def replication_dir(self, config, replication: int) -> Path:
        return self.root / self.key_for(config) / f"rep{replication:04d}"

    def has_checkpoints(self, config) -> bool:
        """Whether any replication of ``config`` left a current-version
        checkpoint here.

        The cheap existence probe behind the CLI's ``--resume`` guard: a
        resume against a store with nothing matching this config's hash is
        a misconfiguration (wrong directory, changed parameters), not a
        quiet fresh start.  A manifest :meth:`load_latest` would skip
        (another ``CHECKPOINT_VERSION``, a schema failure) does not count.
        """
        return any(
            _read_manifest(path) is not None
            for path in (self.root / self.key_for(config)).glob("rep*/gen*.json")
        )

    # -- write ----------------------------------------------------------------

    def save(
        self,
        config,
        replication: int,
        generation: int,
        state: dict[str, Any],
        keep: int = 2,
    ) -> Path:
        """Persist ``state`` for a generation boundary; returns the manifest
        path.

        ``keep`` bounds the number of checkpoints retained per replication
        (newest first); older ones are pruned after the new pair lands.
        """
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        rep_dir = self.replication_dir(config, replication)
        rep_dir.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        state_name = f"gen{generation:06d}.pkl"
        manifest = validate_checkpoint_manifest(
            {
                "checkpoint_version": CHECKPOINT_VERSION,
                "config_hash": config_hash(config.describe()),
                "replication": int(replication),
                "generation": int(generation),
                "state_file": state_name,
                "state_sha256": hashlib.sha256(blob).hexdigest(),
            },
            name=f"rep{replication} gen{generation} checkpoint",
        )
        # blob first, manifest second, both via atomic rename: a crash at
        # any point leaves either no manifest or a manifest whose blob is
        # already complete on disk
        _atomic_write_bytes(rep_dir / state_name, blob)
        manifest_path = rep_dir / f"gen{generation:06d}.json"
        _atomic_write_bytes(
            manifest_path,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
        )
        self._prune(rep_dir, keep)
        _crash_if_injected()
        return manifest_path

    @staticmethod
    def _prune(rep_dir: Path, keep: int) -> None:
        manifests = sorted(rep_dir.glob("gen*.json"))
        for stale in manifests[:-keep]:
            # manifest first: once it is gone the blob is unreferenced and
            # its disappearance can never strand a reader
            stale.unlink(missing_ok=True)
            stale.with_suffix(".pkl").unlink(missing_ok=True)

    # -- read -----------------------------------------------------------------

    def load_latest(self, config, replication: int) -> Checkpoint | None:
        """The newest intact checkpoint for ``(config, replication)``.

        Walks manifests newest-first, skipping any that fail schema
        validation, belong to a different config hash, reference a missing
        blob, or whose blob digest disagrees with the manifest.  Returns
        ``None`` when nothing usable exists.
        """
        rep_dir = self.replication_dir(config, replication)
        if not rep_dir.is_dir():
            return None
        expected_hash = config_hash(config.describe())
        for manifest_path in sorted(rep_dir.glob("gen*.json"), reverse=True):
            checkpoint = self._load_one(
                manifest_path, expected_hash, replication
            )
            if checkpoint is not None:
                return checkpoint
        return None

    @staticmethod
    def _load_one(
        manifest_path: Path, expected_hash: str, replication: int
    ) -> Checkpoint | None:
        manifest = _read_manifest(manifest_path)
        if (
            manifest is None
            or manifest["config_hash"] != expected_hash
            or manifest["replication"] != replication
        ):
            return None
        blob_path = manifest_path.parent / manifest["state_file"]
        try:
            blob = blob_path.read_bytes()
        except OSError:
            return None
        if hashlib.sha256(blob).hexdigest() != manifest["state_sha256"]:
            return None
        try:
            state = pickle.loads(blob)
        except Exception:
            return None
        if not isinstance(state, dict):
            return None
        return Checkpoint(
            generation=manifest["generation"], state=state, manifest=manifest
        )


def _read_manifest(path: Path) -> dict[str, Any] | None:
    """The manifest at ``path``, or None if it is unreadable or fails the
    schema (another ``CHECKPOINT_VERSION`` included)."""
    try:
        return validate_checkpoint_manifest(
            json.loads(path.read_text()), name=str(path)
        )
    except (OSError, json.JSONDecodeError, ValueError):
        return None


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + rename."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _crash_if_injected() -> None:
    """SIGKILL this process if crash injection says its quota is reached."""
    quota = os.environ.get(CRASH_ENV)
    if not quota:
        return
    global _checkpoints_written
    _checkpoints_written += 1
    if _checkpoints_written >= int(quota):
        os.kill(os.getpid(), signal.SIGKILL)
