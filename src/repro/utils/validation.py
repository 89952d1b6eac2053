"""Tiny argument-validation helpers shared by configuration dataclasses,
plus the machine-readable bench-report schema contract."""

from __future__ import annotations

import math
from typing import Any, Mapping

__all__ = [
    "check_probability",
    "check_fraction",
    "check_positive",
    "check_non_negative",
    "drift_budget_error",
    "shards_error",
    "BENCH_REPORT_KEYS",
    "validate_bench_report",
    "RUN_MANIFEST_KEYS",
    "validate_run_manifest",
    "CHECKPOINT_KEYS",
    "validate_checkpoint_manifest",
    "SCENARIO_KEYS",
    "SCENARIO_OVERRIDE_KEYS",
    "SCENARIO_RUN_KEYS",
    "validate_scenario",
    "JOB_STATES",
    "JOB_RECORD_KEYS",
    "validate_job_record",
]


def check_probability(value: float, name: str) -> float:
    """Validate ``value`` lies in [0, 1]; returns it for chaining."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Validate ``value`` lies in (0, 1]; returns it for chaining."""
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate ``value`` is strictly positive; returns it for chaining."""
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate ``value`` is >= 0; returns it for chaining."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def drift_budget_error(
    route_cache: str | None,
    drift_budget: int | None,
    route_cache_label: str = "--route-cache",
    budget_label: str = "--drift-budget",
) -> str | None:
    """Validate a route-cache/drift-budget pair (``None`` when fine).

    A budget without the approx policy would be range-checked and then
    silently ignored (the exact policy hardcodes budget 0) — reject it so
    a misconfigured benchmark or scenario cannot masquerade as a
    drift-budgeted run.  Shared by the CLI flags, the scenario loader and
    the service layer; the labels parametrize the error message so each
    surface reports in its own vocabulary.
    """
    if drift_budget is None:
        return None
    if drift_budget < 0:
        return f"{budget_label} must be >= 0, got {drift_budget}"
    if route_cache != "approx":
        return f"{budget_label} requires {route_cache_label} approx"
    return None


def shards_error(shards: int | None, label: str = "--shards") -> str | None:
    """Validate a shard count (``None`` when fine; ``None`` input means
    "one pool task per replication" and is always fine)."""
    if shards is not None and shards < 1:
        return f"{label} must be >= 1, got {shards}"
    return None


#: The exact key set of every machine-readable bench report
#: (``results/bench_reports/*.json`` and the repo-root ``BENCH_ENGINE.json``).
BENCH_REPORT_KEYS = frozenset({"bench", "scale", "wall_s", "metrics", "git_sha"})


def _check_numeric_tree(value: Any, path: str) -> None:
    """Finite numbers, or string-keyed mappings that bottom out in them."""
    if isinstance(value, bool):
        raise ValueError(f"{path} must be numeric, got a bool")
    if isinstance(value, (int, float)):
        # NaN poisons comparisons silently; +/-inf serializes as the
        # non-RFC-8259 token ``Infinity`` that strict JSON consumers reject
        if not math.isfinite(value):
            raise ValueError(f"{path} is not finite ({value!r})")
        return
    if isinstance(value, Mapping):
        for key, sub in value.items():
            if not isinstance(key, str):
                raise ValueError(f"{path} has a non-string key {key!r}")
            _check_numeric_tree(sub, f"{path}[{key!r}]")
        return
    raise ValueError(
        f"{path} must be a number or a nested mapping of numbers,"
        f" got {type(value).__name__}"
    )


def validate_bench_report(payload: Any, name: str = "bench report") -> dict:
    """Validate one bench-report JSON payload against the pipeline contract.

    The contract (README "Verifying", enforced at write time by
    ``benchmarks/conftest.emit_report`` and over the committed artefacts by
    ``tests/test_bench_report_schema.py``):

    * exactly the keys ``{bench, scale, wall_s, metrics, git_sha}``,
    * ``bench`` and ``git_sha`` are non-empty strings,
    * ``scale`` is a string or a string-keyed mapping of numbers,
    * ``wall_s`` is a non-negative number, ``null`` (a bench that did not
      time itself), or a nested mapping of numbers (the engine ledger's
      per-oracle/per-engine matrix),
    * ``metrics`` is a string-keyed mapping bottoming out in finite numbers.

    Returns the payload for chaining; raises :class:`ValueError` with the
    offending path otherwise.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"{name} must be a JSON object, got {type(payload).__name__}")
    keys = set(payload)
    missing = sorted(BENCH_REPORT_KEYS - keys)
    extra = sorted(keys - BENCH_REPORT_KEYS)
    if missing or extra:
        raise ValueError(
            f"{name} keys mismatch: missing {missing or 'none'},"
            f" unexpected {extra or 'none'}"
        )
    for field in ("bench", "git_sha"):
        if not isinstance(payload[field], str) or not payload[field]:
            raise ValueError(f"{name}: {field!r} must be a non-empty string")
    scale = payload["scale"]
    if isinstance(scale, str):
        if not scale:
            raise ValueError(f"{name}: 'scale' string must be non-empty")
    else:
        _check_numeric_tree(scale, f"{name}: scale")
    wall = payload["wall_s"]
    if wall is not None:
        _check_numeric_tree(wall, f"{name}: wall_s")
        if isinstance(wall, (int, float)) and wall < 0:
            raise ValueError(f"{name}: wall_s must be >= 0, got {wall}")
    metrics = payload["metrics"]
    if not isinstance(metrics, Mapping):
        raise ValueError(f"{name}: 'metrics' must be a mapping")
    _check_numeric_tree(metrics, f"{name}: metrics")
    return dict(payload)


#: The exact key set of every telemetry run manifest
#: (``<name>_manifest.json``, written by ``repro.telemetry.manifest``).
RUN_MANIFEST_KEYS = frozenset(
    {
        "manifest_version",
        "name",
        "git_sha",
        "config_hash",
        "run",
        "wall_s",
        "metrics",
        "events_file",
    }
)


def validate_run_manifest(payload: Any, name: str = "run manifest") -> dict:
    """Validate one telemetry run-manifest payload against its contract.

    The contract (README "Observability", enforced at write time by
    ``repro.telemetry.manifest.build_run_manifest`` and at read time by
    ``repro stats``):

    * exactly the keys ``{manifest_version, name, git_sha, config_hash,
      run, wall_s, metrics, events_file}``,
    * ``manifest_version`` is the integer ``1``,
    * ``name``, ``git_sha`` and ``config_hash`` are non-empty strings,
    * ``run`` is a string-keyed mapping of scalars (strings or finite
      numbers) — the engine/oracle/policy provenance block,
    * ``wall_s`` is a non-negative finite number,
    * ``metrics`` is a string-keyed mapping bottoming out in finite
      numbers (the aggregated registry snapshot),
    * ``events_file`` is ``null`` or a non-empty string naming the
      sibling JSONL event dump.

    Returns the payload for chaining; raises :class:`ValueError` with the
    offending path otherwise.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"{name} must be a JSON object, got {type(payload).__name__}")
    keys = set(payload)
    if keys != RUN_MANIFEST_KEYS:
        missing = sorted(RUN_MANIFEST_KEYS - keys)
        extra = sorted(keys - RUN_MANIFEST_KEYS)
        raise ValueError(
            f"{name} keys mismatch: missing {missing or 'none'},"
            f" unexpected {extra or 'none'}"
        )
    version = payload["manifest_version"]
    if isinstance(version, bool) or not isinstance(version, int) or version != 1:
        raise ValueError(
            f"{name}: 'manifest_version' must be the integer 1, got {version!r}"
        )
    for field in ("name", "git_sha", "config_hash"):
        if not isinstance(payload[field], str) or not payload[field]:
            raise ValueError(f"{name}: {field!r} must be a non-empty string")
    run = payload["run"]
    if not isinstance(run, Mapping):
        raise ValueError(f"{name}: 'run' must be a mapping")
    for key, value in run.items():
        if not isinstance(key, str):
            raise ValueError(f"{name}: run has a non-string key {key!r}")
        if isinstance(value, str):
            continue
        _check_numeric_tree(value, f"{name}: run[{key!r}]")
        if isinstance(value, Mapping):
            raise ValueError(f"{name}: run[{key!r}] must be a scalar")
    wall = payload["wall_s"]
    _check_numeric_tree(wall, f"{name}: wall_s")
    if not isinstance(wall, (int, float)) or wall < 0:
        raise ValueError(f"{name}: wall_s must be a number >= 0, got {wall!r}")
    metrics = payload["metrics"]
    if not isinstance(metrics, Mapping):
        raise ValueError(f"{name}: 'metrics' must be a mapping")
    _check_numeric_tree(metrics, f"{name}: metrics")
    events_file = payload["events_file"]
    if events_file is not None and (
        not isinstance(events_file, str) or not events_file
    ):
        raise ValueError(
            f"{name}: 'events_file' must be null or a non-empty string"
        )
    return dict(payload)


#: The exact key set of every checkpoint manifest
#: (``gen*.json``, written by ``repro.experiments.checkpoint``).
CHECKPOINT_KEYS = frozenset(
    {
        "checkpoint_version",
        "config_hash",
        "replication",
        "generation",
        "state_file",
        "state_sha256",
    }
)


def _check_exact_int(value: Any, name: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def validate_checkpoint_manifest(payload: Any, name: str = "checkpoint") -> dict:
    """Validate one checkpoint-manifest payload against its contract.

    The contract (README "Fault tolerance", enforced at write time by
    ``repro.experiments.checkpoint.CheckpointStore.save`` and again at load
    time before the state blob is unpickled):

    * exactly the keys ``{checkpoint_version, config_hash, replication,
      generation, state_file, state_sha256}``,
    * ``checkpoint_version`` is the integer ``1``,
    * ``config_hash`` is a non-empty string (the content address — the same
      sha256 :func:`repro.telemetry.manifest.config_hash` produces),
    * ``replication`` and ``generation`` are integers >= 0,
    * ``state_file`` is a non-empty string naming the sibling pickle blob,
    * ``state_sha256`` is a 64-character lowercase hex digest of that blob.

    Returns the payload for chaining; raises :class:`ValueError` with the
    offending field otherwise.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"{name} must be a JSON object, got {type(payload).__name__}")
    keys = set(payload)
    if keys != CHECKPOINT_KEYS:
        missing = sorted(CHECKPOINT_KEYS - keys)
        extra = sorted(keys - CHECKPOINT_KEYS)
        raise ValueError(
            f"{name} keys mismatch: missing {missing or 'none'},"
            f" unexpected {extra or 'none'}"
        )
    version = payload["checkpoint_version"]
    if isinstance(version, bool) or not isinstance(version, int) or version != 1:
        raise ValueError(
            f"{name}: 'checkpoint_version' must be the integer 1, got {version!r}"
        )
    if not isinstance(payload["config_hash"], str) or not payload["config_hash"]:
        raise ValueError(f"{name}: 'config_hash' must be a non-empty string")
    _check_exact_int(payload["replication"], f"{name}: 'replication'")
    _check_exact_int(payload["generation"], f"{name}: 'generation'")
    if not isinstance(payload["state_file"], str) or not payload["state_file"]:
        raise ValueError(f"{name}: 'state_file' must be a non-empty string")
    digest = payload["state_sha256"]
    if (
        not isinstance(digest, str)
        or len(digest) != 64
        or any(c not in "0123456789abcdef" for c in digest)
    ):
        raise ValueError(
            f"{name}: 'state_sha256' must be a 64-char lowercase hex digest"
        )
    return dict(payload)


# -- scenario files ----------------------------------------------------------

#: The exact top-level key set of every scenario file (``scenarios/*.yaml``,
#: loaded by :mod:`repro.scenarios`).  All keys are required: a scenario is a
#: complete, explicit description of one experiment run.
SCENARIO_KEYS = frozenset(
    {
        "scenario_version",
        "name",
        "description",
        "case",
        "scale",
        "overrides",
        "run",
    }
)

#: Allowed keys of a scenario's ``overrides`` block — the same knobs the CLI
#: exposes as flags on ``run-case``.  Absent keys keep the case defaults.
SCENARIO_OVERRIDE_KEYS = frozenset(
    {
        "seed",
        "engine",
        "generations",
        "rounds",
        "replications",
        "mobility",
        "speed",
        "pause",
        "route_cache",
        "drift_budget",
        "telemetry",
    }
)

#: Allowed keys of a scenario's ``run`` block — execution options that never
#: change simulation results (and therefore never enter the config hash).
#: ``stacked`` qualifies because stacked evaluation is bit-identical to the
#: per-replication path (``tests/test_sim_stacked.py``).
SCENARIO_RUN_KEYS = frozenset(
    {"processes", "shards", "checkpoint_dir", "resume", "stacked"}
)

#: Characters allowed in a scenario name (it names manifest/result files).
_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def _check_optional_int(value: Any, name: str, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_nonempty_str(value: Any, name: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string")


def validate_scenario(payload: Any, name: str = "scenario") -> dict:
    """Validate one scenario payload against the DSL contract.

    The contract (README "Serving layer", enforced at load time by
    :func:`repro.scenarios.load_scenario`, over the committed library by
    ``tests/test_scenarios.py`` and in CI by ``repro validate-scenarios``):

    * exactly the top-level keys ``{scenario_version, name, description,
      case, scale, overrides, run}``,
    * ``scenario_version`` is the integer ``1``,
    * ``name`` is a non-empty filename-safe string
      (``[A-Za-z0-9._-]+``), ``description`` a string,
    * ``case`` and ``scale`` are non-empty strings (membership in the case
      registry and scale table is checked at *resolve* time, which owns
      those imports),
    * ``overrides`` is a mapping whose keys are a subset of
      :data:`SCENARIO_OVERRIDE_KEYS` with type/range-checked values
      (``speed``/``pause`` require ``mobility``; ``drift_budget`` requires
      ``route_cache: approx``),
    * ``run`` is a mapping whose keys are a subset of
      :data:`SCENARIO_RUN_KEYS` (execution options; ``null`` means
      default).

    Returns a normalized deep copy (``overrides``/``run`` as plain dicts);
    raises :class:`ValueError` with the offending field otherwise.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"{name} must be a mapping, got {type(payload).__name__}")
    keys = set(payload)
    if keys != SCENARIO_KEYS:
        missing = sorted(SCENARIO_KEYS - keys)
        extra = sorted(keys - SCENARIO_KEYS)
        raise ValueError(
            f"{name} keys mismatch: missing {missing or 'none'},"
            f" unexpected {extra or 'none'}"
        )
    version = payload["scenario_version"]
    if isinstance(version, bool) or not isinstance(version, int) or version != 1:
        raise ValueError(
            f"{name}: 'scenario_version' must be the integer 1, got {version!r}"
        )
    _check_nonempty_str(payload["name"], f"{name}: 'name'")
    if not set(payload["name"]) <= _NAME_CHARS:
        raise ValueError(
            f"{name}: 'name' may only contain [A-Za-z0-9._-],"
            f" got {payload['name']!r}"
        )
    if not isinstance(payload["description"], str):
        raise ValueError(f"{name}: 'description' must be a string")
    _check_nonempty_str(payload["case"], f"{name}: 'case'")
    _check_nonempty_str(payload["scale"], f"{name}: 'scale'")

    overrides = payload["overrides"]
    if not isinstance(overrides, Mapping):
        raise ValueError(f"{name}: 'overrides' must be a mapping")
    unknown = sorted(set(overrides) - SCENARIO_OVERRIDE_KEYS)
    if unknown:
        raise ValueError(f"{name}: unknown override keys {unknown}")
    for key in ("seed",):
        if key in overrides:
            value = overrides[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"{name}: override {key!r} must be an integer, got {value!r}"
                )
    for key, minimum in (("generations", 1), ("rounds", 1), ("replications", 1)):
        if key in overrides:
            _check_optional_int(
                overrides[key], f"{name}: override {key!r}", minimum
            )
    for key in ("engine", "mobility", "route_cache"):
        if key in overrides:
            _check_nonempty_str(overrides[key], f"{name}: override {key!r}")
    for key in ("speed", "pause"):
        if key in overrides:
            value = overrides[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"{name}: override {key!r} must be a number, got {value!r}"
                )
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"{name}: override {key!r} must be >= 0 and finite,"
                    f" got {value!r}"
                )
    if (
        "speed" in overrides or "pause" in overrides
    ) and "mobility" not in overrides:
        raise ValueError(
            f"{name}: overrides 'speed'/'pause' require 'mobility'"
        )
    if "drift_budget" in overrides:
        _check_optional_int(
            overrides["drift_budget"], f"{name}: override 'drift_budget'", 0
        )
    error = drift_budget_error(
        overrides.get("route_cache"),
        overrides.get("drift_budget"),
        route_cache_label="override 'route_cache':",
        budget_label="override 'drift_budget'",
    )
    if error is not None:
        raise ValueError(f"{name}: {error}")
    if "telemetry" in overrides and not isinstance(overrides["telemetry"], bool):
        raise ValueError(f"{name}: override 'telemetry' must be a boolean")

    run = payload["run"]
    if not isinstance(run, Mapping):
        raise ValueError(f"{name}: 'run' must be a mapping")
    unknown = sorted(set(run) - SCENARIO_RUN_KEYS)
    if unknown:
        raise ValueError(f"{name}: unknown run keys {unknown}")
    for key in ("processes", "shards"):
        if key in run and run[key] is not None:
            _check_optional_int(run[key], f"{name}: run {key!r}", 1)
    if "checkpoint_dir" in run and run["checkpoint_dir"] is not None:
        _check_nonempty_str(run["checkpoint_dir"], f"{name}: run 'checkpoint_dir'")
    if "resume" in run and not isinstance(run["resume"], bool):
        raise ValueError(f"{name}: run 'resume' must be a boolean")
    if (
        "stacked" in run
        and run["stacked"] is not None
        and not isinstance(run["stacked"], bool)
    ):
        raise ValueError(f"{name}: run 'stacked' must be a boolean or null")

    normalized = dict(payload)
    normalized["overrides"] = {k: overrides[k] for k in sorted(overrides)}
    normalized["run"] = {k: run[k] for k in sorted(run)}
    return normalized


# -- service job records -----------------------------------------------------

#: The lifecycle states of a service job (``queued`` -> ``running`` ->
#: ``done``/``failed``; a failed or orphaned job may be requeued).
JOB_STATES = ("queued", "running", "done", "failed")

#: The exact key set of every service job record (``job.json``, written by
#: ``repro.service.store.ResultStore``).
JOB_RECORD_KEYS = frozenset(
    {
        "job_version",
        "job_id",
        "name",
        "state",
        "scenario",
        "submitted_s",
        "started_s",
        "finished_s",
        "attempts",
        "error",
        "result_file",
        "manifest_file",
    }
)


def validate_job_record(payload: Any, name: str = "job record") -> dict:
    """Validate one service job record against its contract.

    The contract (README "Serving layer", enforced at write time by
    ``repro.service.store.ResultStore.save_record`` and at read time before
    a record is trusted):

    * exactly the keys :data:`JOB_RECORD_KEYS`,
    * ``job_version`` is the integer ``1``,
    * ``job_id`` is the run's full 64-char ``config_hash`` (the dedupe
      content address),
    * ``state`` is one of :data:`JOB_STATES`,
    * ``scenario`` is a valid scenario payload (re-resolved on recovery),
    * ``submitted_s`` is a finite number; ``started_s``/``finished_s`` are
      finite numbers or ``null``,
    * ``attempts`` is an integer >= 0 (execution starts so far),
    * ``error``, ``result_file`` and ``manifest_file`` are ``null`` or
      non-empty strings.

    Returns the payload for chaining; raises :class:`ValueError` otherwise.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"{name} must be a JSON object, got {type(payload).__name__}")
    keys = set(payload)
    if keys != JOB_RECORD_KEYS:
        missing = sorted(JOB_RECORD_KEYS - keys)
        extra = sorted(keys - JOB_RECORD_KEYS)
        raise ValueError(
            f"{name} keys mismatch: missing {missing or 'none'},"
            f" unexpected {extra or 'none'}"
        )
    version = payload["job_version"]
    if isinstance(version, bool) or not isinstance(version, int) or version != 1:
        raise ValueError(
            f"{name}: 'job_version' must be the integer 1, got {version!r}"
        )
    job_id = payload["job_id"]
    if (
        not isinstance(job_id, str)
        or len(job_id) != 64
        or any(c not in "0123456789abcdef" for c in job_id)
    ):
        raise ValueError(
            f"{name}: 'job_id' must be a 64-char lowercase hex config hash"
        )
    _check_nonempty_str(payload["name"], f"{name}: 'name'")
    if payload["state"] not in JOB_STATES:
        raise ValueError(
            f"{name}: 'state' must be one of {JOB_STATES}, got {payload['state']!r}"
        )
    validate_scenario(payload["scenario"], name=f"{name}: scenario")
    submitted = payload["submitted_s"]
    if (
        isinstance(submitted, bool)
        or not isinstance(submitted, (int, float))
        or not math.isfinite(submitted)
    ):
        raise ValueError(f"{name}: 'submitted_s' must be a finite number")
    for key in ("started_s", "finished_s"):
        value = payload[key]
        if value is None:
            continue
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            raise ValueError(f"{name}: {key!r} must be null or a finite number")
    _check_exact_int(payload["attempts"], f"{name}: 'attempts'")
    for key in ("error", "result_file", "manifest_file"):
        value = payload[key]
        if value is not None and (not isinstance(value, str) or not value):
            raise ValueError(f"{name}: {key!r} must be null or a non-empty string")
    return dict(payload)
