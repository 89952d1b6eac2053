"""Argument-validation helpers for the configuration dataclasses, plus the
declarative schemas of every machine-readable document the repo writes.

:data:`SCHEMAS` holds one table per document kind (bench report, run
manifest, checkpoint manifest, scenario, service job record) with one row
per document key, mapping the key to a rule from a small vocabulary
(integer 1, string, 64-char hex, integer >= n, finite number, optional,
finite-number tree, one-of, nested object with exact or subset keys).
:func:`check` is the one checker; the ``validate_*`` functions are its
named entry points and the ``*_KEYS`` constants are read off the table.
Every error names the document and the dotted path of the offending key.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

__all__ = [
    "check_probability",
    "drift_budget_error",
    "shards_error",
    "CHECKPOINT_VERSION",
    "SCHEMAS",
    "check",
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
    drift-budgeted run.  Shared by the CLI flags and the scenario schema's
    cross-key rule; the labels parametrize the error message so each
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
    "one stack per worker" and is always fine)."""
    if shards is not None and shards < 1:
        return f"{label} must be >= 1, got {shards}"
    return None


# -- rule vocabulary ---------------------------------------------------------

#: A rule checks one value at ``path`` (dotted, ``""`` for the document
#: itself) of the document ``name``, raising :class:`ValueError` that names
#: both when the value breaks it.
Rule = Callable[[Any, str, str], None]

_HEX_CHARS = frozenset("0123456789abcdef")
#: Characters allowed in a scenario name (it names manifest/result files).
_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def _label(name: str, path: str) -> str:
    return f"{name}: {path!r}" if path else name


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(ok: Callable[[Any], bool], what: str) -> Rule:
    """Rule: ``ok(value)`` holds; the error says the value must be ``what``."""

    def expect(value: Any, name: str, path: str) -> None:
        if not ok(value):
            raise ValueError(f"{_label(name, path)} must be {what}, got {value!r}")

    return expect


_VERSION = _expect(lambda v: _is_int(v) and v == 1, "the integer 1")

#: Checkpoint layout version: bump on any change to the manifest or to the
#: pickled state blob of :mod:`repro.experiments.checkpoint` (including the
#: fields of the classes it pickles).  A manifest of any other version is
#: skipped, never unpickled.
CHECKPOINT_VERSION = 2
_CHECKPOINT_VERSION = _expect(
    lambda v: _is_int(v) and v == CHECKPOINT_VERSION,
    f"the integer {CHECKPOINT_VERSION}",
)
_TEXT = _expect(lambda v: isinstance(v, str), "a string")
_STR = _expect(lambda v: isinstance(v, str) and v != "", "a non-empty string")
_BOOL = _expect(lambda v: isinstance(v, bool), "a boolean")
_HEX64 = _expect(
    lambda v: isinstance(v, str) and len(v) == 64 and set(v) <= _HEX_CHARS,
    "a 64-char lowercase hex digest",
)
_NAME = _expect(
    lambda v: isinstance(v, str) and v != "" and set(v) <= _NAME_CHARS,
    "a non-empty string of [A-Za-z0-9._-]",
)


def _integer(minimum: int) -> Rule:
    """Rule: an integer >= ``minimum`` (a bool is not an integer here)."""
    return _expect(lambda v: _is_int(v) and v >= minimum, f"an integer >= {minimum}")


def _choice(choices: tuple) -> Rule:
    """Rule: one of the values ``choices``."""
    return _expect(lambda v: isinstance(v, str) and v in choices, f"one of {choices}")


def _optional(rule: Rule) -> Rule:
    """Rule: ``null``, or a value passing ``rule``."""

    def optional(value: Any, name: str, path: str) -> None:
        if value is not None:
            rule(value, name, path)

    return optional


def _either(*rules: Rule) -> Rule:
    """Rule: a value passing one of ``rules`` (the error lists every miss)."""

    def either(value: Any, name: str, path: str) -> None:
        errors = []
        for rule in rules:
            try:
                return rule(value, name, path)
            except ValueError as exc:
                errors.append(str(exc))
        raise ValueError("; or ".join(errors))

    return either


def _number(minimum: float | None = None, what: str = "a finite number") -> Rule:
    """Rule: a finite number (not a bool), >= ``minimum`` when given."""

    def number(value: Any, name: str, path: str) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            kind = type(value).__name__
            raise ValueError(f"{_label(name, path)} must be {what}, got {kind}")
        # NaN poisons comparisons silently; +/-inf serializes as the
        # non-RFC-8259 token ``Infinity`` that strict JSON consumers reject
        if not math.isfinite(value):
            raise ValueError(f"{_label(name, path)} is not finite ({value!r})")
        if minimum is not None and value < minimum:
            label = _label(name, path)
            raise ValueError(f"{label} must be >= {minimum}, got {value!r}")

    return number


def _require_mapping(value: Any, name: str, path: str) -> None:
    if not isinstance(value, Mapping):
        raise ValueError(
            f"{_label(name, path)} must be a mapping (JSON object),"
            f" got {type(value).__name__}"
        )


def _mapping(values: Rule) -> Rule:
    """Rule: a string-keyed mapping whose every value passes ``values``."""

    def mapping(value: Any, name: str, path: str) -> None:
        _require_mapping(value, name, path)
        for key, sub in value.items():
            if not isinstance(key, str):
                raise ValueError(f"{_label(name, path)} has a non-string key {key!r}")
            values(sub, name, f"{path}.{key}")

    return mapping


def _numbers(minimum: float | None = None) -> Rule:
    """Rule: a finite-number tree — a finite number (>= ``minimum`` when
    given), or string-keyed mappings that bottom out in them."""
    leaf = _number(minimum, "a number or a nested mapping of numbers")

    def numbers(value: Any, name: str, path: str) -> None:
        (branch if isinstance(value, Mapping) else leaf)(value, name, path)

    branch = _mapping(numbers)
    return numbers


class _Object:
    """Rule: a mapping whose keys are exactly ``rows`` (a subset of them
    when ``exact`` is false), each value passing its row's rule, and then
    the whole mapping passing the optional ``cross`` (cross-key) rule."""

    def __init__(
        self, rows: dict[str, Rule], exact: bool = True, cross: Rule | None = None
    ) -> None:
        self.rows = rows
        self.exact = exact
        self.cross = cross

    def __call__(self, value: Any, name: str, path: str) -> None:
        _require_mapping(value, name, path)
        keys = set(value)
        extra = sorted(keys - self.rows.keys(), key=str)
        missing = sorted(self.rows.keys() - keys) if self.exact else []
        if missing or extra:
            if not self.exact:
                raise ValueError(f"{name}: unknown {path} keys {extra}")
            raise ValueError(
                f"{_label(name, path)} keys mismatch: missing {missing or 'none'},"
                f" unexpected {extra or 'none'}"
            )
        for key, sub in value.items():
            self.rows[key](sub, name, f"{path}.{key}" if path else key)
        if self.cross is not None:
            self.cross(value, name, path)


def _scenario_pairs(payload: Mapping, name: str, path: str) -> None:
    """Cross-key rule of a scenario's ``overrides``.

    ``speed``/``pause`` need a mobility model other than ``none`` (under
    ``none`` they would be ignored yet still move the config hash, giving
    one run two content addresses), and ``drift_budget`` needs
    ``route_cache: approx``.
    """
    overrides = payload["overrides"]
    moving = overrides.get("mobility", "none") != "none"
    if ("speed" in overrides or "pause" in overrides) and not moving:
        raise ValueError(
            f"{_label(name, path)}: overrides 'speed'/'pause' require 'mobility'"
            " (a model other than 'none')"
        )
    error = drift_budget_error(
        overrides.get("route_cache"),
        overrides.get("drift_budget"),
        route_cache_label="'overrides.route_cache'",
        budget_label="'overrides.drift_budget'",
    )
    if error is not None:
        raise ValueError(f"{_label(name, path)}: {error}")


# -- the schema table --------------------------------------------------------

#: The lifecycle states of a service job (``queued`` -> ``running`` ->
#: ``done``/``failed``; a failed or orphaned job may be requeued).
JOB_STATES = ("queued", "running", "done", "failed")

_SCENARIO = _Object({
    "scenario_version": _VERSION,
    "name": _NAME,
    "description": _TEXT,
    # membership in the case registry and scale table (and of engine,
    # mobility and route_cache below) is checked at resolve time
    "case": _STR,
    "scale": _STR,
    # the knobs ``run-case`` exposes as flags; absent keys keep the defaults
    "overrides": _Object({
        "seed": _integer(0),
        "engine": _STR,
        "generations": _integer(1),
        "rounds": _integer(1),
        "replications": _integer(1),
        "mobility": _STR,
        "speed": _number(minimum=0),
        "pause": _number(minimum=0),
        "route_cache": _STR,
        "drift_budget": _integer(0),
        "telemetry": _BOOL,
    }, exact=False),
    # execution options that never change results (so never enter the
    # config hash); ``null`` means default.  ``stacked`` qualifies because
    # stacked evaluation is bit-identical (``tests/test_sim_stacked.py``)
    "run": _Object({
        "processes": _optional(_integer(1)),
        "shards": _optional(_integer(1)),
        "checkpoint_dir": _optional(_STR),
        "resume": _BOOL,
        "stacked": _optional(_BOOL),
    }, exact=False),
}, cross=_scenario_pairs)

#: One exact-key schema per document kind; :func:`check` reads it.
SCHEMAS: dict[str, _Object] = {
    # results/bench_reports/*.json and the repo-root BENCH_ENGINE.json
    "bench_report": _Object({
        "bench": _STR,
        "scale": _either(_STR, _numbers()),
        # null for a bench that did not time itself; a tree for the
        # engine ledger's per-oracle/per-engine matrix
        "wall_s": _optional(_numbers(minimum=0)),
        "metrics": _mapping(_numbers()),
        "git_sha": _STR,
    }),
    # <name>_manifest.json, written by repro.telemetry.manifest
    "run_manifest": _Object({
        "manifest_version": _VERSION,
        "name": _STR,
        "git_sha": _STR,
        "config_hash": _STR,
        "run": _mapping(_either(_TEXT, _number())),  # engine/dispatch provenance
        "wall_s": _number(minimum=0),
        "metrics": _mapping(_numbers()),  # the aggregated registry snapshot
        "events_file": _optional(_STR),  # the sibling JSONL event dump
    }),
    # gen*.json, written by repro.experiments.checkpoint
    "checkpoint": _Object({
        "checkpoint_version": _CHECKPOINT_VERSION,
        "config_hash": _STR,  # the content address
        "replication": _integer(0),
        "generation": _integer(0),
        "state_file": _STR,  # the sibling pickle blob
        "state_sha256": _HEX64,
    }),
    # scenarios/*.yaml, loaded by repro.scenarios
    "scenario": _SCENARIO,
    # job.json, written by repro.service.store.ResultStore
    "job_record": _Object({
        "job_version": _VERSION,
        "job_id": _HEX64,  # the run's full config_hash: the dedupe address
        "name": _STR,
        "state": _choice(JOB_STATES),
        "scenario": _SCENARIO,  # re-resolved on recovery
        "submitted_s": _number(),
        "started_s": _optional(_number()),
        "finished_s": _optional(_number()),
        "attempts": _integer(0),  # execution starts so far
        "error": _optional(_STR),
        "result_file": _optional(_STR),
        "manifest_file": _optional(_STR),
    }),
}

BENCH_REPORT_KEYS = frozenset(SCHEMAS["bench_report"].rows)
RUN_MANIFEST_KEYS = frozenset(SCHEMAS["run_manifest"].rows)
CHECKPOINT_KEYS = frozenset(SCHEMAS["checkpoint"].rows)
SCENARIO_KEYS = frozenset(_SCENARIO.rows)
SCENARIO_OVERRIDE_KEYS = frozenset(_SCENARIO.rows["overrides"].rows)
SCENARIO_RUN_KEYS = frozenset(_SCENARIO.rows["run"].rows)
JOB_RECORD_KEYS = frozenset(SCHEMAS["job_record"].rows)


def check(kind: str, payload: Any, name: str | None = None) -> dict:
    """Check ``payload`` against ``SCHEMAS[kind]``; returns a shallow copy.
    ``name`` (default: the kind, spaced) prefixes every error message."""
    SCHEMAS[kind](payload, kind.replace("_", " ") if name is None else name, "")
    return dict(payload)


def validate_bench_report(payload: Any, name: str = "bench report") -> dict:
    """A bench report (README "Verifying"); checked when written."""
    return check("bench_report", payload, name)


def validate_run_manifest(payload: Any, name: str = "run manifest") -> dict:
    """A telemetry run manifest (README "Observability"); checked when
    written and when ``repro stats`` or the service reads it."""
    return check("run_manifest", payload, name)


def validate_checkpoint_manifest(payload: Any, name: str = "checkpoint") -> dict:
    """A checkpoint manifest (README "Fault tolerance"); checked when saved
    and again before its state blob is unpickled."""
    return check("checkpoint", payload, name)


def validate_scenario(payload: Any, name: str = "scenario") -> dict:
    """A scenario (README "Serving layer"), with its ``overrides``/``run``
    blocks copied into key-sorted dicts."""
    normalized = check("scenario", payload, name)
    for block in ("overrides", "run"):
        normalized[block] = {k: normalized[block][k] for k in sorted(normalized[block])}
    return normalized


def validate_job_record(payload: Any, name: str = "job record") -> dict:
    """A service job record (README "Serving layer"); checked when written
    and before a record read back from disk is trusted."""
    return check("job_record", payload, name)
