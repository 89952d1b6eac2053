"""Schema-validated run manifests: what a telemetry-enabled run leaves behind.

A run emits two files next to each other:

* ``<name>_manifest.json`` — the aggregated view: provenance (config hash,
  git sha, engine/oracle/policy), total wall seconds, and the full merged
  metric registry as a numeric tree.  Validated at write *and* read time by
  :func:`repro.utils.validation.validate_run_manifest` — the same exact-key
  contract the bench reports live under.
* ``<name>_metrics.jsonl`` — the event stream: one JSON object per line
  (span events per replication, then one ``metric`` line per aggregated
  counter/gauge/timer/histogram), for consumers that want the raw dump.

``repro stats <manifest.json>`` renders the manifest human-readably
(:mod:`repro.telemetry.render`).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path

from repro.utils.validation import validate_run_manifest

__all__ = ["config_hash", "git_sha", "build_run_manifest", "write_run_manifest"]

#: Manifest schema version (bump on any key-set change).
MANIFEST_VERSION = 1


def git_sha() -> str:
    """Short commit id for provenance (``unknown`` outside a checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def config_hash(config_summary: dict) -> str:
    """Deterministic digest of an ``ExperimentConfig.describe()`` summary.

    Telemetry settings are excluded: they never change simulation results,
    so two runs differing only in instrumentation hash identically.
    """
    summary = {k: v for k, v in config_summary.items() if k != "telemetry"}
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_summary(config_summary: dict) -> dict:
    """The scalar provenance block (engine/oracle/policy/scale)."""
    sim = config_summary.get("sim", {})
    mobility = sim.get("mobility", {})
    # the summary mirrors MobilityConfig.to_dict(), where model "none"
    # means the paper's random oracle (MobilityConfig.enabled)
    mobile = mobility.get("model", "none") != "none"
    return {
        "case": config_summary.get("case", "unknown"),
        "engine": config_summary.get("engine", "unknown"),
        "oracle": (
            f"mobile:{mobility.get('model', 'unknown')}" if mobile else "random"
        ),
        "route_cache": (
            str(mobility.get("route_cache", "exact")) if mobile else "none"
        ),
        "drift_budget": int(mobility.get("drift_budget", 0)) if mobile else 0,
        "generations": int(config_summary.get("generations", 0)),
        "rounds": int(sim.get("rounds", 0)),
        "replications": int(config_summary.get("replications", 0)),
        "seed": int(config_summary.get("seed", 0)),
    }


def build_run_manifest(
    name: str,
    config_summary: dict,
    metrics: dict,
    wall_s: float,
    events_file: str | None = None,
    run_extra: dict | None = None,
) -> dict:
    """Assemble (and validate) a run manifest payload.

    ``run_extra`` merges additional scalar provenance into the ``run``
    block — e.g. the resolved checkpoint store path, so a ``--resume``
    invocation can be traced to the store it actually read.
    """
    run = _run_summary(config_summary)
    if run_extra:
        run.update(run_extra)
    payload = {
        "manifest_version": MANIFEST_VERSION,
        "name": name,
        "git_sha": git_sha(),
        "config_hash": config_hash(config_summary),
        "run": run,
        "wall_s": round(float(wall_s), 6),
        "metrics": metrics,
        "events_file": events_file,
    }
    return validate_run_manifest(payload, name=f"{name} manifest")


def write_run_manifest(
    out_dir: str | Path,
    name: str,
    config_summary: dict,
    telemetry: dict,
    run_extra: dict | None = None,
) -> Path:
    """Write ``<name>_manifest.json`` + ``<name>_metrics.jsonl``; returns
    the manifest path.

    ``telemetry`` is the aggregated payload attached to an
    :class:`~repro.experiments.results.ExperimentResult` by a
    telemetry-enabled run: ``{"metrics": <registry snapshot>,
    "events": [...], "wall_s": ..., "stack_width": ...,
    "stack_reason": ...}``; the dispatch keys join the ``run`` block.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    events = telemetry.get("events", [])
    metrics = telemetry.get("metrics", {})
    events_name = f"{name}_metrics.jsonl"
    lines = [json.dumps(event) for event in events]
    for kind in ("counters", "gauges", "timers", "histograms"):
        for metric_name, value in metrics.get(kind, {}).items():
            lines.append(
                json.dumps(
                    {"event": "metric", "kind": kind[:-1],
                     "name": metric_name, "value": value}
                )
            )
    (out_dir / events_name).write_text("\n".join(lines) + "\n")
    payload = build_run_manifest(
        name,
        config_summary,
        metrics,
        wall_s=telemetry.get("wall_s", 0.0),
        events_file=events_name,
        run_extra={
            **{k: telemetry[k] for k in ("stack_width", "stack_reason") if k in telemetry},
            **(run_extra or {}),
        },
    )
    path = out_dir / f"{name}_manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
