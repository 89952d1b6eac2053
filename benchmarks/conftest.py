"""Shared infrastructure for the benchmark harnesses.

Each ``bench_*`` file does two things:

1. **times** a representative kernel with pytest-benchmark, and
2. **prints/saves** the paper-style artefact report.

Reports use the default-scale results cached in ``results/`` when available
(written by ``python -m repro reproduce all --out results``); otherwise they
fall back to a seconds-scale smoke run so ``pytest benchmarks/`` always works
standalone.  The scale actually used is printed in every report header.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

import pytest

from repro.experiments.registry import ReproductionSession
from repro.utils.validation import validate_bench_report

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
REPORT_DIR = RESULTS_DIR / "bench_reports"
SEED = 2007

#: perf_counter at the start of the current bench test (autouse fixture);
#: ``emit_report`` derives its ``wall_s`` from this.
_test_started_at: float | None = None


def git_sha() -> str:
    """Short commit id for provenance in the JSON reports."""
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


@pytest.fixture(autouse=True)
def _bench_wall_clock():
    """Stamp each bench test's start so reports carry honest wall times."""
    global _test_started_at
    _test_started_at = time.perf_counter()
    yield
    _test_started_at = None


def _pick_scale() -> str:
    forced = os.environ.get("REPRO_BENCH_SCALE")
    if forced:
        return forced
    cached_session = ReproductionSession(
        scale="default", overrides={"seed": SEED}, cache_dir=RESULTS_DIR
    )
    cached = all(
        cached_session.cache_path(case).exists()
        for case in ("case1", "case2", "case3", "case4")
    )
    return "default" if cached else "smoke"


@pytest.fixture(scope="session")
def session() -> ReproductionSession:
    """The shared per-case experiment cache behind all artefact benches."""
    scale = _pick_scale()
    return ReproductionSession(
        scale=scale,
        overrides={"seed": SEED},
        run={"processes": 1 if scale == "smoke" else None},
        cache_dir=RESULTS_DIR if scale == "default" else None,
    )


def emit_report(
    name: str,
    session: ReproductionSession,
    text: str,
    metrics: dict | None = None,
    wall_s: float | None = None,
) -> None:
    """Print a report and persist it under results/bench_reports/.

    Every report is written twice: the human-readable ``<name>.txt`` and a
    machine-readable ``<name>.json`` sidecar with the schema

        {"bench": ..., "scale": ..., "wall_s": ..., "metrics": {...},
         "git_sha": ...}

    so CI can archive the perf/accuracy trajectory without scraping tables.
    ``metrics`` holds the bench's headline numbers; ``wall_s`` defaults to
    the elapsed wall time of the calling test.
    """
    header = f"[{name}] reproduction scale = {session.scale}"
    body = header + "\n" + text
    print("\n" + body)
    if wall_s is None and _test_started_at is not None:
        wall_s = time.perf_counter() - _test_started_at
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(body + "\n")
    payload = {
        "bench": name,
        "scale": session.scale,
        "wall_s": round(wall_s, 6) if wall_s is not None else None,
        "metrics": metrics or {},
        "git_sha": git_sha(),
    }
    # a malformed report must fail the bench that produced it, not silently
    # poison the committed artefact set CI archives
    validate_bench_report(payload, name=f"{name}.json")
    (REPORT_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
