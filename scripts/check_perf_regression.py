#!/usr/bin/env python
"""Fail CI when engine throughput regresses against the committed baseline.

Compares a freshly generated ``BENCH_ENGINE.json`` (written by
``benchmarks/bench_engine_perf.py``) with the baseline committed in the repo,
on every oracle row (random, topology, mobile).

Two gates, because the baseline and the fresh run usually come from
*different machines* (dev box vs CI runner):

* **normalized** (primary, default 2.5x): each engine's wall-time ratio
  fresh/baseline is divided by the *reference* engine's ratio, which acts as
  a machine-speed canary — a runner that is uniformly 3x slower cancels out,
  while a de-vectorized batch loop does not;
* **absolute** (failsafe, default 6x): the raw fresh/baseline ratio, loose
  enough to absorb runner spread but still catching regressions in shared
  components (oracle, stats) that slow every engine together and therefore
  hide from the normalized gate.

Override with ``--factor`` / ``--absolute-factor`` or the
``REPRO_PERF_FACTOR`` / ``REPRO_PERF_ABS_FACTOR`` environment variables.

Exit codes: 0 all gates pass, 1 a gate tripped (or unusable input files),
3 a named ledger row is missing or malformed — a gated oracle row absent
from exactly one ledger, a row that is not an engine->wall mapping, or a
wall time that is not a finite number.  Rows absent from *both* ledgers
are tolerated (they simply predate the row), as are engines present in
only one ledger (engines come and go between PRs; the
no-comparable-entries guard still catches fully disjoint sets).

Usage::

    cp BENCH_ENGINE.json /tmp/baseline.json
    REPRO_BENCH_SCALE=smoke pytest benchmarks/bench_engine_perf.py -q
    python scripts/check_perf_regression.py \
        --baseline /tmp/baseline.json --fresh BENCH_ENGINE.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Oracles whose wall times gate CI.  Since route search went native
#: (``repro.network.ksp``) the topology and mobile rows are deterministic
#: enough to gate alongside random — previously they were networkx-noise
#: dominated and report-only.  The per-round-mobility rows (exact and
#: approx route-cache policies) gate like the rest: they are the regime
#: the layered route-provider refactor exists for.
#: ``parallel_scaling`` and ``service_throughput`` are not oracles but ride
#: the same ledger: their "engines" are worker counts / service phases
#: (written by ``benchmarks/bench_parallel_scaling.py`` and
#: ``benchmarks/bench_service_throughput.py``) and, having no reference
#: canary, they are gated by the absolute failsafe only.  The ``*_stacked``
#: rows (cross-replication stacked evaluation, single ``stacked`` engine
#: per row) likewise carry no reference canary and gate absolute-only;
#: their wall is per stacked tournament, amortized over the whole R x T
#: mega-slate, so a change to the kernel ops shows up here first.
GATED_ORACLES = (
    "random",
    "topology",
    "mobile",
    "mobility_highspeed",
    "mobility_highspeed_approx",
    "random_stacked",
    "topology_stacked",
    "mobile_stacked",
    "parallel_scaling",
    "service_throughput",
)
#: The machine-speed canary for the normalized gate.
CANARY_ENGINE = "reference"
#: Distinct exit code for a missing/malformed named ledger row, so CI can
#: tell "your ledger is broken" (fix the bench) from "perf regressed".
EXIT_ROW_ERROR = 3


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: {path} not found")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")


def _row_error(message: str) -> int:
    print(f"ledger row error: {message}", file=sys.stderr)
    return EXIT_ROW_ERROR


def _check_row(name: str, oracle: str, walls) -> str | None:
    """None if the oracle row is well-formed, else a named-row error."""
    if not isinstance(walls, dict):
        return (
            f"oracle row {oracle!r} in the {name} ledger is not an"
            f" engine->wall mapping (got {type(walls).__name__})"
        )
    for engine, wall in walls.items():
        if isinstance(wall, bool) or not isinstance(wall, (int, float)):
            return (
                f"engine {engine!r} in oracle row {oracle!r} of the {name}"
                f" ledger: wall time must be a number, got {wall!r}"
            )
        if not math.isfinite(wall):
            return (
                f"engine {engine!r} in oracle row {oracle!r} of the {name}"
                f" ledger: wall time must be finite, got {wall!r}"
            )
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_ENGINE.json",
        help="committed perf ledger (default: BENCH_ENGINE.json)",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=REPO_ROOT / "BENCH_ENGINE.json",
        help="freshly generated ledger to validate",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=float(os.environ.get("REPRO_PERF_FACTOR", "2.5")),
        help="max allowed machine-normalized wall-time ratio (default 2.5)",
    )
    parser.add_argument(
        "--absolute-factor",
        type=float,
        default=float(os.environ.get("REPRO_PERF_ABS_FACTOR", "6.0")),
        help="max allowed raw fresh/baseline wall-time ratio (default 6.0)",
    )
    args = parser.parse_args(argv)
    if args.factor <= 0 or args.absolute_factor <= 0:
        sys.exit("error: factors must be > 0")

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    failures: list[str] = []
    compared = 0
    for name, ledger in (("baseline", baseline), ("fresh", fresh)):
        table = ledger.get("wall_s", {})
        if not isinstance(table, dict):
            return _row_error(
                f"the {name} ledger's wall_s is not an oracle->row mapping"
                f" (got {type(table).__name__})"
            )
    for oracle in GATED_ORACLES:
        base_walls = baseline.get("wall_s", {}).get(oracle)
        fresh_walls = fresh.get("wall_s", {}).get(oracle)
        if base_walls is None and fresh_walls is None:
            continue  # both ledgers predate this gated row
        if base_walls is None or fresh_walls is None:
            missing_from = "baseline" if base_walls is None else "fresh"
            return _row_error(
                f"gated oracle row {oracle!r} is missing from the"
                f" {missing_from} ledger but present in the other"
            )
        for name, walls in (("baseline", base_walls), ("fresh", fresh_walls)):
            problem = _check_row(name, oracle, walls)
            if problem is not None:
                return _row_error(problem)
        canary = None
        if (
            base_walls.get(CANARY_ENGINE, 0) > 0
            and fresh_walls.get(CANARY_ENGINE, 0) > 0
        ):
            canary = fresh_walls[CANARY_ENGINE] / base_walls[CANARY_ENGINE]
            print(
                f"machine-speed canary ({CANARY_ENGINE}/{oracle}):"
                f" {canary:.2f}x the baseline machine"
            )
        for engine, base_wall in sorted(base_walls.items()):
            fresh_wall = fresh_walls.get(engine)
            if fresh_wall is None or base_wall <= 0:
                continue
            compared += 1
            raw = fresh_wall / base_wall
            checks = [("absolute", raw, args.absolute_factor)]
            if canary is not None and engine != CANARY_ENGINE:
                checks.append(("normalized", raw / canary, args.factor))
            for kind, ratio, limit in checks:
                status = "FAIL" if ratio > limit else "ok"
                print(
                    f"[{status}] {engine}/{oracle} {kind}:"
                    f" {fresh_wall * 1e3:.1f} ms vs baseline"
                    f" {base_wall * 1e3:.1f} ms ({ratio:.2f}x,"
                    f" limit {limit:.2f}x)"
                )
                if ratio > limit:
                    failures.append(f"{engine}/{oracle} {kind} ({ratio:.2f}x)")
    if compared == 0:
        sys.exit("error: no comparable wall_s entries between the two ledgers")
    if failures:
        print(f"\nperf regression: {', '.join(failures)}")
        return 1
    print(f"\nall {compared} gated engine timings within limits")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
