"""One run of one workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per measurement, so every run pays the
interpreter start, the imports and the program's set-up, as a user does.
Modes:

* ``setup`` — run to the first seating and report the set-up time;
* ``run``   — run to the result with only the seating probe installed;
* ``trace`` — the same with the layer timers installed (the per-layer split).

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload case3_stacked --seed 2007 \\
        --mode run --work-dir .perfbench-work/x --spawned-at <perf_counter>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from collections import defaultdict
from pathlib import Path

import metrics
import probes as probes_mod
from workloads import POOLED, WORKLOADS, Outcome, run_to_first_seating

#: ``table5_abs_err_pp`` above this fails the run: cooperation did not
#: evolve to the paper's levels (a fast-but-wrong change).  Seeds 1-36 give
#: 0.5-7.2 pp; with the GA step disabled, seed 1 is 39.6 pp off.
TABLE5_TOLERANCE_PP = 15.0

KERNEL_OPS = ("rate", "decision", "walk", "commit", "replay", "watchdog")

#: Rows of the traced split; with ``unattributed_s`` they sum to the traced
#: wall time.
SPLIT_LAYERS = (
    "scenarios.resolve",
    "sim.engine_init",
    "paths.oracle_init",
    "ga.init",
    "tournament.seating",
    "paths.plan",
    "paths.stack",
    "mobility.step",
    "network.route",
    "sim.dispatch",
    *(f"sim.kernel.{op}" for op in KERNEL_OPS),
    "sim.fold",
    "ga.step",
    "checkpoint.save",
    "service.submit",
    "service.overhead",
    "parallel.spawn",
)


def results_digest(replications: list[dict]) -> str:
    text = json.dumps(replications, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_outcome(outcome: Outcome, seatings: list) -> dict:
    """The correctness checks; raises :class:`metrics.CheckFailed`."""
    reps = outcome.replications
    geometry = metrics.seating_geometry(
        seatings, outcome.environments, outcome.generations * len(reps)
    )
    metrics.check_games_conserved(reps, geometry, outcome.rounds)
    metrics.check_cooperation_bounds(reps)
    checked = {"games": metrics.games_simulated(reps, outcome.generations)}
    if outcome.case == "case3":
        from repro.analysis.reporting import PAPER_TABLE5

        paper = {env: values[0] for env, values in PAPER_TABLE5.items()}
        err = metrics.table5_abs_err_pp(reps, paper)
        if err > TABLE5_TOLERANCE_PP:
            raise metrics.CheckFailed(
                f"final cooperation is {err:.2f} pp from Table 5"
                f" (tolerance {TABLE5_TOLERANCE_PP} pp)"
            )
        checked["table5_abs_err_pp"] = err
    return checked


def layer_split(
    trace: dict, telemetry: dict, tasks: list[dict], pooled: bool
) -> tuple[dict[str, float], float]:
    """Self seconds per split row, and ``sim.run_s``.

    In-process, the layers are the parent's span self times.  For a pooled
    workload, the workers' busy seconds are spread over the pool region
    (:func:`metrics.spread_over_region`) after its start-up gap, which is
    ``parallel.spawn``.  Kernel timers (read from telemetry) move out of
    the round pass, leaving its numpy dispatch as ``sim.dispatch``.
    """
    timers = telemetry.get("timers", {})
    kernel = {op: timers.get(f"kernel.{op}_s", {}).get("total_s", 0.0) for op in KERNEL_OPS}

    def split_kernels(self_s: dict) -> None:
        for op, seconds in kernel.items():
            self_s["sim.run"] = self_s.get("sim.run", 0.0) - seconds
            self_s[f"sim.kernel.{op}"] = self_s.get(f"sim.kernel.{op}", 0.0) + seconds

    own = dict(trace["self_s"])
    if pooled:
        region_s = own.pop("experiments.run", 0.0)
        start = trace["first_start"]["experiments.run"]
        spawn_s = min(t["t0"] for t in tasks) - start
        busy: dict[str, float] = defaultdict(float)
        for task in tasks:
            for layer, seconds in task["trace"]["self_s"].items():
                busy[layer] += seconds
        split_kernels(busy)
        covered = sum(t["t1"] - t["t0"] for t in tasks)
        spread = metrics.spread_over_region(busy, covered, region_s - spawn_s)
        spread.pop("unattributed")
        for layer, seconds in spread.items():
            own[layer] = own.get(layer, 0.0) + seconds
        own["parallel.spawn"] = spawn_s
    else:
        split_kernels(own)
    own["service.overhead"] = own.pop("service.run", 0.0)
    round_pass = own.pop("sim.run", 0.0)
    fold_in_pass = own.pop("sim.fold.tournament", 0.0)
    own["sim.dispatch"] = round_pass
    own["sim.fold"] = own.get("sim.fold", 0.0) + fold_in_pass
    sim_run_s = round_pass + fold_in_pass + sum(own[f"sim.kernel.{op}"] for op in KERNEL_OPS)
    unknown = set(own) - set(SPLIT_LAYERS)
    if unknown:
        raise RuntimeError(f"spans outside the split: {sorted(unknown)}")
    return {layer: own.get(layer, 0.0) for layer in SPLIT_LAYERS}, sim_run_s


def layer_counts(
    telemetry: dict, trace_counts: dict, outcome: Outcome, tournaments: int
) -> dict[str, float]:
    counters = telemetry.get("counters", {})
    gauges = telemetry.get("gauges", {})

    def total(suffix: str) -> float:
        return float(
            sum(v for k, v in counters.items() if k.startswith("route.") and k.endswith(suffix))
        )

    draws = trace_counts.get("paths.draws", 0.0)
    rejected = float(counters.get("paths.rejected_draws", 0))
    hits, misses = total(".cache_hits"), total(".cache_misses")
    games = float(counters.get("engine.games", 0))
    replayed = float(counters.get("engine.turbo.replayed_games", 0))
    second = float(counters.get("engine.fused.second_chance_games", 0))
    fused = "engine.fused.games" in counters
    return {
        "tournament.tournaments": float(tournaments),
        "paths.draws": draws,
        "paths.rejected_draws": rejected,
        "paths.accept_ratio": draws / (draws + rejected) if draws else 0.0,
        "mobility.steps": float(counters.get("mobility.steps", 0)),
        "mobility.epoch_bumps": float(counters.get("mobility.epoch_bumps", 0)),
        "mobility.emergency_boosts": float(counters.get("mobility.emergency_boosts", 0)),
        "network.route_calls": hits + misses,
        "network.route_computes": total(".route_computes"),
        "network.route_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "network.stale_serves": total(".stale_serves"),
        "network.revalidations": total(".revalidations"),
        "ksp.queries": float(counters.get("ksp.queries", 0)),
        "ksp.bfs_field_builds": float(counters.get("ksp.bfs_field_builds", 0)),
        "sim.games": games,
        "sim.replayed_games": replayed,
        "sim.second_chance_games": second,
        "sim.speculation_hit_ratio": (
            1.0 - (replayed + second) / games if fused and games else 0.0
        ),
        "checkpoint.saves": float(counters.get("checkpoint.saves", 0)),
        "checkpoint.bytes": float(outcome.extra.get("checkpoint_bytes", 0)),
        "service.result_bytes": float(outcome.extra.get("result_bytes", 0)),
        "parallel.utilization": float(gauges.get("parallel.utilization", 0.0)),
        "parallel.straggler_spread": float(gauges.get("parallel.straggler_spread", 0.0)),
    }


def run_child(args) -> dict:
    root = Path.cwd()
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    traced = args.mode == "trace"
    pooled = args.workload in POOLED
    probes = probes_mod.Probes(work_dir, traced=traced, setup_only=args.mode == "setup")
    probes_mod.install_common(probes)
    if traced:
        probes_mod.install_layer_timers()
        if pooled:
            probes_mod.install_service_timers()

    if args.mode == "setup":
        run_to_first_seating(args.workload, root, args.seed, probes)
        stamps = probes.stamps + [s for t in probes.task_records() for s in t["stamps"]]
        return {
            "setup_s": min(t for t, _ in stamps) - args.spawned_at,
            "setup_digests": sorted({d for _, d in stamps}),
        }

    workload = WORKLOADS[args.workload]
    telemetry: dict = {}
    if traced and not pooled:
        # an ambient session: engines time their kernel ops and count their
        # games into it; the captured oracles' own counters are harvested
        from repro.telemetry.config import TelemetryConfig
        from repro.telemetry.harvest import harvest_oracle
        from repro.telemetry.runtime import telemetry_session

        with telemetry_session(TelemetryConfig(enabled=True, events=False)) as tel:
            outcome = workload(root, args.seed, probes)
            for oracle in probes.oracles:
                harvest_oracle(tel, oracle)
            telemetry = tel.snapshot()
    else:
        outcome = workload(root, args.seed, probes)
        if traced:
            telemetry = probes.experiment_telemetry["metrics"]

    tasks = probes.task_records()
    seatings = probes.seatings + [tuple(s) for t in tasks for s in t["seatings"]]
    stamps = probes.stamps + [tuple(s) for t in tasks for s in t["stamps"]]
    out = {
        "wall_s": outcome.wall_s,
        "cpu_s": outcome.cpu_s,
        "peak_rss_mb": outcome.peak_rss_mb,
        "setup_s": min(t for t, _ in stamps) - args.spawned_at,
        "setup_digests": sorted({d for _, d in stamps}),
        "digest": results_digest(outcome.replications),
    }
    try:
        out.update(check_outcome(outcome, seatings))
    except metrics.CheckFailed as exc:
        out["check_failed"] = str(exc)
    if traced:
        split, sim_run_s = layer_split(probes.tracer.to_dict(), telemetry, tasks, pooled)
        out["split"] = split
        out["sim_run_s"] = sim_run_s
        out["counts"] = layer_counts(
            telemetry, probes.tracer.counts | _task_counts(tasks), outcome,
            sum(n for _, n in seatings),
        )
    return out


def _task_counts(tasks: list[dict]) -> dict[str, float]:
    counts: dict[str, float] = defaultdict(float)
    for task in tasks:
        for name, n in task["trace"]["counts"].items():
            counts[name] += n
    return dict(counts)


def environment() -> dict:
    import platform

    import numpy

    from repro.sim.kernels import resolve_kernel

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": resolve_kernel("auto").name,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    try:
        out = run_child(args)
        out["environment"] = environment()
    except Exception:  # the parent counts the run as failed and shows why
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())
