"""The repository benchmark: three paper-geometry workloads, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload case3_stacked --seed 2007 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (wall time, games/s, set-up
time, CPU time, peak RSS), each the median over runs in fresh interpreters.
``--trace 1`` runs the workload once untraced and once with layer timers,
and prints the per-layer split of the traced wall time.  Every run's
outputs are checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md
describes the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import median, unattributed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: fresh-interpreter runs to the first seating, for the set-up median
SETUP_PROBES = 5
#: every run of this script ends within this many seconds
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "games_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

COUNT_UNITS = {
    "paths.accept_ratio": "ratio",
    "network.route_hit_ratio": "ratio",
    "sim.speculation_hit_ratio": "ratio",
    "parallel.utilization": "ratio",
    "parallel.straggler_spread": "ratio",
    "checkpoint.bytes": "B",
    "service.result_bytes": "B",
}


class Runner:
    """Starts child runs and keeps the tally of operations."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        # one thread per BLAS/OpenMP pool: a 2-core box is not oversubscribed
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
        ):
            self.env[var] = "1"
        self.env["TMPDIR"] = str(work)
        self.env.pop("PYTHONHASHSEED", None)

    def remaining(self) -> float:
        return DEADLINE_S - (perf_counter() - self.started)

    def child(self, mode: str) -> dict | None:
        """One fresh-interpreter run; ``None`` (a failed operation) when it
        crashes or its outputs fail a check."""
        self.attempted += 1
        work_dir = self.work / f"{mode}-{self.attempted}"
        spawned_at = perf_counter()
        cmd = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--work-dir", str(work_dir),
            "--spawned-at", repr(spawned_at),
        ]
        try:
            proc = subprocess.run(
                cmd,
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return self.fail(f"{mode} run timed out")
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return self.fail(f"{mode} run printed no result:\n{proc.stderr[-2000:]}")
        if "error" in out:
            return self.fail(f"{mode} run crashed:\n{out['error']}")
        if "check_failed" in out:
            return self.fail(f"{mode} run: {out['check_failed']}")
        return out

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)
        return None

    def same(self, what: str, a, b) -> None:
        """A determinism check across two runs at one seed."""
        if a != b:
            self.attempted += 1
            self.fail(f"{what} differ between runs at seed {self.seed}")


def measure(runner: Runner, seconds: float) -> dict[str, float]:
    """``--trace 0``: set-up probes, then full runs for ``seconds``."""
    probes = [p for p in (runner.child("setup") for _ in range(SETUP_PROBES)) if p]
    runs: list[dict] = []
    t0 = perf_counter()
    while True:
        t_run = perf_counter()
        out = runner.child("run")
        if out is None:
            break
        runs.append(out)
        spent = perf_counter() - t0
        last = perf_counter() - t_run
        if spent + last > seconds or runner.remaining() < 2 * last:
            break
    digests = [p["setup_digests"] for p in probes]
    for d in digests[1:]:
        runner.same("set-up states", digests[0], d)
    for run in runs:
        if digests and not set(digests[0]) <= set(run["setup_digests"]):
            runner.same("set-up states", digests[0], run["setup_digests"])
        runner.same("results", runs[0]["digest"], run["digest"])
    if not runs:
        return {}
    return {
        "wall_s": median([r["wall_s"] for r in runs]),
        "games_per_s": median([r["games"] / r["wall_s"] for r in runs]),
        "setup_s": median([p["setup_s"] for p in probes] + [r["setup_s"] for r in runs]),
        "cpu_s": median([r["cpu_s"] for r in runs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
        "_runs": len(runs),
        "_setup_samples": len(probes) + len(runs),
        "_environment": runs[0]["environment"],
    }


def trace(runner: Runner) -> dict[str, float]:
    """``--trace 1``: one untraced and one traced run, and the split."""
    plain = runner.child("run")
    traced = runner.child("trace")
    if plain is None or traced is None:
        return {}
    # the instrumented program must compute exactly what the plain one does
    runner.same("traced and untraced results", plain["digest"], traced["digest"])
    split = traced["split"]
    out = {f"{layer}_s": seconds for layer, seconds in split.items()}
    out["unattributed_s"] = unattributed(traced["wall_s"], split)
    out["traced_wall_s"] = traced["wall_s"]
    out["tracing_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    out["sim.run_s"] = traced["sim_run_s"]
    out.update(traced["counts"])
    out["table5_abs_err_pp"] = traced.get("table5_abs_err_pp", 0.0)
    out["_environment"] = traced["environment"]
    return out


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    if name == "table5_abs_err_pp":
        return "pp"
    return "s" if name.endswith("_s") else "count"


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def report(workload: str, values: dict, traced: bool) -> dict:
    """Print the human-readable table; return the metrics JSON block."""
    info = {k[1:]: values.pop(k) for k in [k for k in values if k.startswith("_")]}
    env = info.pop("environment", {})
    print(
        f"# workload {workload}: nproc={os.cpu_count()} python={env.get('python')}"
        f" numpy={env.get('numpy')} kernel={env.get('kernel')} git={git_sha(Path.cwd())}"
        + "".join(f" {k}={v}" for k, v in info.items())
    )
    wall = values.get("traced_wall_s")
    for name, value in values.items():
        share = ""
        if traced and wall and name.endswith("_s") and name not in (
            "traced_wall_s", "sim.run_s", "tracing_overhead_s"
        ):
            share = f"  {100.0 * value / wall:5.1f}%"
        print(f"  {name:<28} {value:>16.6f} {unit(name)}{share}")
    return {name: {"value": value, "unit": unit(name)} for name, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/repro", "scenarios"):
        if not (root / needed).is_dir():
            print(
                f"error: {root / needed} not found; run from the repository root",
                file=sys.stderr,
            )
            return 2
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, args.workload, args.seed, work)
    try:
        values = trace(runner) if args.trace else measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    metrics_block = report(args.workload, values, bool(args.trace))
    failed = len(runner.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": max(runner.attempted, 1),
                "failed": failed,
                "metrics": metrics_block,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
