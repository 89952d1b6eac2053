#!/usr/bin/env python
"""CI fault-tolerance gate: kill a checkpointing run mid-flight, resume it,
and demand byte-identity with an uninterrupted control run.

Three runs of the same case through the real CLI:

1. **control** — uninterrupted, no checkpoints;
2. **victim** — checkpoints on, with ``REPRO_CHECKPOINT_CRASH_AFTER=N`` so
   the process SIGKILLs itself the moment its N-th checkpoint hits disk
   (see ``repro.experiments.checkpoint``) — a real mid-run death, not a
   mocked one;
3. **resume** — the same command with ``--resume``, which must pick up from
   the newest intact checkpoint (generation ``N - 1``) and finish.

The resumed run's raw-results JSON must match the control's byte-for-byte
once the ``checkpoint`` provenance block (which legitimately differs:
``resumed_from_generation``) is dropped.  Any drift — one bit of rng state
mis-restored, one history row off — fails the gate.

Exit codes: 0 success, 1 identity violation, 2 orchestration failure
(a run that should have died survived, or vice versa).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CRASH_ENV = "REPRO_CHECKPOINT_CRASH_AFTER"


def run_case(
    args: argparse.Namespace,
    out: Path,
    checkpoint_dir: Path | None = None,
    resume: bool = False,
    crash_after: int | None = None,
) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "run-case",
        args.case,
        "--scale",
        args.scale,
        "--seed",
        str(args.seed),
        "--generations",
        str(args.generations),
        "--replications",
        "1",
        "--processes",
        "1",
        "--out",
        str(out),
    ]
    if checkpoint_dir is not None:
        cmd += ["--checkpoint-dir", str(checkpoint_dir)]
    if resume:
        cmd += ["--resume"]
    env = os.environ.copy()
    env.pop(CRASH_ENV, None)
    if crash_after is not None:
        env[CRASH_ENV] = str(crash_after)
    injected = f"  [{CRASH_ENV}={crash_after}]" if crash_after else ""
    print(f"$ {' '.join(cmd)}{injected}")
    return subprocess.run(cmd, env=env)


def canonical(path: Path) -> str:
    """The raw-results JSON as a canonical string, checkpoint provenance
    stripped (compare=False metadata, not results)."""
    data = json.loads(path.read_text())
    for rep in data.get("replications", []):
        rep.pop("checkpoint", None)
    return json.dumps(data, sort_keys=True, indent=None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", default="case1")
    parser.add_argument("--scale", default="smoke")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--generations", type=int, default=6)
    parser.add_argument(
        "--crash-after",
        type=int,
        default=3,
        help="SIGKILL the victim after its N-th checkpoint (must be mid-run)",
    )
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="where runs and checkpoints land (default: a fresh temp dir)",
    )
    args = parser.parse_args()
    if not 1 <= args.crash_after < args.generations:
        print(
            f"--crash-after must be in [1, generations), got {args.crash_after}",
            file=sys.stderr,
        )
        return 2

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="crash-resume-"))
    workdir.mkdir(parents=True, exist_ok=True)
    control_json = workdir / "control.json"
    victim_json = workdir / "victim.json"
    checkpoints = workdir / "checkpoints"
    print(f"workdir: {workdir}")

    print("\n[1/3] control run (uninterrupted)")
    if run_case(args, control_json).returncode != 0:
        print("control run failed", file=sys.stderr)
        return 2

    print("\n[2/3] victim run (crash injection)")
    victim = run_case(
        args, victim_json, checkpoint_dir=checkpoints, crash_after=args.crash_after
    )
    if victim.returncode == 0:
        print(
            "victim run survived — crash injection did not fire", file=sys.stderr
        )
        return 2
    if victim_json.exists():
        print("victim wrote results despite dying mid-run", file=sys.stderr)
        return 2
    print(f"victim died as injected (rc={victim.returncode})")

    print("\n[3/3] resumed run")
    if (
        run_case(args, victim_json, checkpoint_dir=checkpoints, resume=True).returncode
        != 0
    ):
        print("resumed run failed", file=sys.stderr)
        return 2

    resumed_raw = json.loads(victim_json.read_text())
    provenance = resumed_raw["replications"][0].get("checkpoint") or {}
    resumed_from = provenance.get("resumed_from_generation")
    expected = args.crash_after - 1
    if resumed_from != expected:
        print(
            f"expected resume from generation {expected}"
            f" (checkpoint {args.crash_after} was the fatal one),"
            f" got {resumed_from!r}",
            file=sys.stderr,
        )
        return 2

    if canonical(victim_json) != canonical(control_json):
        print(
            "IDENTITY VIOLATION: resumed results differ from the"
            f" uninterrupted control\n  control: {control_json}\n"
            f"  resumed: {victim_json}",
            file=sys.stderr,
        )
        return 1
    print(
        f"\nOK: resumed run (from generation {resumed_from}) is byte-identical"
        " to the uninterrupted control"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
