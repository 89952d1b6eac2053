#!/usr/bin/env python
"""CI fault-tolerance gate: kill a checkpointing run mid-flight, resume it,
and demand byte-identity with an uninterrupted control run.

Four runs of the same case through the real CLI, all in-process
(``--processes 1``), so ``--replications R`` on the fused engine is one
stack of ``R`` members and any other engine runs stacks of one:

1. **control** — uninterrupted, checkpointing into a store of its own;
2. **victim** — checkpoints on, with ``REPRO_CHECKPOINT_CRASH_AFTER=N`` so
   the process SIGKILLs itself the moment its N-th checkpoint hits disk
   (see ``repro.experiments.checkpoint``) — a real mid-run death, not a
   mocked one.  A stack saves each boundary member by member, so an ``N``
   that is not a multiple of ``R`` dies between two members' saves of one
   boundary;
3. **resume** — the same command with ``--resume``, which must pick up
   each replication from its own newest intact checkpoint and finish;
4. **resume at ``--shards 2``** — the same, on a copy of the victim's
   checkpoints, cut into two stacks: the stack width at resume need not
   match the victim's.

Each resumed run's raw-results JSON must match the control's byte-for-byte
once the ``checkpoint`` provenance block (which legitimately differs:
``resumed_from_generation``) is dropped.  Any drift — one bit of rng state
mis-restored, one history row off — fails the gate.  Every run records
telemetry, and each resumed run's manifest must report the control's
``engine.games``, ``evaluation.games`` and ``checkpoint.saves``: a resume
counts the whole logical run once, whichever generations it re-ran.

Exit codes: 0 success, 1 identity violation, 2 orchestration failure
(a run that should have died survived, or vice versa).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CRASH_ENV = "REPRO_CHECKPOINT_CRASH_AFTER"


def run_case(
    args: argparse.Namespace,
    out: Path,
    checkpoint_dir: Path,
    resume: bool = False,
    crash_after: int | None = None,
    extra: tuple[str, ...] = (),
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
        str(args.replications),
        "--processes",
        "1",
        "--out",
        str(out),
        "--checkpoint-dir",
        str(checkpoint_dir),
        "--telemetry",
        "--telemetry-dir",
        str(telemetry_dir(out)),
        *extra,
    ]
    if args.engine is not None:
        cmd += ["--engine", args.engine]
    if resume:
        cmd += ["--resume"]
    env = os.environ.copy()
    env.pop(CRASH_ENV, None)
    if crash_after is not None:
        env[CRASH_ENV] = str(crash_after)
    injected = f"  [{CRASH_ENV}={crash_after}]" if crash_after else ""
    print(f"$ {' '.join(cmd)}{injected}")
    return subprocess.run(cmd, env=env)


def telemetry_dir(out: Path) -> Path:
    """Where the run writing ``out`` records its telemetry."""
    return out.with_name(out.stem + "-telemetry")


#: the manifest counters a resumed run must report as the control does
COUNTERS = ("engine.games", "evaluation.games", "checkpoint.saves")


def counters(args: argparse.Namespace, out: Path) -> dict[str, float]:
    """The :data:`COUNTERS` of the manifest of the run that wrote ``out``."""
    manifest = telemetry_dir(out) / f"{args.case}_{args.scale}_manifest.json"
    found = json.loads(manifest.read_text())["metrics"]["counters"]
    return {name: found.get(name, 0) for name in COUNTERS}


def canonical(path: Path) -> str:
    """The raw-results JSON as a canonical string, checkpoint provenance
    stripped (compare=False metadata, not results)."""
    data = json.loads(path.read_text())
    for rep in data.get("replications", []):
        rep.pop("checkpoint", None)
    return json.dumps(data, sort_keys=True, indent=None)


def expected_resume(args: argparse.Namespace) -> list[int | None]:
    """Each replication's newest checkpoint generation once the victim has
    written ``args.crash_after`` checkpoints: its stacks run in turn, and a
    stack saves boundary by boundary, member by member."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.replication import stacked_unsupported_reason

    config = ExperimentConfig.for_case(args.case, scale=args.scale)
    if args.engine is not None:
        config = config.with_(engine=args.engine)
    width = args.replications if stacked_unsupported_reason(config) is None else 1
    expected = []
    for rep in range(args.replications):
        stack, member = divmod(rep, width)
        saves = args.crash_after - stack * width * args.generations
        newest = (saves - 1 - member) // width
        expected.append(min(newest, args.generations - 1) if saves > member else None)
    return expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", default="case1")
    parser.add_argument("--scale", default="smoke")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--generations", type=int, default=6)
    parser.add_argument(
        "--engine", default=None, help="simulation engine (default: the case's)"
    )
    parser.add_argument("--replications", type=int, default=1)
    parser.add_argument(
        "--crash-after",
        type=int,
        default=3,
        help="SIGKILL the victim after its N-th checkpoint (must be mid-run:"
        " a run writes replications x generations checkpoints)",
    )
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="where runs and checkpoints land (default: a fresh temp dir)",
    )
    args = parser.parse_args()
    total = args.replications * args.generations
    if not 1 <= args.crash_after < total:
        print(
            f"--crash-after must be in [1, {total}), got {args.crash_after}",
            file=sys.stderr,
        )
        return 2

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="crash-resume-"))
    workdir.mkdir(parents=True, exist_ok=True)
    control_json = workdir / "control.json"
    victim_json = workdir / "victim.json"
    checkpoints = workdir / "checkpoints"
    print(f"workdir: {workdir}")

    print("\n[1/4] control run (uninterrupted)")
    if run_case(args, control_json, workdir / "control-checkpoints").returncode != 0:
        print("control run failed", file=sys.stderr)
        return 2

    print("\n[2/4] victim run (crash injection)")
    victim = run_case(args, victim_json, checkpoints, crash_after=args.crash_after)
    if victim.returncode == 0:
        print(
            "victim run survived — crash injection did not fire", file=sys.stderr
        )
        return 2
    if victim_json.exists():
        print("victim wrote results despite dying mid-run", file=sys.stderr)
        return 2
    print(f"victim died as injected (rc={victim.returncode})")
    sharded_checkpoints = workdir / "checkpoints-shards"
    shutil.rmtree(sharded_checkpoints, ignore_errors=True)
    shutil.copytree(checkpoints, sharded_checkpoints)

    resumes = [
        ("[3/4] resumed run", victim_json, checkpoints, ()),
        (
            "[4/4] resumed run at --shards 2",
            workdir / "victim_shards.json",
            sharded_checkpoints,
            ("--shards", "2"),
        ),
    ]
    expected = expected_resume(args)
    for title, out, store, extra in resumes:
        print(f"\n{title}")
        if run_case(args, out, store, resume=True, extra=extra).returncode != 0:
            print("resumed run failed", file=sys.stderr)
            return 2
        resumed_from = [
            (rep.get("checkpoint") or {}).get("resumed_from_generation")
            for rep in json.loads(out.read_text())["replications"]
        ]
        if resumed_from != expected:
            print(
                f"expected resume from generations {expected} (checkpoint"
                f" {args.crash_after} was the fatal one), got {resumed_from}",
                file=sys.stderr,
            )
            return 2
        if canonical(out) != canonical(control_json):
            print(
                "IDENTITY VIOLATION: resumed results differ from the"
                f" uninterrupted control\n  control: {control_json}\n"
                f"  resumed: {out}",
                file=sys.stderr,
            )
            return 1
        expected_counters = counters(args, control_json)
        if counters(args, out) != expected_counters:
            print(
                "COUNTER VIOLATION: the resumed manifest reports"
                f" {counters(args, out)}, the control {expected_counters}",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: resumed run (from generations {resumed_from}) is"
            " byte-identical to the uninterrupted control and reports its"
            f" {expected_counters}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
