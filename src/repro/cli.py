"""Command-line interface.

Examples
--------
List the reproducible artefacts and paper cases::

    python -m repro list

Run a committed scenario file (the front door — CLI flags override it)::

    python -m repro run scenarios/fig4_smoke.yaml --out results/fig4.json

Reproduce a single artefact (reduced default scale)::

    python -m repro reproduce fig4 --scale default --out results/

Run one evaluation case with custom parameters and save raw results::

    python -m repro run-case case3 --generations 80 --rounds 150 \
        --replications 8 --out results/case3.json

Serve the experiment core over HTTP (content-addressed job dedupe)::

    python -m repro serve --root results/service --port 8000

``run``, ``run-case``, ``reproduce``, and the service all resolve through
the same scenario layer (:mod:`repro.scenarios`) and run through its one
executor, so a scenario file, the equivalent flag invocation, and a REST
submission share one ``config_hash`` and produce bit-identical results.
The scenario schema is the only validator of the flags: a bad value
exits 2 with the schema's message before anything runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro._version import __version__

__all__ = ["main", "build_parser", "EXIT_NO_CHECKPOINT"]

#: Exit code for ``--resume`` against a store with no matching checkpoint —
#: distinct from 2 (bad usage) so orchestration can tell the cases apart.
EXIT_NO_CHECKPOINT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Evolution of Strategy Driven Behavior in Ad Hoc"
            " Networks Using a Genetic Algorithm' (IPPS 2007)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list artefacts and evaluation cases")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser(
        "run", help="run a scenario file (flags override the file)"
    )
    p_run.add_argument(
        "scenario", type=Path, help="path to a scenarios/*.yaml (or .json) file"
    )
    _add_case_override_flags(p_run)
    _add_run_flags(p_run, defaults=False)
    p_run.add_argument("--out", type=Path, default=None, help="JSON output path")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("reproduce", help="reproduce paper artefacts")
    p_rep.add_argument(
        "artefact",
        help="artefact id (fig4, table5, ... ) or 'all'",
    )
    p_rep.add_argument("--scale", default="default", help="paper|default|smoke")
    _add_run_flags(p_rep)
    p_rep.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for raw JSON results and rendered reports",
    )
    p_rep.set_defaults(func=_cmd_reproduce)

    p_case = sub.add_parser("run-case", help="run one evaluation case")
    p_case.add_argument("case", help="case1 .. case4, or an extension case")
    p_case.add_argument("--scale", default="default")
    _add_case_override_flags(p_case)
    _add_run_flags(p_case)
    p_case.add_argument("--out", type=Path, default=None, help="JSON output path")
    p_case.set_defaults(func=_cmd_run_case)

    p_serve = sub.add_parser(
        "serve", help="serve scenario submissions over HTTP (REST + dedupe)"
    )
    p_serve.add_argument(
        "--root",
        type=Path,
        default=Path("results/service"),
        help="job/result/checkpoint store root (default results/service)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8000)
    p_serve.add_argument(
        "--scenarios",
        type=Path,
        default=Path("scenarios"),
        help="scenario library served at GET /scenarios (default scenarios/)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_val = sub.add_parser(
        "validate-scenarios",
        help="schema-validate and resolve scenario files (the CI gate)",
    )
    p_val.add_argument(
        "paths",
        type=Path,
        nargs="*",
        default=[Path("scenarios")],
        help="scenario files or directories (default: scenarios/)",
    )
    p_val.set_defaults(func=_cmd_validate_scenarios)

    p_stats = sub.add_parser(
        "stats", help="render a telemetry run manifest human-readably"
    )
    p_stats.add_argument(
        "report", type=Path, help="path to a *_manifest.json written with --telemetry"
    )
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def _add_run_flags(parser: argparse.ArgumentParser, defaults: bool = True) -> None:
    """The engine/seed/route-cache/telemetry/fault-tolerance flags shared
    by ``run``, ``run-case`` and ``reproduce``.

    With ``defaults=False`` every flag defaults to ``None`` so that only
    explicitly-given flags override a scenario file's values.
    """
    # deferred so `import repro.cli` stays light; the registries are the
    # single sources of engine and cache-policy names shared with
    # make_engine / make_cache_policy and the config layer
    from repro.config.mobility import ROUTE_CACHE_POLICIES
    from repro.scenarios.resolve import DEFAULT_CHECKPOINT_DIR
    from repro.sim import DEFAULT_ENGINE, ENGINES

    parser.add_argument("--seed", type=int, default=2007 if defaults else None)
    parser.add_argument(
        "--engine",
        default=DEFAULT_ENGINE if defaults else None,
        choices=tuple(ENGINES),
        help=(
            "simulation engine; reference and batch are bit-identical"
            " (fast is an alias of batch),"
            " fused is statistically equivalent (different trajectories"
            " under the same seed; it stacks a whole generation per pass"
            " and is fastest)"
        ),
    )
    parser.add_argument("--processes", type=int, default=None)
    parser.add_argument(
        "--route-cache",
        default=None,
        choices=ROUTE_CACHE_POLICIES,
        help=(
            "route-cache policy for mobile topologies: 'exact' (default,"
            " bit-identical) or 'approx' (drift-budgeted stale routes,"
            " statistically equivalent)"
        ),
    )
    parser.add_argument(
        "--drift-budget",
        type=int,
        default=None,
        help=(
            "epochs a cached route may be served stale under --route-cache"
            " approx before lazy revalidation (default 8)"
        ),
    )
    parser.add_argument(
        "--telemetry",
        action="store_const",
        const=True,
        default=None,
        help=(
            "record engine-wide metrics/spans and write a schema-validated"
            " run manifest (see 'repro stats')"
        ),
    )
    parser.add_argument(
        "--telemetry-dir",
        type=Path,
        default=None,
        help="directory for manifests and metric dumps"
        " (default results/telemetry, or --out when given)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help=(
            "group replications into at most N deterministic shards run"
            " through the work-stealing scheduler; any shard count yields"
            " bit-identical results"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help=(
            "write generation-boundary checkpoints under this directory,"
            " content-addressed by config hash (default: none)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_const",
        const=True,
        default=None,
        help=(
            "continue each replication from its newest intact checkpoint"
            " (bit-identical to an uninterrupted run); implies"
            f" --checkpoint-dir {DEFAULT_CHECKPOINT_DIR} when not given,"
            " and fails with exit code 4 when no matching checkpoint exists"
        ),
    )
    parser.add_argument(
        "--stacked",
        action="store_const",
        const=True,
        default=None,
        help=(
            "run replications as one stack per shard or worker (requires a"
            " fusing engine; a request that cannot be"
            " honoured exits 2 with the reason before anything runs);"
            " bit-identical to unstacked, checkpoints included.  Default:"
            " auto when eligible"
        ),
    )
    parser.add_argument(
        "--no-stacked",
        action="store_const",
        const=False,
        dest="stacked",
        help="never stack replications (force the per-replication path)",
    )


def _add_case_override_flags(parser: argparse.ArgumentParser) -> None:
    """The per-case override flags shared by ``run`` and ``run-case``."""
    parser.add_argument("--generations", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--replications", type=int, default=None)
    parser.add_argument(
        "--mobility",
        default=None,
        choices=("waypoint", "gauss-markov", "none"),
        help="run the case on a mobile topology (overrides the case's preset)",
    )
    parser.add_argument(
        "--speed",
        type=float,
        default=None,
        help=(
            "mean node speed in unit-square lengths per topology step"
            " (waypoint legs span 0.5x-1.5x of it; requires --mobility)"
        ),
    )
    parser.add_argument(
        "--pause",
        type=float,
        default=None,
        help="waypoint pause time in steps on arrival (requires --mobility)",
    )


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The scenario ``overrides`` block for a flag namespace (``None``
    values are dropped downstream, so unset flags defer to the scenario)."""
    from repro.utils.validation import SCENARIO_OVERRIDE_KEYS

    return {key: getattr(args, key, None) for key in sorted(SCENARIO_OVERRIDE_KEYS)}


def _run_block_from_args(args: argparse.Namespace) -> dict:
    """The scenario ``run`` block (execution options) for a flag namespace."""
    from repro.utils.validation import SCENARIO_RUN_KEYS

    run = {key: getattr(args, key, None) for key in sorted(SCENARIO_RUN_KEYS)}
    if run["checkpoint_dir"] is not None:
        run["checkpoint_dir"] = str(run["checkpoint_dir"])
    return run


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.cases import CASES, EXTENSION_CASES
    from repro.experiments.registry import ARTEFACTS

    print("Artefacts:")
    for spec in ARTEFACTS.values():
        print(f"  {spec}")
    print("\nEvaluation cases (Table 4):")
    for case in CASES.values():
        envs = ", ".join(f"{e.name}({e.n_selfish} CSN)" for e in case.environments)
        print(f"  {case.name}: {case.description}")
        print(f"      environments: {envs}; paths: {case.path_mode}")
    print("\nExtension cases (mobile topologies, reputation exchange):")
    for case in EXTENSION_CASES.values():
        print(f"  {case.name}: {case.description}")
        presets = []
        if case.mobility != "none":
            presets.append(f"mobility preset: {case.mobility}")
        if case.exchange != "none":
            presets.append(f"exchange preset: {case.exchange}")
        print(f"      {'; '.join(presets) or 'paper substrate'}")
    return 0


def _missing_checkpoints(runs: list) -> str | None:
    """Why ``--resume`` has nothing to continue: ``None`` when no run
    resumes or some resuming run has a matching checkpoint."""
    from repro.experiments.checkpoint import CheckpointStore

    resuming = [r for r in runs if r.resume]
    if not resuming or any(
        CheckpointStore(r.checkpoint_store).has_checkpoints(r.config)
        for r in resuming
    ):
        return None
    hashes = ", ".join(f"{r.config_hash()[:16]} ({r.name})" for r in resuming)
    stores = ", ".join(sorted({str(r.checkpoint_store) for r in resuming}))
    return f"--resume: no checkpoints matching config hash {hashes} under {stores}"


def _execute_resolved(
    resolved,
    out: Path | None,
    telemetry_dir: Path | None,
) -> int:
    """Run a resolved scenario and report — the shared back half of
    ``run`` and ``run-case``."""
    from repro.parallel.progress import ProgressPrinter
    from repro.scenarios import execute_scenario

    error = _missing_checkpoints([resolved])
    if error is not None:
        print(error, file=sys.stderr)
        return EXIT_NO_CHECKPOINT
    result, manifest = execute_scenario(
        resolved,
        progress=ProgressPrinter(resolved.case),
        manifest_dir=telemetry_dir,
    )
    mean, std = result.final_cooperation()
    print(
        f"{resolved.case}: final cooperation {mean * 100:.1f}%"
        f" (std {std * 100:.1f}%)"
    )
    for env, coop in result.per_env_cooperation().items():
        print(f"  {env}: {coop * 100:.1f}% cooperation")
    if out is not None:
        path = result.save(out)
        print(f"raw results written to {path}")
    if manifest is not None:
        print(f"telemetry manifest: {manifest}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.scenarios import apply_overrides, load_scenario, resolve_scenario

    try:
        payload = load_scenario(args.scenario)
        payload = apply_overrides(
            payload,
            overrides=_overrides_from_args(args),
            run=_run_block_from_args(args),
        )
        resolved = resolve_scenario(payload)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return _execute_resolved(resolved, out=args.out, telemetry_dir=args.telemetry_dir)


def _cmd_run_case(args: argparse.Namespace) -> int:
    from repro.scenarios import build_scenario_payload, resolve_scenario

    try:
        payload = build_scenario_payload(
            args.case,
            args.scale,
            overrides=_overrides_from_args(args),
            run=_run_block_from_args(args),
        )
        resolved = resolve_scenario(payload)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return _execute_resolved(resolved, out=args.out, telemetry_dir=args.telemetry_dir)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.registry import ARTEFACTS, ReproductionSession

    ids = list(ARTEFACTS) if args.artefact == "all" else [args.artefact]
    unknown = [a for a in ids if a not in ARTEFACTS]
    if unknown:
        print(f"unknown artefact(s): {unknown}; try 'repro list'", file=sys.stderr)
        return 2
    telemetry_dir = args.telemetry_dir
    if telemetry_dir is None and args.out is not None:
        telemetry_dir = args.out / "telemetry"
    cases = sorted({c for aid in ids for c in ARTEFACTS[aid].cases})
    # every case resolves (and so is validated) before the first one runs
    try:
        session = ReproductionSession(
            scale=args.scale,
            overrides=_overrides_from_args(args),
            run=_run_block_from_args(args),
            cache_dir=args.out,
            telemetry_dir=telemetry_dir,
            verbose=True,
        )
        runs = [session.scenario_for(case) for case in cases]
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    error = _missing_checkpoints(runs)
    if error is not None:
        print(error, file=sys.stderr)
        return EXIT_NO_CHECKPOINT
    for artefact_id in ids:
        report = session.render(artefact_id)
        print(f"\n===== {artefact_id} =====")
        print(report)
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{artefact_id}_{args.scale}.txt").write_text(report + "\n")
    for case_name, manifest in session.manifests.items():
        print(f"telemetry manifest for {case_name}: {manifest}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.app import run_service

    scenarios = args.scenarios if args.scenarios.is_dir() else None
    print(f"serving on http://{args.host}:{args.port} (store: {args.root})")
    try:
        run_service(args.root, host=args.host, port=args.port, scenarios_dir=scenarios)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_validate_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import list_scenarios, load_scenario, resolve_scenario

    paths: list[Path] = []
    for target in args.paths:
        if target.is_dir():
            paths.extend(list_scenarios(target))
        else:
            paths.append(target)
    if not paths:
        print("no scenario files found", file=sys.stderr)
        return 2
    failures = 0
    for path in paths:
        try:
            resolved = resolve_scenario(load_scenario(path))
        except ValueError as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(
            f"ok   {path} -> {resolved.name}"
            f" [{resolved.case} @ {resolved.scale}]"
            f" {resolved.config_hash()[:16]}"
        )
    if failures:
        print(f"{failures} invalid scenario file(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import render_manifest
    from repro.utils.validation import validate_run_manifest

    try:
        payload = json.loads(args.report.read_text())
    except FileNotFoundError:
        print(f"no such manifest: {args.report}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"{args.report} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = validate_run_manifest(payload, name=str(args.report))
    except ValueError as exc:
        print(f"invalid run manifest: {exc}", file=sys.stderr)
        return 2
    print(render_manifest(manifest))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
