"""Profile the simulation hot loop (the HPC-guide workflow: measure first).

Runs one paper-sized tournament under cProfile for each engine and prints
the top functions by cumulative time, followed by a per-layer wall-time
breakdown of the oracle stack (topology stepping / route search / draw
planning) so oracle work can be attributed to the right layer before
optimising it.  The breakdown and the cache statistics come from the
telemetry substrate (:mod:`repro.telemetry`): the tournament runs inside a
telemetry session, the oracle stack's layer counters are harvested into the
registry afterwards, and this script only formats that snapshot — the same
numbers a ``--telemetry`` run writes into its manifest.  ``--oracle``
selects the path oracle so the route-computation cost of the topology
extensions can be measured too; ``--route-cache``/``--drift-budget`` select
the route-provider cache policy (``--no-path-cache`` disables the
per-(source, destination) route caches to quantify what they save).

For the kernel-backed engine (fused) the same telemetry session
captures the per-op kernel timers (``kernel.decision_s`` /
``kernel.replay_s`` / ``kernel.watchdog_s`` / ...) that
:class:`repro.sim.kernels.TimedKernel` records, so a change to one op
shows up as a per-op before/after, not just a total.

Run:
    python scripts/profile_engine.py [rounds] [--oracle random|topology|mobile]
        [--engines reference,batch,fused]
        [--route-cache exact|approx] [--drift-budget N] [--no-path-cache]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
from io import StringIO

import numpy as np

from repro.config.mobility import ROUTE_CACHE_POLICIES
from repro.core.strategy import Strategy
from repro.game.stats import TournamentStats
from repro.mobility import MobilityConfig, build_oracle
from repro.network.topology import GeometricTopology, TopologyPathOracle
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.sim import ENGINES, make_engine
from repro.telemetry import TelemetryConfig, harvest_oracle, telemetry_session

N_NORMAL, N_CSN = 40, 10


def make_oracle(kind: str, cache: bool, route_cache: str, drift_budget: int):
    ids = list(range(N_NORMAL + N_CSN))
    if kind == "random":
        return RandomPathOracle(np.random.default_rng(1), SHORTER_PATHS)
    if kind == "topology":
        topo = GeometricTopology(ids, 0.35, np.random.default_rng(5))
        return TopologyPathOracle(topo, np.random.default_rng(1), cache=cache)
    if kind == "mobile":
        config = MobilityConfig(
            model="waypoint",
            radio_range=0.35,
            route_cache=route_cache,
            drift_budget=drift_budget,
        )
        return build_oracle(config, ids, np.random.default_rng(5))
    raise ValueError(f"unknown oracle kind {kind!r}")


def _timed_draws(oracle, timer) -> None:
    """Wrap the oracle's draw entry points with a telemetry timer."""
    for name in ("draw", "draw_tournament"):
        method = getattr(oracle, name, None)
        if method is None:
            continue

        def wrapper(*args, _method=method, **kwargs):
            with timer.time():
                return _method(*args, **kwargs)

        setattr(oracle, name, wrapper)


def _layer_breakdown(snapshot: dict, draw_s: float) -> list[tuple[str, float]]:
    """(layer, seconds) rows for the oracle stack, planner last.

    Route search and topology stepping are measured inside the providers
    and harvested into the registry (``mobility.step_s`` /
    ``route.<policy>.search_s``); draw planning is what remains of the
    oracle's draw wall time.
    """
    counters = snapshot["counters"]
    step_s = counters.get("mobility.step_s", 0.0)
    search_s = sum(
        value
        for name, value in counters.items()
        if name.startswith("route.") and name.endswith(".search_s")
    )
    planning = max(draw_s - step_s - search_s, 0.0)
    return [
        ("topology step", step_s),
        ("route search", search_s),
        ("draw planning", planning),
        ("oracle total", draw_s),
    ]


def _print_kernel_breakdown(snapshot: dict) -> None:
    """Per-op kernel timers for the kernel-backed engine (fused).

    It installs :class:`TimedKernel` around its kernel whenever
    an ambient telemetry session is active, so the profiled tournament
    already paid for these numbers — this only formats them, and prints
    nothing for engines that record no ``kernel.*`` timers.
    """
    timers = snapshot["timers"]
    rows = [
        (name.removeprefix("kernel.").removesuffix("_s"), timer)
        for name, timer in sorted(timers.items())
        if name.startswith("kernel.")
    ]
    if not rows:
        return
    print("\nkernel ops:")
    for op, timer in rows:
        print(
            f"  {op:10s} {timer['total_s'] * 1e3:8.1f} ms"
            f"  ({timer['count']:.0f} calls)"
        )


def _print_cache_stats(snapshot: dict) -> None:
    """Route-cache counters for whichever policy the harvest recorded."""
    counters = snapshot["counters"]
    for prefix in sorted(
        {name.rsplit(".", 1)[0] for name in counters if name.startswith("route.")}
    ):
        hits = counters.get(f"{prefix}.cache_hits")
        if hits is None:
            continue
        print(
            f"route cache ({prefix.removeprefix('route.')}):"
            f" {hits:.0f} hits / {counters.get(f'{prefix}.cache_misses', 0):.0f}"
            " misses"
        )
        stale = counters.get(f"{prefix}.stale_serves", 0)
        if stale:
            print(
                f"approx policy: {stale:.0f} stale serves,"
                f" {counters.get(f'{prefix}.revalidations', 0):.0f}"
                " lazy revalidations"
            )


def profile_engine(
    name: str,
    rounds: int,
    oracle_kind: str,
    cache: bool,
    route_cache: str,
    drift_budget: int,
) -> None:
    rng = np.random.default_rng(0)
    engine = make_engine(name, N_NORMAL, N_CSN)
    engine.set_strategies([Strategy.random(rng) for _ in range(N_NORMAL)])
    participants = list(range(N_NORMAL)) + engine.selfish_ids(N_CSN)
    oracle = make_oracle(oracle_kind, cache, route_cache, drift_budget)
    stats = TournamentStats()

    with telemetry_session(TelemetryConfig(enabled=True, events=False)) as tel:
        draw_timer = tel.registry.timer("oracle.draw_s")
        _timed_draws(oracle, draw_timer)
        profiler = cProfile.Profile()
        profiler.enable()
        engine.run_tournament(participants, rounds, oracle, stats, None, None)
        profiler.disable()
        harvest_oracle(tel, oracle)
        snapshot = tel.snapshot()
        draw_s = draw_timer.total_s

    out = StringIO()
    ps = pstats.Stats(profiler, stream=out).sort_stats("cumulative")
    ps.print_stats(12)
    policy = f", {route_cache} route cache" if oracle_kind == "mobile" else ""
    print(
        f"\n===== {name} engine, {oracle_kind} oracle{policy}"
        f"{'' if cache else ' (path cache off)'},"
        f" {rounds} rounds, {rounds * (N_NORMAL + N_CSN)} games ====="
    )
    print("\n".join(out.getvalue().splitlines()[:22]))
    print("\noracle layers (wall time inside the profiled tournament):")
    for layer, seconds in _layer_breakdown(snapshot, draw_s):
        print(f"  {layer:14s} {seconds * 1e3:8.1f} ms")
    _print_kernel_breakdown(snapshot)
    _print_cache_stats(snapshot)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("rounds", nargs="?", type=int, default=60)
    parser.add_argument(
        "--oracle", default="random", choices=("random", "topology", "mobile")
    )
    parser.add_argument(
        "--route-cache",
        default="exact",
        choices=ROUTE_CACHE_POLICIES,
        help="route-provider cache policy for the mobile oracle",
    )
    parser.add_argument(
        "--drift-budget",
        type=int,
        default=8,
        help="epochs a cached route may be served stale (approx policy)",
    )
    parser.add_argument(
        "--no-path-cache",
        action="store_true",
        help="disable the per-(source, destination) route cache (topology oracle)",
    )
    parser.add_argument(
        "--engines",
        default="reference,batch,fused",
        help="comma-separated engines to profile"
        f" (available: {','.join(ENGINES)})",
    )
    args = parser.parse_args()
    if args.drift_budget < 0:
        parser.error(f"--drift-budget must be >= 0, got {args.drift_budget}")
    names = [n.strip() for n in args.engines.split(",") if n.strip()]
    unknown = [n for n in names if n not in ENGINES]
    if unknown:
        parser.error(f"unknown engine(s) {unknown}; available: {sorted(ENGINES)}")
    for name in names:
        profile_engine(
            name,
            args.rounds,
            args.oracle,
            not args.no_path_cache,
            args.route_cache,
            args.drift_budget,
        )


if __name__ == "__main__":
    main()
