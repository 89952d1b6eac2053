"""Engine throughput across every path oracle and route-cache policy.

The honest comparison the HPC guides demand: identical semantics (proved by
the equivalence suites), so any speedup is pure implementation.  Each engine
runs one table-5-scale tournament (50 seats, TE2's 10 CSN, 40 rounds) per
oracle row and reports games/second.  Besides the paper's random oracle and
the static-topology / low-mobility rows, two rows cover the per-round
mobility regime (``mobility_highspeed``: tolerance 0, step every round) —
once under the default ``exact`` route-cache policy and once under
``approx``, whose drift-budgeted staleness is this row's entire reason to
exist.

Three ``*_stacked`` rows measure the cross-replication stacked evaluation
path (``FusedEngine(n_replications=STACK_REPS)``): ``STACK_REPS``
replications x ``FUSED_STACK`` tournaments planned and executed as one
mega-slate, amortized per game across the whole R x T block.  The random
stacked row carries a soft 600k games/s throughput target, recorded in the
ledger whether or not it is met.

The per-round-mobility rows are measured **block-averaged**: each timed
sample is ``FUSED_STACK`` consecutive tournaments on the live oracle,
divided back to a per-tournament wall.  Best-of over *single* tournaments
is dishonest exactly there — under the approx route-cache policy a lucky
tournament window serves every route inside the drift budget (zero
revalidations), so best-of crowned batch with an unrepresentatively cheap
tournament while the fused engine's generation unit always amortized the
full revalidation cadence.  Block averaging gives every engine the same
ten-consecutive-tournament unit a real generation executes.

Beyond the per-bench JSON sidecar, this bench writes the repo-level
``BENCH_ENGINE.json`` perf ledger (schema documented in the README).  The
timed workload is fixed at the constants below regardless of the session's
report scale, so ledgers are comparable across machines and runs; CI re-runs
it and gates wall-time regressions against the committed baseline via
``scripts/check_perf_regression.py``, keeping the perf trajectory in-repo.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.config.mobility import MobilityConfig
from repro.core.strategy import Strategy
from repro.game.stats import TournamentStats
from repro.mobility import build_oracle
from repro.network.topology import GeometricTopology, TopologyPathOracle
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.paths.vector import plan_generation_arrays, stack_replication_plans
from repro.sim import BIT_IDENTICAL_ENGINES, ENGINES, make_engine
from repro.sim.fused import FusedEngine
from repro.telemetry import Timer
from repro.utils.tables import format_table

from benchmarks.conftest import REPORT_DIR, emit_report, git_sha

#: Table-5 scale: full 50-seat tournaments in a TE2-like environment.
ROUNDS = 40
N_NORMAL = 40
N_CSN = 10
SEATS = N_NORMAL + N_CSN
GAMES = ROUNDS * SEATS

ORACLES = (
    "random",
    "topology",
    "mobile",
    "mobility_highspeed",
    "mobility_highspeed_approx",
)
LEDGER_PATH = Path(__file__).resolve().parent.parent / "BENCH_ENGINE.json"

#: The batch engine's raison d'être, asserted where users will look for it.
#: The measured margin is ~2.2x; 1.3x absorbs shared-runner noise in CI.
MIN_BATCH_SPEEDUP = 1.3
#: Every oracle row must show batch >= fast (the regression this bench once
#: caught: batch *losing* to fast on the topology oracle).  0.93 absorbs
#: shared-runner noise; the committed ledger shows the real margins.
MIN_BATCH_VS_FAST = 0.93
#: Native-route targets on the committed ledger's workloads, with CI slack
#: (measured margins are ~4x topology / ~2.3x mobile).
MIN_TOPOLOGY_VS_REFERENCE = 2.0
MIN_MOBILE_VS_REFERENCE = 1.4
#: The turbo engine's tentpole claim: on the random oracle — where the
#: sequential draw+watchdog recurrence, not route search, bounds the
#: bit-identical engines — speculative round vectorization must beat the
#: batch engine.  Measured margin is ~1.45x; 1.2 absorbs shared-runner
#: noise in CI while the committed ledger posts the real >= 1.3x number.
MIN_TURBO_VS_BATCH_RANDOM = 1.2
#: With native vectorized topology/mobile draws (PR 5), turbo contends on
#: the route-table rows too: it must stay within noise of batch on the
#: *better* of the topology/mobile rows (the committed ledger posts
#: turbo >= batch on at least one; 0.9 absorbs shared-runner noise).
MIN_TURBO_VS_BATCH_ROUTED = 0.9
#: The approx route-cache policy's reason to exist: on the per-round
#: mobility row it must post a large speedup over the exact policy on the
#: same engine.  The committed ledger posts >= 2x; 1.5 absorbs CI noise.
MIN_APPROX_VS_EXACT = 1.5
#: Tournaments stacked per fused generation pass.  Matches a table-5
#: environment's per-generation tournament count; the stack-size scan that
#: landed the engine showed per-tournament wall flat from 10 through 40, so
#: the smallest realistic stack is the honest number.
FUSED_STACK = 10
#: The fused engine's tentpole claim: stacking a generation's tournaments
#: into one mega-batch pass must beat re-entering turbo per tournament on
#: the random row (where fixed numpy dispatch, not route search, bounds
#: turbo).  The committed ledger posts >= 2x; 1.5 absorbs CI noise.
MIN_FUSED_VS_TURBO_RANDOM = 1.5
#: On the route-table rows the fusion also shares route tables and slot
#: caches across the stack; it must beat the batch engine on both.  The
#: committed ledger posts >= 1.3x on each; 1.1 absorbs CI noise.
MIN_FUSED_VS_BATCH_ROUTED = 1.1
#: The approx-policy mobility row under the block-averaged protocol: fused
#: must stay at least at parity with batch (the committed ledger posts
#: ~1.0x — the row is revalidation-bound, so the generation fusion's wins
#: amortize away; 0.9 absorbs shared-runner noise).  Before the protocol
#: fix this row *looked* like a fused regression: best-of over single
#: tournaments let batch post a zero-revalidation lucky window.
MIN_FUSED_VS_BATCH_HIGHSPEED_APPROX = 0.9
#: Replications stacked per cross-replication mega-slate pass — the R in
#: the R x T stacking.  Eight replications of a FUSED_STACK-tournament
#: generation put 8x the slate width through every vectorized round pass.
STACK_REPS = 8
#: Oracle rows measured through the stacked path (ledger rows
#: ``<kind>_stacked``); each replication gets its own identically
#: configured, differently seeded oracle — exactly the experiment layer's
#: per-replication stream isolation.
STACKED_ORACLES = ("random", "topology", "mobile")
#: The stacked path's routed-row claim: stacking must post >= 2x batch on
#: the topology and mobile rows (the committed ledger posts >= 2.1x on
#: each; 1.5 absorbs shared-runner noise).
MIN_STACKED_VS_BATCH_ROUTED = 1.5
#: Throughput target on the random stacked row, amortized per game across
#: the whole R x T block (planning included).  A *soft* gate — recorded in
#: the ledger and warned about, never failed — because the kernel's
#: ceiling is an honest number worth tracking, not a promise.
STACKED_TARGET = 600_000
#: Rows measured block-averaged (see the module docstring): per-round
#: mobility churns the route state tournament over tournament, so a
#: single-tournament best-of measures a lucky window, not the workload.
BLOCK_PROTOCOL_ORACLES = frozenset(
    {"mobility_highspeed", "mobility_highspeed_approx"}
)

#: The mobile row is the paper's *low-mobility* regime (§3.1): the topology
#: advances once per tournament (``evaluate_generation``'s
#: ``on_tournament_end`` clocking, reproduced by the timing loop), with slow
#: waypoint drift inside the DynamicTopology tolerance band, so the network
#: has static phases between edge-set changes — the scenario the epoch-keyed
#: route cache and native path engine exist for.  (Full-speed per-round
#: churn with tolerance=0 invalidates every route every round: all engines
#: alike become route-search bound and the row measures nothing but the
#: shared K-shortest-paths kernel.)
MOBILE_BENCH_CONFIG = MobilityConfig(
    model="waypoint",
    speed_min=0.002,
    speed_max=0.008,
    tolerance=0.02,
    step_every="tournament",
)

#: The *high-mobility* regime the ROADMAP left open: the same slow waypoint
#: drift as the mobile row, but applied **every round** with zero tolerance,
#: so the edge set (and epoch) changes round by round and the exact cache
#: can never serve a static phase — every engine becomes route-search bound.
#: The radio range matches the static topology row (0.35): hundreds of
#: unclocked per-round steps explore far deeper drift states than the
#: per-tournament mobile row, and the denser disk keeps the giant component
#: intact (a partition can strand a low-degree source beyond even the
#: emergency nearest-peer boost, killing the timed tournament).
HIGHSPEED_BENCH_CONFIG = MOBILE_BENCH_CONFIG.with_(
    tolerance=0.0, step_every="round", radio_range=0.35
)

#: Drift budget for the row's ``approx`` measurement: routes may be served
#: up to ~6 tournaments stale before they are lazily revalidated (cheap
#: edge-recheck, full recompute only when every cached route broke).  At
#: this row's drift (~0.005/step, radio 0.35) that is the high-mobility
#: analogue of the paper's own random-path regime — routing state that
#: deliberately lags the topology — and it is exactly the configuration the
#: statistical-equivalence tier gates on mobile scenarios
#: (``tests/test_engine_statistical.py``).
HIGHSPEED_DRIFT_BUDGET = 240


def make_oracle(kind: str, seed: int = 1):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return RandomPathOracle(rng, SHORTER_PATHS)
    if kind == "topology":
        topology = GeometricTopology(range(SEATS), radio_range=0.35, rng=rng)
        return TopologyPathOracle(topology, rng)
    if kind == "mobile":
        return build_oracle(MOBILE_BENCH_CONFIG, range(SEATS), rng)
    if kind == "mobility_highspeed":
        return build_oracle(HIGHSPEED_BENCH_CONFIG, range(SEATS), rng)
    if kind == "mobility_highspeed_approx":
        config = HIGHSPEED_BENCH_CONFIG.with_(
            route_cache="approx", drift_budget=HIGHSPEED_DRIFT_BUDGET
        )
        return build_oracle(config, range(SEATS), rng)
    raise ValueError(f"unknown oracle kind {kind!r}")


def run_tournament(
    engine_name: str, oracle_kind: str = "random", oracle=None
) -> TournamentStats:
    rng = np.random.default_rng(0)
    engine = make_engine(engine_name, N_NORMAL, N_CSN)
    engine.set_strategies([Strategy.random(rng) for _ in range(N_NORMAL)])
    participants = list(range(N_NORMAL)) + engine.selfish_ids(N_CSN)
    if oracle is None:
        oracle = make_oracle(oracle_kind)
    stats = TournamentStats()
    engine.reset_generation()
    engine.run_tournament(participants, ROUNDS, oracle, stats, None, None)
    # the per-tournament clock hook, exactly as evaluate_generation fires it
    hook = getattr(oracle, "on_tournament_end", None)
    if hook is not None:
        hook()
    return stats


def run_fused_generation(oracle_kind: str = "random", oracle=None) -> TournamentStats:
    """One fused generation: ``FUSED_STACK`` tournaments in a single pass.

    Each stacked tournament seats the same participants as
    :func:`run_tournament`, so the generation is exactly ``FUSED_STACK``
    copies of the per-tournament workload — per-tournament walls divide out
    directly.  Engine construction and strategy upload stay inside the
    timed call, mirroring ``run_tournament``'s accounting.
    """
    rng = np.random.default_rng(0)
    engine = make_engine("fused", N_NORMAL, N_CSN)
    engine.set_strategies([Strategy.random(rng) for _ in range(N_NORMAL)])
    participants = list(range(N_NORMAL)) + engine.selfish_ids(N_CSN)
    if oracle is None:
        oracle = make_oracle(oracle_kind)
    stats = TournamentStats()
    engine.reset_generation()
    engine.run_generation(
        [list(participants) for _ in range(FUSED_STACK)], ROUNDS, oracle, stats
    )
    return stats


def time_fused_generation(oracle_kind: str, repeats: int = 7) -> float:
    """Best-of-7 wall seconds *per stacked tournament* for the fused engine.

    Same protocol as :func:`time_tournament` — long-lived oracle, two
    warmups, telemetry :class:`Timer`, best-of — but the clocked unit is a
    whole fused generation, normalized by ``FUSED_STACK`` so the matrix
    compares per-tournament walls across engines.
    """
    oracle = make_oracle(oracle_kind)
    timer = Timer()
    run_fused_generation(oracle_kind, oracle)  # warmup
    run_fused_generation(oracle_kind, oracle)  # reach cache steady state
    for _ in range(repeats):
        with timer.time():
            run_fused_generation(oracle_kind, oracle)
    return timer.min_s / FUSED_STACK


def make_stacked_oracles(kind: str):
    """One oracle per stacked replication, seeds 1..STACK_REPS."""
    return [make_oracle(kind, seed=1 + r) for r in range(STACK_REPS)]


def run_stacked_generation(oracle_kind: str, oracles=None) -> list[TournamentStats]:
    """One stacked pass: ``STACK_REPS`` x ``FUSED_STACK`` tournaments.

    Mirrors :func:`run_fused_generation`'s accounting — engine
    construction, strategy upload and *all* plan drawing stay inside the
    timed call — then executes the whole R x T block as one mega-slate via
    :meth:`FusedEngine.run_generation_stacked`.  Per-replication
    plans are drawn from per-replication oracles and shifted into private
    node-id blocks by :func:`stack_replication_plans`, exactly as the
    experiment layer's stacked path does.
    """
    rng = np.random.default_rng(0)
    engine = FusedEngine(N_NORMAL, N_CSN, n_replications=STACK_REPS)
    engine.set_strategies([Strategy.random(rng) for _ in range(N_NORMAL)])
    participants = list(range(N_NORMAL)) + engine.selfish_ids(N_CSN)
    if oracles is None:
        oracles = make_stacked_oracles(oracle_kind)
    plans = []
    for oracle in oracles:
        with FusedEngine.route_sharing(oracle):
            plans.append(
                plan_generation_arrays(
                    oracle,
                    [list(participants) for _ in range(FUSED_STACK)],
                    ROUNDS,
                    on_tournament_end=getattr(oracle, "on_tournament_end", None),
                )
            )
    plan = stack_replication_plans(plans, ROUNDS, SEATS)
    stats = [TournamentStats() for _ in range(STACK_REPS)]
    engine.reset_generation()
    engine.run_generation_stacked(plan, ROUNDS, FUSED_STACK, SEATS, stats)
    return stats


def time_stacked_generation(oracle_kind: str, repeats: int = 5) -> float:
    """Best-of wall seconds *per stacked tournament* for the stacked path.

    Same protocol as :func:`time_fused_generation` — long-lived oracles,
    two warmups, telemetry :class:`Timer`, best-of — normalized by the
    full ``STACK_REPS * FUSED_STACK`` block so the matrix compares
    per-tournament walls across engines.
    """
    oracles = make_stacked_oracles(oracle_kind)
    timer = Timer()
    run_stacked_generation(oracle_kind, oracles)  # warmup
    run_stacked_generation(oracle_kind, oracles)  # reach cache steady state
    for _ in range(repeats):
        with timer.time():
            run_stacked_generation(oracle_kind, oracles)
    return timer.min_s / (STACK_REPS * FUSED_STACK)


def time_tournament_block(
    engine_name: str, oracle_kind: str, repeats: int = 3
) -> float:
    """Block-averaged wall seconds per tournament (see module docstring).

    Each timed sample is ``FUSED_STACK`` consecutive tournaments on the
    live oracle — the unit a real generation executes — so policies whose
    cost arrives in bursts (approx-policy revalidation storms) are charged
    their amortized rate instead of a lucky window's.  Best-of over
    blocks, divided back to a per-tournament wall.
    """
    oracle = make_oracle(oracle_kind)
    timer = Timer()
    run_tournament(engine_name, oracle_kind, oracle)  # warmup
    run_tournament(engine_name, oracle_kind, oracle)  # reach cache steady state
    for _ in range(repeats):
        with timer.time():
            for _ in range(FUSED_STACK):
                run_tournament(engine_name, oracle_kind, oracle)
    return timer.min_s / FUSED_STACK


def time_tournament(engine_name: str, oracle_kind: str, repeats: int = 7) -> float:
    """Best-of-7 wall seconds for one tournament, on a long-lived oracle.

    Repeats aggregate in a telemetry :class:`Timer` (the best-of is its
    ``min_s``), so the bench clocks tournaments with the exact primitive a
    ``--telemetry`` run uses for its span timings.

    The oracle is built outside the clock and reused across two warmup
    tournaments and the repeats — exactly how ``evaluate_generation``
    drives tournaments in a replication, where one oracle serves every
    tournament of every generation.  A static topology therefore serves its
    warm route tables (their steady state, which the layered providers and
    the turbo engine's draw caches reach after a couple of tournaments),
    while the mobile topology keeps moving and re-routing between repeats
    just as it does between real tournaments.  Each engine gets its own
    identically seeded oracle, so engines see identical workloads.
    """
    oracle = make_oracle(oracle_kind)
    timer = Timer()
    run_tournament(engine_name, oracle_kind, oracle)  # warmup
    run_tournament(engine_name, oracle_kind, oracle)  # reach cache steady state
    for _ in range(repeats):
        with timer.time():
            run_tournament(engine_name, oracle_kind, oracle)
    return timer.min_s


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_engine_tournament_throughput(benchmark, engine_name):
    stats = benchmark.pedantic(
        run_tournament, args=(engine_name,), rounds=3, iterations=1, warmup_rounds=1
    )
    assert stats.nn_originated + stats.csn_originated == GAMES
    benchmark.extra_info["games_per_tournament"] = GAMES
    benchmark.extra_info["games_per_second"] = GAMES / benchmark.stats["mean"]


@pytest.mark.parametrize("oracle_kind", ORACLES)
def test_engines_equal_output_per_oracle(oracle_kind):
    """Guard: the timed configurations do identical work on every oracle.

    The bit-identical trio must agree exactly; the turbo engine (statistical
    contract) must play the same *workload* — same game count, sane delivery
    — with its distributional match gated by the dedicated suite in
    ``tests/test_engine_statistical.py``.
    """
    reference = run_tournament(BIT_IDENTICAL_ENGINES[0], oracle_kind).to_dict()
    for engine_name in BIT_IDENTICAL_ENGINES[1:]:
        assert run_tournament(engine_name, oracle_kind).to_dict() == reference
    turbo = run_tournament("turbo", oracle_kind).to_dict()
    assert (
        turbo["nn_originated"] + turbo["csn_originated"]
        == reference["nn_originated"] + reference["csn_originated"]
        == GAMES
    )
    assert turbo["nn_delivered"] <= turbo["nn_originated"]
    assert turbo["nn_paths_chosen"] == reference["nn_paths_chosen"]
    # the fused engine's unit is a generation: its stacked pass must conserve
    # the whole stack's workload (structural counts scale by the stack size)
    fused = run_fused_generation(oracle_kind).to_dict()
    assert (
        fused["nn_originated"] + fused["csn_originated"] == FUSED_STACK * GAMES
    )
    assert fused["nn_delivered"] <= fused["nn_originated"]
    assert fused["nn_paths_chosen"] == FUSED_STACK * reference["nn_paths_chosen"]
    # the cross-replication mega-slate must conserve every replication's
    # workload independently: per-rep counts equal one fused generation's
    if oracle_kind in STACKED_ORACLES:
        for rep_stats in run_stacked_generation(oracle_kind):
            rep = rep_stats.to_dict()
            assert (
                rep["nn_originated"] + rep["csn_originated"]
                == FUSED_STACK * GAMES
            )
            assert rep["nn_delivered"] <= rep["nn_originated"]


def test_engine_matrix_report(session):
    """Engines x oracles games/sec matrix; writes BENCH_ENGINE.json."""
    walls: dict[str, dict[str, float]] = {kind: {} for kind in ORACLES}
    for oracle_kind in ORACLES:
        for engine_name in ENGINES:
            # the fused engine's unit of work is a whole generation; its
            # matrix cell is the per-tournament wall of one stacked pass.
            # The per-round-mobility rows use the block-averaged protocol
            # for the per-tournament engines (module docstring) so approx
            # revalidation storms are charged at their amortized rate.
            if engine_name == "fused":
                wall = time_fused_generation(oracle_kind)
            elif oracle_kind in BLOCK_PROTOCOL_ORACLES:
                wall = time_tournament_block(engine_name, oracle_kind)
            else:
                wall = time_tournament(engine_name, oracle_kind)
            walls[oracle_kind][engine_name] = wall
    # the cross-replication rows: one stacked cell per routed-or-random kind
    stacked_walls = {
        kind: time_stacked_generation(kind) for kind in STACKED_ORACLES
    }

    rows = []
    metrics: dict[str, float] = {}
    for oracle_kind in ORACLES:
        for engine_name in ENGINES:
            wall = walls[oracle_kind][engine_name]
            gps = GAMES / wall
            metrics[f"games_per_s[{engine_name}/{oracle_kind}]"] = round(gps, 1)
            rows.append(
                [
                    oracle_kind,
                    engine_name,
                    f"{wall * 1e3:.1f} ms",
                    f"{gps:,.0f}",
                    f"{walls[oracle_kind]['reference'] / wall:.2f}x",
                ]
            )
    for oracle_kind in STACKED_ORACLES:
        wall = stacked_walls[oracle_kind]
        gps = GAMES / wall
        metrics[f"games_per_s[stacked/{oracle_kind}_stacked]"] = round(gps, 1)
        rows.append(
            [
                f"{oracle_kind}_stacked",
                "stacked",
                f"{wall * 1e3:.1f} ms",
                f"{gps:,.0f}",
                f"{walls[oracle_kind]['reference'] / wall:.2f}x",
            ]
        )
    report = format_table(
        rows,
        headers=[
            "oracle",
            "engine",
            "tournament wall",
            "games/sec",
            "vs reference",
        ],
        title=(
            f"Engine throughput, table-5 scale ({SEATS} seats, {N_CSN} CSN,"
            f" {ROUNDS} rounds, {GAMES} games/tournament)"
        ),
    )
    emit_report("engine_perf", session, report, metrics=metrics)

    random_walls = walls["random"]
    stacked_random_gps = GAMES / stacked_walls["random"]
    ledger_walls = {
        oracle_kind: dict(engine_walls)
        for oracle_kind, engine_walls in walls.items()
    }
    for oracle_kind in STACKED_ORACLES:
        ledger_walls[f"{oracle_kind}_stacked"] = {
            "stacked": stacked_walls[oracle_kind]
        }
    ledger = {
        "bench": "engine_perf",
        "scale": {
            "seats": SEATS,
            "n_csn": N_CSN,
            "rounds": ROUNDS,
            "games_per_tournament": GAMES,
            "stack_replications": STACK_REPS,
            "stack_tournaments": FUSED_STACK,
        },
        "wall_s": {
            oracle_kind: {
                engine: round(wall, 6)
                for engine, wall in engine_walls.items()
            }
            for oracle_kind, engine_walls in ledger_walls.items()
        },
        "metrics": {
            "games_per_s": {
                oracle_kind: {
                    engine: round(GAMES / wall, 1)
                    for engine, wall in engine_walls.items()
                }
                for oracle_kind, engine_walls in ledger_walls.items()
            },
            "batch_speedup_vs_fast_random": round(
                random_walls["fast"] / random_walls["batch"], 3
            ),
            "batch_speedup_vs_reference_random": round(
                random_walls["reference"] / random_walls["batch"], 3
            ),
            "turbo_speedup_vs_batch_random": round(
                random_walls["batch"] / random_walls["turbo"], 3
            ),
            "turbo_vs_batch_best_routed": round(
                max(
                    walls[o]["batch"] / walls[o]["turbo"]
                    for o in ("topology", "mobile")
                ),
                3,
            ),
            "approx_speedup_vs_exact_highspeed": round(
                walls["mobility_highspeed"]["batch"]
                / walls["mobility_highspeed_approx"]["batch"],
                3,
            ),
            "fused_speedup_vs_turbo_random": round(
                random_walls["turbo"] / random_walls["fused"], 3
            ),
            "fused_vs_batch_topology": round(
                walls["topology"]["batch"] / walls["topology"]["fused"], 3
            ),
            "fused_vs_batch_mobile": round(
                walls["mobile"]["batch"] / walls["mobile"]["fused"], 3
            ),
            "fused_vs_batch_highspeed_approx": round(
                walls["mobility_highspeed_approx"]["batch"]
                / walls["mobility_highspeed_approx"]["fused"],
                3,
            ),
            "stacked_vs_batch_topology": round(
                walls["topology"]["batch"] / stacked_walls["topology"], 3
            ),
            "stacked_vs_batch_mobile": round(
                walls["mobile"]["batch"] / stacked_walls["mobile"], 3
            ),
            "stacked_speedup_vs_fused_random": round(
                random_walls["fused"] / stacked_walls["random"], 3
            ),
            "stacked_random_games_per_s": round(stacked_random_gps, 1),
            "stacked_random_target": STACKED_TARGET,
            # 1/0, not a bool: the report schema's metrics tree is numeric
            "stacked_random_target_met": int(stacked_random_gps >= STACKED_TARGET),
        },
        "git_sha": git_sha(),
    }
    LEDGER_PATH.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")

    # The tentpole claims, measured where users will see them.
    assert random_walls["fast"] / random_walls["batch"] >= MIN_BATCH_SPEEDUP
    assert (
        random_walls["batch"] / random_walls["turbo"] >= MIN_TURBO_VS_BATCH_RANDOM
    ), "turbo engine lost its speculative-vectorization edge on the random oracle"
    assert (
        max(walls[o]["batch"] / walls[o]["turbo"] for o in ("topology", "mobile"))
        >= MIN_TURBO_VS_BATCH_ROUTED
    ), "turbo's native route-table draws lost their contention with batch"
    assert (
        walls["mobility_highspeed"]["batch"]
        / walls["mobility_highspeed_approx"]["batch"]
        >= MIN_APPROX_VS_EXACT
    ), "the approx route-cache policy lost its edge on per-round mobility"
    assert (
        random_walls["turbo"] / random_walls["fused"] >= MIN_FUSED_VS_TURBO_RANDOM
    ), "the fused engine lost its generation-stacking edge on the random oracle"
    for o in ("topology", "mobile"):
        assert (
            walls[o]["batch"] / walls[o]["fused"] >= MIN_FUSED_VS_BATCH_ROUTED
        ), f"fused generation stacking lost to batch on the {o} oracle"
    assert (
        walls["mobility_highspeed_approx"]["batch"]
        / walls["mobility_highspeed_approx"]["fused"]
        >= MIN_FUSED_VS_BATCH_HIGHSPEED_APPROX
    ), (
        "fused fell below batch parity on the block-averaged approx"
        " per-round-mobility row"
    )
    for o in ("topology", "mobile"):
        assert (
            walls[o]["batch"] / stacked_walls[o] >= MIN_STACKED_VS_BATCH_ROUTED
        ), f"cross-replication stacking lost its >= 2x edge vs batch on {o}"
    # the soft throughput target on the random stacked row (recorded + warned)
    if stacked_random_gps < STACKED_TARGET:
        warnings.warn(
            f"the stacked engine posted {stacked_random_gps:,.0f} games/s on the"
            f" random stacked row (soft target {STACKED_TARGET:,});"
            " recorded in BENCH_ENGINE.json, not a failure",
            stacklevel=2,
        )
    for oracle_kind in ORACLES:
        engine_walls = walls[oracle_kind]
        assert (
            engine_walls["fast"] / engine_walls["batch"] >= MIN_BATCH_VS_FAST
        ), f"batch engine regressed below fast on the {oracle_kind} oracle"
    assert (
        walls["topology"]["reference"] / walls["topology"]["batch"]
        >= MIN_TOPOLOGY_VS_REFERENCE
    )
    assert (
        walls["mobile"]["reference"] / walls["mobile"]["batch"]
        >= MIN_MOBILE_VS_REFERENCE
    )


def test_bench_json_sidecar_schema(session):
    """The JSON pipeline contract other tooling depends on."""
    probe = "engine_perf_schema_probe"
    try:
        emit_report(probe, session, "schema probe", metrics={"probe": 1.0}, wall_s=0.5)
        payload = json.loads((REPORT_DIR / f"{probe}.json").read_text())
        assert set(payload) == {"bench", "scale", "wall_s", "metrics", "git_sha"}
        assert payload["bench"] == probe
        assert payload["wall_s"] == 0.5
        assert payload["metrics"] == {"probe": 1.0}
    finally:
        for suffix in (".json", ".txt"):
            (REPORT_DIR / f"{probe}{suffix}").unlink(missing_ok=True)
