"""Generation-fused "mega-batch" simulation engine.

The fifth engine: a :class:`~repro.sim.turbo.TurboEngine` subclass that
plans and executes **all tournaments of a generation as one stacked pass**
instead of re-entering the engine per tournament.  Turbo vectorizes one
tournament's round (a table-5 round is 50 games, so per-op numpy dispatch
still dominates); fused widens every per-round pass to a *slate* — round
``r`` of every stacked tournament at once (``T * n`` games) — amortizing
the fixed dispatch cost across the whole stack while sharing one plan
(:func:`repro.paths.vector.plan_generation_arrays`), one set of route
tables / ``_RoutedSlotCache`` slots, and the generation's reputation state.

Why this is sound: within a generation the reputation matrices persist
*across* tournaments (``reset_generation`` fires once per generation), and
tournaments of one generation are causally coupled only through those
matrices.  The stacked layout is round-major, so the slate executes round
``r`` of every tournament against the same round-start state — a round-level
lockstep reordering of the sequential tournament-by-tournament schedule.

What the fusion relaxes, on top of turbo's tolerated list:

* **Cross-tournament round lockstep.**  Sequentially, tournament ``t + 1``
  starts against the matrices tournament ``t`` finished; fused, round ``r``
  of every tournament reads the state left by round ``r - 1`` of every
  tournament.  Evidence totals are identical — only the interleaving of
  when each tournament's watchdog writes land changes.
* **Cross-tournament slate staleness.**  The conflict pass scopes pair
  codes *per tournament* (tournament-offset codes), exactly reproducing
  turbo's within-round walk inside each tournament; a pair written by
  another tournament in the same slate is tolerated staleness (same class
  as turbo's activity-average staleness) rather than a replay trigger —
  unscoped detection would replay nearly every game of a wide slate back
  through the scalar kernel.
* **Generation-scoped route-table sharing.**  While the stacked plan is
  drawn, a mobile oracle's route cache serves entries across the
  generation's topology epochs under zero-budget lazy revalidation (every
  served route is edge-checked against the current graph; only pairs whose
  cached routes all broke pay a full search), then reverts to its exact
  policy.  A relaxation of route *preference*, not existence — the same
  class as the approx cache policy the statistical tier gates on mobile
  scenarios.

Both are distribution-preserving perturbations of micro-outcome order, not
of the paper's reported aggregates; ``tests/test_engine_statistical.py``
holds fused to the same KS / Mann-Whitney / Fig.-4-band gates as turbo, and
``tests/test_sim_fused.py`` pins the exact invariants (conservation,
``pf <= ps``, aggregate consistency) and the contract edges (exchange
fallback, per-tournament hooks).

The second-hand exchange interleaves gossip with each tournament's round
stream, which fusion cannot reorder away — ``run_stack`` falls back to
the per-tournament turbo path when the exchange is enabled (bit-identical
to driving turbo from the sequential generation loop).  ``run_tournament``
is inherited unchanged, so outside the fused entry point the engine *is*
turbo.

Cross-replication stacking
--------------------------
``FusedEngine(n_replications=R)`` widens the slate one more axis: **R
independent replications** of the same experiment evaluate as one
mega-slate — stacked game ``round * (R * T * n) + rep * (T * n) +
tournament * n + seat`` — against block-diagonal reputation state, one
``(R * block)``-order matrix whose ``r``-th diagonal block is replication
``r``'s private state (``block = n_population + max_selfish``).
:func:`repro.experiments.replication.run_stack` drives it at every stack
width through :meth:`FusedEngine.run_stack` (``run_generation`` is its
one-member call).  Stacking is *exact* — each replication bit-identical to
its run in a stack of one, not merely
statistically equivalent (pinned by ``tests/test_sim_stacked.py``):

* Replications are causally independent by construction: a replication is a
  pure function of ``(config, replication_index)`` with its own rng stream.
  :func:`repro.paths.vector.stack_replication_plans` shifts each
  replication's node ids into its private block, so no stacked game can
  ever read or write another replication's cells — every kernel op
  (gather, commit scatter, scalar replay) decomposes block-diagonally.
* The conflict walk scopes pair codes per ``(replication, tournament)``
  (the plan context's ``scope``), reproducing the per-tournament walk
  inside each replication's slate slice.
* ``commit`` updates ``known``/``pf_sum`` only on the rows its pairs touch,
  and a replication's pairs only name cells of its own block, so each
  block's caches evolve exactly as they would alone.  Together with the
  conflict walk resetting only the codes it wrote, a round's state work is
  O(cells the round touches), never O((R * block)^2): stack width costs
  nothing per round.
* Statistics counters are routed per replication (``(R, 9)``/``(R, 4)``
  accumulator rows); float payoff accumulators are per *node* and the
  per-node fold order within a replication matches the unstacked pass, so
  even the float sums agree bitwise.
* The scalar-fallback threshold of the conflict pass (< 10 conflicted games
  per round replay directly; more take the vectorized second chance) is
  part of each replication's trajectory, so it is evaluated on each
  replication's own conflict count.  Replications over the threshold then
  share one merged second-chance pass, which block-diagonal state keeps
  exact.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

import numpy as np

from repro.core.strategy import STRATEGY_LENGTH
from repro.game.stats import TournamentStats
from repro.network.provider import ApproxPolicy
from repro.paths.oracle import PathOracle
from repro.paths.vector import (
    GamePlanArrays,
    plan_generation_arrays,
    stack_replication_plans,
)
from repro.reputation.exchange import ExchangeConfig
from repro.sim.turbo import TurboEngine, _PlanContext, timed
from repro.telemetry.runtime import get_telemetry

__all__ = ["FusedEngine"]


class FusedEngine(TurboEngine):
    """Turbo's speculative slate kernel, widened to a whole generation and,
    with ``n_replications > 1``, to ``R`` block-diagonal replications
    (exact per-replication equivalence to sequential runs)."""

    name = "fused"
    #: :func:`repro.tournament.evaluation.evaluate_stack` dispatches on
    #: this flag to hand the engine all of an environment's seatings at
    #: once (:meth:`run_stack`) instead of one tournament at a time.
    supports_generation_fusion = True

    def __init__(
        self,
        n_population: int,
        max_selfish: int,
        trust_table=None,
        activity=None,
        payoffs=None,
        n_replications: int = 1,
    ):
        if n_replications < 1:
            raise ValueError(
                f"n_replications must be >= 1, got {n_replications}"
            )
        # consumed by the _matrix_order/_build_csn_lookup/_rebuild hooks
        # that the base constructor calls, so they must exist first
        self.n_replications = n_replications
        self.block = n_population + max_selfish
        self._strategy_tensor: np.ndarray | None = None
        super().__init__(n_population, max_selfish, trust_table, activity, payoffs)

    # -- stacking hooks -------------------------------------------------------

    def _matrix_order(self) -> int:
        return self.n_replications * self.block

    def _build_csn_lookup(self) -> np.ndarray:
        return (np.arange(self.m) % self.block) >= self.n_population

    def _rebuild_strategy_table(self) -> None:
        table = np.zeros(self.m * STRATEGY_LENGTH, dtype=np.int8)
        view = table.reshape(self.n_replications, self.block, STRATEGY_LENGTH)
        if self._strategy_tensor is None:
            # base-class construction / scalar set_strategies: every
            # replication carries the same population
            view[:, : self.n_population] = np.array(
                self._strategies, dtype=np.int8
            )
        else:
            view[:, : self.n_population] = self._strategy_tensor
        self._strat_flat = table

    # -- per-replication population -------------------------------------------

    def set_strategies(self, strategies) -> None:
        self._strategy_tensor = None
        super().set_strategies(strategies)

    def set_strategies_tensor(self, tensor: np.ndarray) -> None:
        """Install each replication's population from an ``(R, P, L)``
        bit tensor."""
        tensor = np.asarray(tensor, dtype=np.int8)
        expected = (self.n_replications, self.n_population, STRATEGY_LENGTH)
        if tensor.shape != expected:
            raise ValueError(
                f"strategy tensor must have shape {expected},"
                f" got {tensor.shape}"
            )
        if not (((tensor == 0) | (tensor == 1)).all()):
            raise ValueError("strategy tensor entries must be 0/1 bits")
        self._strategy_tensor = tensor.copy()
        # keep the scalar introspection view (strategy_matrix) meaningful:
        # it shows replication 0
        self._strategies = [
            tuple(int(b) for b in row) for row in tensor[0]
        ]
        self._rebuild_strategy_table()

    def fitness_tensor(self) -> np.ndarray:
        """Eq. (1) fitness as ``(R, n_population)`` — row ``r`` is exactly
        what a sequential engine running replication ``r`` reports."""
        shape = (self.n_replications, self.block)
        pop = slice(0, self.n_population)
        events = (self.n_sent + self.n_fwd + self.n_disc).reshape(shape)[:, pop]
        totals = (self.send_pay + self.fwd_pay_acc + self.disc_pay_acc).reshape(
            shape
        )[:, pop]
        out = np.zeros((self.n_replications, self.n_population), dtype=np.float64)
        np.divide(totals, events, out=out, where=events > 0)
        return out

    # -- generation entry points ----------------------------------------------

    def run_generation(
        self,
        seatings: Sequence[Sequence[int]],
        rounds: int,
        oracle: PathOracle,
        stats: TournamentStats,
        exchange: ExchangeConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Run every seating's tournament as one fused stacked pass: the
        one-member :meth:`run_stack`."""
        self.run_stack([seatings], rounds, [oracle], [stats], exchange, [rng])

    def run_stack(
        self,
        seatings: Sequence[Sequence[Sequence[int]]],
        rounds: int,
        oracles: Sequence[PathOracle],
        stats: Sequence[TournamentStats],
        exchange: ExchangeConfig | None = None,
        rngs: Sequence[np.random.Generator | None] = (None,),
    ) -> None:
        """Run one environment's generation for every stack member.

        Member ``r`` brings its seatings (all the same size; the scheduler
        guarantees this within one environment), its oracle and
        ``stats[r]``, which receives the merged counters of its
        tournaments — identical bookkeeping to merging per-tournament stats,
        since the accumulators are pure sums.  Each member's plan is drawn
        from its own oracle under :meth:`route_sharing`; the plans are
        stacked into one mega-slate for :meth:`run_generation_stacked`.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        seatings = [[list(s) for s in member] for member in seatings]
        if not all(seatings):
            raise ValueError("need at least one seating")
        n_seats = len(seatings[0][0])
        if any(len(s) != n_seats for member in seatings for s in member):
            raise ValueError(
                "all seatings of one fused generation must be the same size"
            )
        tel = get_telemetry()
        if not tel.enabled:
            tel = None
        if exchange is not None and exchange.enabled:
            # gossip interleaves with each tournament's round stream; that
            # ordering cannot be fused away, so fall back to the inherited
            # per-tournament turbo path (bit-identical to driving turbo
            # from the sequential generation loop) — one member only
            (member,), (oracle,), (rng,) = seatings, oracles, rngs
            if rng is None:
                raise ValueError("reputation exchange requires an rng")
            hook = getattr(oracle, "on_tournament_end", None)
            if tel is not None:
                tel.count("engine.fused.fallback_tournaments", len(member))
            for seating in member:
                self.run_tournament(seating, rounds, oracle, stats[0], exchange, rng)
                if hook is not None:
                    hook()
            return
        plans = []
        for member, oracle in zip(seatings, oracles):
            hook = getattr(oracle, "on_tournament_end", None)
            with self.route_sharing(oracle), timed(tel, "engine.plan_s"):
                plans.append(
                    plan_generation_arrays(oracle, member, rounds, on_tournament_end=hook)
                )
        self.run_generation_stacked(
            stack_replication_plans(plans, rounds, self.block),
            rounds,
            len(seatings[0]),
            n_seats,
            stats,
        )

    def run_generation_stacked(
        self,
        plan: GamePlanArrays,
        rounds: int,
        n_tournaments: int,
        n_seats: int,
        stats: Sequence[TournamentStats],
    ) -> None:
        """Run one environment's generation for all ``R`` replications.

        ``plan`` is round-major: one replication's plan from
        :func:`repro.paths.vector.plan_generation_arrays`, or the mega-slate
        :func:`repro.paths.vector.stack_replication_plans` builds from one
        such plan per replication (each ``T = n_tournaments`` tournaments
        of ``n_seats`` seats); ``stats[r]`` receives replication ``r``'s
        merged counters.  Route sharing and plan drawing stay with the
        caller — each replication plans against its *own* oracle and rng
        stream.
        """
        n_rep = self.n_replications
        if len(stats) != n_rep:
            raise ValueError(
                f"need one stats object per replication:"
                f" {n_rep} replications, {len(stats)} stats"
            )
        slate = n_rep * n_tournaments * n_seats
        if plan.n_games != rounds * slate:
            raise ValueError(
                f"stacked plan has {plan.n_games} games, expected"
                f" {rounds} rounds x {slate} (= {n_rep} reps x"
                f" {n_tournaments} tournaments x {n_seats} seats)"
            )
        tel = get_telemetry()
        if not tel.enabled:
            tel = None
        ctx = _PlanContext(
            plan, self._csn_lookup, n_rep, n_tournaments, n_seats, self.block
        )
        req, delivered, csn_free = self._run_rounds(ctx, rounds, tel)
        if tel is not None:
            # one per replication per environment pass, so totals line up
            # with what R sequential runs record
            tel.count("engine.fused.env_passes", n_rep)
            tel.count("engine.fused.stacked_tournaments", n_rep * n_tournaments)
            tel.count("engine.fused.games", rounds * slate)
            tel.count(
                "engine.fused.second_chance_games", self._second_chance_games
            )
        for r in range(n_rep):
            self._merge_stats(stats[r], req[r], delivered[r], csn_free[r])

    # -- generation-scoped route sharing ----------------------------------------

    @staticmethod
    @contextmanager
    def route_sharing(oracle: PathOracle):
        """Draw plans inside this block under generation-scoped route
        sharing on a dynamic provider.

        While the stacked plan is drawn, the mobile oracle's route cache
        serves entries *across* the generation's topology epochs under
        zero-budget lazy revalidation: every served route is edge-checked
        against the current graph (so it always exists right now), and a
        full route search runs only for pairs whose cached routes all
        broke.  That trades "exactly the K shortest of this epoch" for
        "current-consistent routes computed earlier this generation" — a
        relaxation of route *preference*, not existence, in the same class
        as the approx cache policy the statistical tier already gates on
        mobile scenarios.  The oracle's own policy is back in place on
        exit, also when planning raises.  A no-op for oracles without a
        swappable dynamic provider (random and static topology oracles)
        and for approx providers, which already share more aggressively
        than the generation scope would.
        """
        provider = getattr(oracle, "provider", None)
        set_policy = getattr(provider, "set_policy", None)
        if set_policy is None or provider.policy.budget > 0:
            yield
            return
        previous = provider.policy
        set_policy(ApproxPolicy(0), revalidate=True)
        try:
            yield
        finally:
            set_policy(previous)

    # -- conflict resolution --------------------------------------------------

    def _resolve_conflicts(
        self, ctx: _PlanContext, g0: int, rel_ids: np.ndarray, counters: list
    ) -> None:
        """Below ~10 games the second-chance sub-pass's fixed dispatch cost
        exceeds the scalar kernel; replay those directly.  The cutoff is
        part of each replication's trajectory, so it is evaluated on each
        replication's own conflict count; the over-threshold replications
        share one merged second-chance pass (block-diagonal state keeps the
        merge exact — no replication can observe another's writes)."""
        reps = rel_ids // ctx.rep_slate
        small = np.bincount(reps, minlength=ctx.n_replications)[reps] < 10
        if small.any():
            self._replay_ids(ctx, g0 + rel_ids[small], counters)
        if not small.all():
            self._second_chance(ctx, g0, rel_ids[~small], counters)

    def _second_chance(
        self, ctx: _PlanContext, g0: int, rel_ids: np.ndarray, counters: list
    ) -> None:
        """Re-speculate the slate's conflicted games against live state.

        Turbo replays every conflicted game through the scalar kernel; on a
        wide slate that serial tail dominates the round.  This pass applies
        the *same* speculate-commit-walk discipline to just the conflicted
        subset: their ratings and decisions are recomputed against the
        post-commit matrices, the per-tournament conflict walk reruns among
        the subset's own writes, and only games that conflict *again*
        (an earlier conflicted game of the same tournament wrote one of
        their read pairs — rare, since conflicts are already sparse) fall
        back to the scalar kernel.  No new relaxation class: it is the
        slate speculation applied iteratively, and accepted games re-enter
        the buffered fold exactly like first-pass games.
        """
        m = ctx.m
        plan = ctx.plan
        ks = self._ks
        kern = self._k
        g = g0 + rel_ids  # absolute game ids, ascending = replay order
        n_sub = len(g)

        # candidate-path rows of the subset (each game's rows are contiguous
        # at game_path_start[g], column-ordered)
        starts = plan.game_path_start[g]
        counts = plan.game_path_start[g + 1] - starts
        total = int(counts.sum())
        offs = np.cumsum(counts) - counts
        prow = np.repeat(starts, counts) + (
            np.arange(total) - np.repeat(offs, counts)
        )

        # -- ratings + best path, against the live matrices ------------------
        hmax_r = int(plan.path_len[prow].max()) if total else 1
        ratings = kern.rate_paths(
            ks, ctx.cells_rate[prow, :hmax_r], ctx.pad_path[prow, :hmax_r]
        )
        buf = ctx.ratings_buf[:n_sub]
        buf.fill(-1.0)
        buf[np.repeat(np.arange(n_sub), counts), plan.path_col[prow]] = ratings
        chosen = starts + buf.argmax(axis=1)

        # -- decisions, mirroring the slate pass on the subset ---------------
        hmax = int(plan.path_len[chosen].max())
        valid = ctx.valid[chosen, :hmax]
        jc = ctx.jc[chosen, :hmax]
        src_g = plan.src[g]
        cells_dec = jc * m
        cells_dec += src_g[:, None]
        trust = np.empty((n_sub, hmax), dtype=np.int64)
        unknown = np.empty((n_sub, hmax), dtype=bool)
        fwd = np.empty((n_sub, hmax), dtype=bool)
        decided = np.empty((n_sub, hmax), dtype=bool)
        success = np.empty(n_sub, dtype=bool)
        n_dec = kern.decide(
            ks, jc, valid, cells_dec, trust, unknown, fwd, decided, success
        )

        # -- conflict walk among the subset's own writes, per tournament, --
        # then commit and re-buffer the accepted games
        keep2 = self._commit_unconflicted(
            ctx, rel_ids, src_g, jc, decided, fwd, success, n_dec
        )
        if keep2.any():
            ga = g[keep2]
            # full-row reset first: the re-chosen path's hmax may be
            # narrower than the first pass wrote
            ctx.decided_b[ga] = False
            ctx.fwd_b[ga] = False
            ctx.unknown_b[ga] = False
            ctx.trust_b[ga] = 0
            ctx.decided_b[ga, :hmax] = decided[keep2]
            ctx.fwd_b[ga, :hmax] = fwd[keep2]
            ctx.unknown_b[ga, :hmax] = unknown[keep2]
            ctx.trust_b[ga, :hmax] = trust[keep2]
            ctx.chosen_b[ga] = chosen[keep2]
            ctx.success_b[ga] = success[keep2]
            ctx.keep_b[ga] = True
            self._second_chance_games += int(keep2.sum())

        # -- scalar tail: games that conflicted twice ------------------------
        if not keep2.all():
            self._replay_ids(ctx, g[~keep2], counters)
