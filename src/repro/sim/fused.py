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
stream, which fusion cannot reorder away — ``run_generation`` falls back to
the per-tournament turbo path when the exchange is enabled (bit-identical
to driving turbo from the sequential generation loop).  ``run_tournament``
is inherited unchanged, so outside the fused entry point the engine *is*
turbo.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.game.stats import TournamentStats
from repro.network.provider import ApproxPolicy
from repro.paths.oracle import PathOracle
from repro.paths.vector import GamePlanArrays, plan_generation_arrays
from repro.reputation.exchange import ExchangeConfig
from repro.sim.kernels import TimedKernel
from repro.sim.turbo import TurboEngine, _PlanContext
from repro.telemetry.runtime import get_telemetry

__all__ = ["FusedEngine"]


class _FusedContext(_PlanContext):
    """A :class:`_PlanContext` over a stacked generation plan.

    ``games_per_round`` *is* the slate width (``T * n``), so every
    inherited precomputation (relative path rows, source order, fold
    buffers) works verbatim; the conflict-walk scoping slots are filled so
    the inherited round pass scopes per tournament: ``pair_off[g]`` shifts
    game ``g``'s pair codes into its tournament's private ``m * m`` block
    and ``walk_pos[g]`` is its seat position within that tournament (the
    "earlier game" order of turbo's conflict walk, now per tournament).
    """

    __slots__ = ("n_seats", "n_tournaments")

    def __init__(
        self,
        plan: GamePlanArrays,
        slate: int,
        m: int,
        csn_lookup: np.ndarray,
        n_tournaments: int,
        n_seats: int,
    ):
        # read by the _scope_walk hook the base constructor calls
        self.n_tournaments = n_tournaments
        self.n_seats = n_seats
        super().__init__(plan, slate, m, csn_lookup)

    def _scope_walk(self) -> None:
        m = self.m
        self.pair_off = np.repeat(
            np.arange(self.n_tournaments, dtype=np.int64) * (m * m),
            self.n_seats,
        )
        self.walk_pos = np.tile(
            np.arange(self.n_seats, dtype=np.int64), self.n_tournaments
        )
        # one private pair-code block per tournament (+1 spill slot, as in
        # the base context)
        self._alloc_writer(self.n_tournaments * m * m + 1, self.n_seats)


class FusedEngine(TurboEngine):
    """Turbo's speculative slate kernel, widened to a whole generation."""

    name = "fused"
    #: :func:`repro.tournament.evaluation.evaluate_generation` dispatches
    #: on this flag to hand the engine all of an environment's seatings at
    #: once instead of one tournament at a time.
    supports_generation_fusion = True

    def run_generation(
        self,
        seatings: Sequence[Sequence[int]],
        rounds: int,
        oracle: PathOracle,
        stats: TournamentStats,
        exchange: ExchangeConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Run every seating's tournament as one fused stacked pass.

        All seatings must be the same size (the scheduler guarantees this
        within one environment).  ``stats`` receives the merged counters of
        the whole stack — identical bookkeeping to merging per-tournament
        stats, since the accumulators are pure sums.
        """
        do_exchange = exchange is not None and exchange.enabled
        if do_exchange and rng is None:
            raise ValueError("reputation exchange requires an rng")
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        seatings = [list(s) for s in seatings]
        if not seatings:
            raise ValueError("need at least one seating")
        n_seats = len(seatings[0])
        if any(len(s) != n_seats for s in seatings):
            raise ValueError(
                "all seatings of one fused generation must be the same size"
            )
        hook = getattr(oracle, "on_tournament_end", None)
        tel = get_telemetry()
        if not tel.enabled:
            tel = None
        if do_exchange:
            # gossip interleaves with each tournament's round stream; that
            # ordering cannot be fused away, so fall back to the inherited
            # per-tournament turbo path (bit-identical to driving turbo
            # from the sequential generation loop)
            if tel is not None:
                tel.count("engine.fused.fallback_tournaments", len(seatings))
            for seating in seatings:
                self.run_tournament(seating, rounds, oracle, stats, exchange, rng)
                if hook is not None:
                    hook()
            return

        n_tournaments = len(seatings)
        slate = n_tournaments * n_seats
        share = self._share_route_tables(oracle)
        try:
            if tel is None:
                plan = plan_generation_arrays(
                    oracle, seatings, rounds, on_tournament_end=hook
                )
            else:
                with tel.registry.timer("engine.plan_s").time():
                    plan = plan_generation_arrays(
                        oracle, seatings, rounds, on_tournament_end=hook
                    )
        finally:
            self._restore_route_policy(oracle, share)
        ctx = _FusedContext(
            plan, slate, self.m, self._csn_lookup, n_tournaments, n_seats
        )
        self._ks = self._kernel_state()
        self._k = (
            self._kernel if tel is None else TimedKernel(self._kernel, tel.registry)
        )
        req = np.zeros(9, dtype=np.int64)
        delivered = np.zeros(4, dtype=np.int64)
        csn_free = np.zeros(4, dtype=np.int64)
        self._replayed_games = 0
        self._second_chance_games = 0

        for round_no in range(rounds):
            round_span = tel.span("round") if tel is not None else None
            if round_span is not None:
                round_span.__enter__()
            self._process_round(ctx, round_no, req, delivered, csn_free)
            if round_span is not None:
                round_span.__exit__(None, None, None)

        if tel is None:
            self._fold_tournament(ctx, req, delivered, csn_free)
        else:
            with tel.registry.timer("engine.fold_s").time():
                self._fold_tournament(ctx, req, delivered, csn_free)
            tel.count("engine.tournaments", n_tournaments)
            tel.count("engine.rounds", rounds * n_tournaments)
            tel.count("engine.games", rounds * slate)
            tel.count("engine.turbo.replayed_games", self._replayed_games)
            tel.count("engine.fused.generations")
            tel.count("engine.fused.stacked_tournaments", n_tournaments)
            tel.count("engine.fused.games", rounds * slate)
            tel.count(
                "engine.fused.second_chance_games", self._second_chance_games
            )

        self._merge_stats(stats, req, delivered, csn_free)

    @staticmethod
    def _share_route_tables(oracle: PathOracle):
        """Enable generation-scoped route sharing on a dynamic provider.

        While the stacked plan is drawn, the mobile oracle's route cache
        serves entries *across* the generation's topology epochs under
        zero-budget lazy revalidation: every served route is edge-checked
        against the current graph (so it always exists right now), and a
        full route search runs only for pairs whose cached routes all
        broke.  That trades "exactly the K shortest of this epoch" for
        "current-consistent routes computed earlier this generation" — a
        relaxation of route *preference*, not existence, in the same class
        as the approx cache policy the statistical tier already gates on
        mobile scenarios.  Returns the policy to restore, or ``None`` when
        the oracle has no swappable dynamic provider (random and static
        topology oracles).
        """
        provider = getattr(oracle, "provider", None)
        set_policy = getattr(provider, "set_policy", None)
        if set_policy is None:
            return None
        previous = provider.policy
        if previous.budget > 0:
            # an approx provider already shares more aggressively than the
            # generation scope would; leave it alone
            return None
        set_policy(ApproxPolicy(0), revalidate=True)
        return previous

    @staticmethod
    def _restore_route_policy(oracle: PathOracle, previous) -> None:
        """Undo :meth:`_share_route_tables` (no-op for ``None``)."""
        if previous is not None:
            oracle.provider.set_policy(previous)

    def _resolve_conflicts(
        self,
        ctx: _FusedContext,
        g0: int,
        rel_ids: np.ndarray,
        req: np.ndarray,
        delivered: np.ndarray,
        csn_free: np.ndarray,
    ) -> None:
        """Below ~10 games the second-chance sub-pass's fixed dispatch cost
        exceeds the scalar kernel; replay those directly."""
        if len(rel_ids) < 10:
            self._replay_ids(ctx, g0 + rel_ids, req, delivered, csn_free)
        else:
            self._second_chance(ctx, g0, rel_ids, req, delivered, csn_free)

    def _second_chance(
        self,
        ctx: _FusedContext,
        g0: int,
        rel_ids: np.ndarray,
        req: np.ndarray,
        delivered: np.ndarray,
        csn_free: np.ndarray,
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

        # -- conflict walk among the subset's own writes, per tournament -----
        upd_ok = decided & (
            success[:, None] | (ctx.hrange[:hmax] < (n_dec - 1)[:, None])
        )
        jc32 = jc.astype(np.int32)
        obs = np.empty((n_sub, hmax + 1), dtype=np.int32)
        obs[:, 0] = src_g
        np.copyto(obs[:, 1:], jc32)
        np.copyto(obs[:, 1:], np.int32(m), where=~upd_ok)
        subj = np.where(decided, jc32, np.int32(m * m))
        pair = obs[:, :, None] * np.int32(m) + subj[:, None, :]
        if ctx.diag_only:
            pair.reshape(n_sub, -1)[:, hmax :: hmax + 1] = m * m
        else:
            pair[obs[:, :, None] == subj[:, None, :]] = m * m
        pair2 = pair.reshape(n_sub, -1)
        w_ok = pair2 < m * m
        w_counts = w_ok.sum(axis=1)
        w_vals = pair2[w_ok]
        pair_off = ctx.pair_off[rel_ids]
        pos = ctx.walk_pos[rel_ids]
        # offsets applied to the compressed per-pair vectors, as in the
        # slate pass — same scoped codes, no full-grid temporaries
        w_scoped = ctx.scope(w_vals, np.repeat(pair_off, w_counts))
        read_off = np.repeat(pair_off, n_dec)
        r1 = ctx.scope(cells_dec[decided], read_off)
        r2 = ctx.scope((src_g[:, None] * m + jc)[decided], read_off)
        conflict_read = ctx.walk_conflicts(
            kern, w_scoped, np.repeat(pos, w_counts), r1, r2,
            np.repeat(pos, n_dec),
        )
        keep2 = np.ones(n_sub, dtype=bool)
        keep2[np.repeat(np.arange(n_sub), n_dec)[conflict_read]] = False

        # -- commit and re-buffer the accepted games -------------------------
        if keep2.any():
            k_pairs = keep2.repeat(w_counts)
            pairs = w_vals[k_pairs]
            w_fwd = np.broadcast_to(
                fwd[:, None, :], pair.shape
            ).reshape(n_sub, -1)[w_ok]
            kern.commit(ks, pairs, pairs[w_fwd[k_pairs]])
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
            self._replay_ids(ctx, g[~keep2], req, delivered, csn_free)
