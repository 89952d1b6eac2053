"""Speculative round-vectorized "turbo" simulation engine.

The fourth engine, and the first to relax the equivalence contract: turbo is
**statistically equivalent** to the reference trajectory distribution, not
bit-identical to any single trajectory.  The relaxation buys back the two
costs that bound the bit-identical engines:

* **Game setups** are drawn for the whole tournament in a handful of numpy
  operations (:func:`repro.paths.vector.plan_tournament_arrays`) instead of
  per-game RNG calls — distributionally identical to the sequential sampler,
  but consuming the generator in a different order, so trajectories diverge.
* **The game loop** is vectorized per round.  The bit-identical engines must
  play a round's games sequentially because game ``g``'s watchdog updates
  feed game ``g + 1``'s path ratings and forwarding decisions.  Turbo instead
  *speculates*: every game of a round is decided in one vectorized pass from
  the round-start reputation matrices, then a **conflict pass** walks the
  round in game order and flags games whose decision-relevant reputation
  pairs — ``(intermediate, source)`` and ``(source, intermediate)`` for the
  speculatively chosen path — were written by an earlier game of the same
  round.  Non-conflicting games commit their speculative outcome in one
  batched scatter; conflicting games are **replayed** through the exact
  per-game scalar kernel against the live matrices.

What the speculation changes, precisely
---------------------------------------
A non-conflicting game's decision inputs are untouched by the round's earlier
writes, so its speculative decisions equal the sequential ones *except* for
three tolerated staleness/ordering effects, which are the entire statistical
relaxation:

* activity averages (``pf_sum / known``) are aggregates over a whole observer
  row; they may lag intra-round writes that the pair-granular conflict pass
  does not track,
* ratings of *non-chosen* candidate paths may be stale (only the chosen
  path's pairs are checked), which can flip near-tie path choices,
* batched commits land before the round's replays, a reordering of writes
  within the round,
* the conflict pass records each game's *speculative* write pairs — a
  replayed game's actual writes (it may choose a different path against
  live state) are not re-checked against later games of the round, so a
  later game can consume a pair a replay touched without itself replaying.

All four perturb *which* of two near-equivalent micro-outcomes occurs, never
the distributions the paper reports (cooperation level, fitness, Tables 5-9
aggregates).  ``tests/test_engine_statistical.py`` holds turbo to that claim
with two-sample KS / Mann-Whitney gates against a bit-identical engine over
seeded replication ensembles, and ``tests/test_properties_simulation.py`` /
``tests/test_sim_turbo.py`` pin the invariants that must stay *exact*
(counter consistency, conservation, ``pf <= ps``).

Implementation shape
--------------------
Per-op numpy dispatch dominates at round granularity (a table-5 round is 50
games), so the engine splits work by *when its inputs bind*:

* bound at plan time — decision/rating gather indices, CSN masks, strategy
  row bases — is precomputed once per tournament (:class:`_PlanContext`);
* bound at round start — reputation-dependent ratings, decisions, watchdog
  writes — runs in the per-round vectorized pass;
* bound at nothing (payoff accumulators, statistics counters: dead state
  until the tournament ends) is buffered per round and folded in one
  vectorized pass per tournament.

The plan context, round loop, replay and fold are shared with the fused
engine (:mod:`repro.sim.fused`), whose slates stack tournaments and
replications; a turbo tournament is the one-replication, one-tournament
slate.

Like every engine, turbo supports all path oracles and the second-hand
exchange; non-random oracles (topology, mobile, scripted) are planned through
the sequential :func:`plan_games` path and only the game loop is speculated.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Sequence

import numpy as np

from repro.core.payoff import PayoffConfig
from repro.core.strategy import STRATEGY_LENGTH, Strategy
from repro.game.stats import TournamentStats
from repro.paths.oracle import PathOracle
from repro.paths.vector import GamePlanArrays, plan_tournament_arrays
from repro.reputation.activity import ActivityClassifier
from repro.reputation.exchange import ExchangeConfig, exchange_reputation_flat
from repro.reputation.trust import TrustTable
from repro.sim.kernels import KernelState, TimedKernel
from repro.sim.kernels.numpy_backend import NumpyKernel
from repro.telemetry.runtime import get_telemetry

__all__ = ["TurboEngine"]


def timed(tel, name: str):
    """The ``name`` timer of an enabled recorder, else a no-op context."""
    return tel.registry.timer(name).time() if tel is not None else nullcontext()


class _PlanContext:
    """Everything about a plan that does not depend on reputation state,
    precomputed once so the per-round pass is pure gathers and ufuncs.

    One context serves every round pass: ``n_replications`` stacked
    replications (each a ``block``-order diagonal block of the reputation
    matrices) of ``n_tournaments`` tournaments of ``n_seats`` seats, laid
    out round-major — a round's slate is ``R * T * n`` games.  Turbo is the
    ``(1, 1, n, m)`` case and fused the ``(1, T, n, m)`` one.

    The conflict walk is scoped per (replication, tournament):
    ``pair_off[g]`` moves game ``g``'s pair codes into its tournament's
    private ``block^2`` window of ``writer_buf`` (via :meth:`scope`) and
    ``walk_pos[g]`` is its seat, the "earlier game" order of the walk.
    """

    __slots__ = (
        "plan",
        "games_per_round",
        "m",
        "n_replications",
        "n_tournaments",
        "rep_slate",
        "block",
        "pg_rel",
        "cells_rate",
        "pad_path",
        "jc",
        "valid",
        "is_csn",
        "has_csn",
        "src_sel",
        "src_round",
        "src_round_m",
        "src_list",
        "diag_only",
        "hrange",
        "grange",
        "pair_off",
        "walk_pos",
        "walk_fill",
        "writer_buf",
        "ratings_buf",
        "obs_buf",
        "decided_b",
        "fwd_b",
        "unknown_b",
        "trust_b",
        "chosen_b",
        "success_b",
        "keep_b",
    )

    def __init__(
        self,
        plan: GamePlanArrays,
        csn_lookup: np.ndarray,
        n_replications: int,
        n_tournaments: int,
        n_seats: int,
        block: int,
    ):
        self.plan = plan
        self.n_replications = n_replications
        self.n_tournaments = n_tournaments
        self.rep_slate = n_tournaments * n_seats
        self.block = block
        games_per_round = n_replications * self.rep_slate
        self.games_per_round = games_per_round
        m = n_replications * block
        self.m = m
        src_of_path = plan.src[plan.path_game]
        nodes = plan.path_nodes
        valid = nodes >= 0
        self.pad_path = ~valid
        node0 = np.where(valid, nodes, 0)
        # rating reads: the source's opinion of each candidate-path node
        self.cells_rate = src_of_path[:, None] * m + node0
        # the game's path rows, relative to its round (for the ratings
        # scatter; games per round is constant, so a modulo does it)
        self.pg_rel = plan.path_game % games_per_round
        # decision reads: each node's opinion of the source.  The per-cell
        # index and strategy-base tables ((j * m + src), (j * STRATEGY_LEN))
        # are *not* precomputed per path row — only the chosen path's row is
        # ever read, so the round pass derives them from its (games, hmax)
        # gather of ``jc``, which is cheaper than materialising (P, H).
        self.jc = node0
        self.valid = valid
        # padding resolves to node 0, which is always a normal node, so the
        # lookup needs no valid-mask
        self.is_csn = csn_lookup[node0]
        self.has_csn = self.is_csn.any(axis=1)
        self.src_sel = csn_lookup[plan.src]
        # every round's source order is the participants list, so the
        # round-constant pieces are hoisted once
        src_round = plan.src[:games_per_round]
        self.src_round = src_round
        self.src_round_m = src_round * m
        self.src_list = plan.src.tolist()
        # sampler-built plans guarantee distinct intermediates excluding the
        # source, so the only possible (observer == subject) cell in the
        # conflict pair grid is the (writer i+1, subject i) diagonal — a
        # strided assignment instead of a full-grid equality mask.  Scripted
        # plans make no such promise and keep the mask.
        self.diag_only = plan.distinct_nodes
        n_games = plan.n_games
        h = nodes.shape[1]
        self.hrange = np.arange(h)
        self.grange = np.arange(games_per_round, dtype=np.int64)
        # conflict-walk scope: tournament t_global = rep * T + t owns the
        # window [t_global * block^2, (t_global + 1) * block^2); a global
        # code obs * m + subj with obs = rep * block + o, subj = rep * block
        # + s lands at o * block + s + pair_off once pair_off absorbs both
        # rep * block terms (see scope)
        total_t = n_replications * n_tournaments
        t_global = np.repeat(np.arange(total_t, dtype=np.int64), n_seats)
        rep = np.repeat(
            np.arange(n_replications, dtype=np.int64), self.rep_slate
        )
        self.pair_off = t_global * (block * block) - rep * block * (block + 1)
        self.walk_pos = np.tile(np.arange(n_seats, dtype=np.int64), total_t)
        # filled once: every walk resets just the codes it wrote (the
        # +1 slot spills the out-of-range sentinel codes)
        self.walk_fill = n_seats
        self.writer_buf = np.full(
            total_t * block * block + 1, n_seats, dtype=np.int64
        )
        self.ratings_buf = np.empty(
            (games_per_round, max(plan.max_paths, 1)), dtype=np.float64
        )
        # the pair grid runs in int32 (codes stay < 2 m^2 << 2^31), halving
        # the memory traffic of the widest per-round intermediate
        self.obs_buf = np.empty((games_per_round, h + 1), dtype=np.int32)
        self.obs_buf[:, 0] = src_round
        # per-game speculative outcomes, buffered for the end-of-plan
        # fold; the round pass computes straight into slices of these
        self.decided_b = np.zeros((n_games, h), dtype=bool)
        self.fwd_b = np.zeros((n_games, h), dtype=bool)
        self.unknown_b = np.zeros((n_games, h), dtype=bool)
        self.trust_b = np.zeros((n_games, h), dtype=np.int64)
        self.chosen_b = np.zeros(n_games, dtype=np.int64)
        self.success_b = np.zeros(n_games, dtype=bool)
        self.keep_b = np.ones(n_games, dtype=bool)

    def scope(self, vals: np.ndarray, off: np.ndarray) -> np.ndarray:
        """Map global pair codes into the scoped writer-buffer space.  With
        one replication ``m == block`` and the projection is the identity,
        so only the offset is added."""
        if self.n_replications > 1:
            vals = (vals // self.m) * self.block + (vals % self.m)
        return vals + off

    def conflicted(self, kern, w_vals, w_counts, r1, r2, n_dec, rows=None):
        """The conflict walk over a set of slate games (``rows``, ascending
        slate positions; all of them by default): per game, whether one of
        its read pairs ``r1``/``r2`` (``n_dec`` per game) was first written
        (``w_vals``, ``w_counts`` per game) by a strictly earlier game of
        its scope.  Every game's writes count, kept or not — exactly the
        sequential walk's written-set.  Resets just the codes it wrote, so
        the buffer holds ``walk_fill`` everywhere between walks and a walk
        costs O(writes + reads), however wide the pair space."""
        off = self.pair_off if rows is None else self.pair_off[rows]
        pos = self.walk_pos if rows is None else self.walk_pos[rows]
        buf = self.writer_buf
        w_codes = self.scope(w_vals, np.repeat(off, w_counts))
        kern.first_writer(buf, w_codes, np.repeat(pos, w_counts))
        read_off = np.repeat(off, n_dec)
        pos_read = np.repeat(pos, n_dec)
        conflict = buf[self.scope(r1, read_off)] < pos_read
        conflict |= buf[self.scope(r2, read_off)] < pos_read
        buf[w_codes] = self.walk_fill
        hit = np.zeros(len(n_dec), dtype=bool)
        hit[np.repeat(np.arange(len(n_dec)), n_dec)[conflict]] = True
        return hit


class TurboEngine:
    """Round-vectorized speculative implementation of the tournament
    semantics (statistical-equivalence contract)."""

    name = "turbo"

    def __init__(
        self,
        n_population: int,
        max_selfish: int,
        trust_table: TrustTable | None = None,
        activity: ActivityClassifier | None = None,
        payoffs: PayoffConfig | None = None,
    ):
        if n_population < 1:
            raise ValueError(f"population must be >= 1, got {n_population}")
        if max_selfish < 0:
            raise ValueError(f"max_selfish must be >= 0, got {max_selfish}")
        self.n_population = n_population
        self.max_selfish = max_selfish
        self.trust_table = trust_table or TrustTable()
        self.activity = activity or ActivityClassifier()
        self.payoffs = payoffs or PayoffConfig()
        if self.trust_table.n_levels != 4:
            raise ValueError("TurboEngine is specialised to 4 trust levels")
        self.m = self._matrix_order()
        self._kernel = NumpyKernel()
        self._k = self._kernel
        self._csn_lookup = self._build_csn_lookup()
        self._bounds = np.asarray(self.trust_table.bounds, dtype=np.float64)
        self._b0, self._b1, self._b2 = self.trust_table.bounds
        self._band = self.activity.band
        self._fwd_pay = np.asarray(self.payoffs.forward_by_trust, dtype=np.float64)
        self._disc_pay = np.asarray(self.payoffs.discard_by_trust, dtype=np.float64)
        self._default_trust = self.payoffs.default_trust
        self._src_success = self.payoffs.source_success
        self._src_failure = self.payoffs.source_failure
        self._strategies: list[tuple[int, ...]] = [
            (1,) * STRATEGY_LENGTH for _ in range(n_population)
        ]
        self._rebuild_strategy_table()
        #: games replayed through the exact kernel, and (fused only) games
        #: accepted by the second-chance pass, in the last round loop —
        #: instrumentation for tests and the perf bench
        self._replayed_games = 0
        self._second_chance_games = 0
        self._alloc()
        self._ks = self._kernel_state()

    def _matrix_order(self) -> int:
        """Side length of the reputation matrices (hook for stacking)."""
        return self.n_population + self.max_selfish

    def _build_csn_lookup(self) -> np.ndarray:
        """(m,) bool — which matrix ids are selfish seats (stacking hook)."""
        return np.arange(self.m) >= self.n_population

    def _rebuild_strategy_table(self) -> None:
        # (m * STRATEGY_LENGTH,) int8: population strategies then zeros, so
        # CSN gather rows read as "never forward" without masking
        table = np.zeros(self.m * STRATEGY_LENGTH, dtype=np.int8)
        flat = np.array(self._strategies, dtype=np.int8).reshape(-1)
        table[: flat.size] = flat
        self._strat_flat = table

    def _kernel_state(self) -> KernelState:
        """Bundle the live state views the kernel ops operate on.  Rebuilt
        at every entry point: ``_alloc`` and ``set_strategies`` replace the
        underlying arrays, and the bundle is a handful of references."""
        return KernelState(
            ps=self.ps,
            pf=self.pf,
            ps_flat=self.ps.reshape(-1),
            pf_flat=self.pf.reshape(-1),
            known=self.known,
            pf_sum=self.pf_sum,
            strat_flat=self._strat_flat,
            csn_lookup=self._csn_lookup,
            b0=self._b0,
            b1=self._b1,
            b2=self._b2,
            band=self._band,
            fwd_pay=self._fwd_pay,
            disc_pay=self._disc_pay,
            default_trust=self._default_trust,
            src_success=self._src_success,
            src_failure=self._src_failure,
            send_pay=self.send_pay,
            n_sent=self.n_sent,
            fwd_pay_acc=self.fwd_pay_acc,
            n_fwd=self.n_fwd,
            disc_pay_acc=self.disc_pay_acc,
            n_disc=self.n_disc,
        )

    def _alloc(self) -> None:
        m = self.m
        # canonical state: same layout as the batch engine, always numpy
        self.ps = np.zeros((m, m), dtype=np.int64)
        self.pf = np.zeros((m, m), dtype=np.int64)
        self.known = np.zeros(m, dtype=np.int64)
        self.pf_sum = np.zeros(m, dtype=np.int64)
        self.send_pay = np.zeros(m, dtype=np.float64)
        self.fwd_pay_acc = np.zeros(m, dtype=np.float64)
        self.disc_pay_acc = np.zeros(m, dtype=np.float64)
        self.n_sent = np.zeros(m, dtype=np.int64)
        self.n_fwd = np.zeros(m, dtype=np.int64)
        self.n_disc = np.zeros(m, dtype=np.int64)

    # -- SimulationEngine protocol ------------------------------------------

    @property
    def population_ids(self) -> Sequence[int]:
        return range(self.n_population)

    def selfish_ids(self, n: int) -> list[int]:
        if n > self.max_selfish:
            raise ValueError(
                f"environment needs {n} CSN, engine allocated {self.max_selfish}"
            )
        return [self.n_population + k for k in range(n)]

    def set_strategies(self, strategies: Sequence[Strategy]) -> None:
        if len(strategies) != self.n_population:
            raise ValueError(
                f"expected {self.n_population} strategies, got {len(strategies)}"
            )
        self._strategies = [tuple(s.bits) for s in strategies]
        self._rebuild_strategy_table()

    @property
    def strategy_matrix(self) -> np.ndarray:
        """The population's strategies as a ``(pop, STRATEGY_LENGTH)`` int8
        matrix — derived from the kernel's bit tuples, so the two can never
        drift apart."""
        return np.array(self._strategies, dtype=np.int8)

    def reset_generation(self) -> None:
        self._alloc()

    # -- tournament ---------------------------------------------------------

    def run_tournament(
        self,
        participants: Sequence[int],
        rounds: int,
        oracle: PathOracle,
        stats: TournamentStats,
        exchange: ExchangeConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        do_exchange = exchange is not None and exchange.enabled
        if do_exchange and rng is None:
            raise ValueError("reputation exchange requires an rng")
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        participants = list(participants)
        n_seats = len(participants)
        # telemetry seam: one enabled check per tournament; the speculative
        # round kernel below never touches the recorder (zero-overhead
        # contract)
        tel = get_telemetry()
        if not tel.enabled:
            tel = None
        # The whole tournament is pre-drawn even with the exchange enabled:
        # gossip draws then trail the oracle draws on a shared generator
        # instead of interleaving at round boundaries — a stream reordering
        # the statistical contract tolerates (the bit-identical engines must
        # plan per round here).
        with timed(tel, "engine.plan_s"):
            plan = plan_tournament_arrays(
                oracle, participants * rounds, participants
            )
            ctx = _PlanContext(plan, self._csn_lookup, 1, 1, n_seats, self.m)

        def gossip(round_no: int) -> None:
            if (round_no + 1) % exchange.interval == 0:
                with timed(tel, "engine.exchange_s"):
                    self._run_exchange(participants, exchange, rng)

        req, delivered, csn_free = self._run_rounds(
            ctx, rounds, tel, gossip if do_exchange else None
        )
        self._merge_stats(stats, req[0], delivered[0], csn_free[0])

    def _run_rounds(
        self,
        ctx: _PlanContext,
        rounds: int,
        tel,
        after_round: Callable[[int], None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The round loop over a planned slate, then the end-of-plan fold.

        Returns the statistics accumulators ``(req, delivered, csn_free)``
        with one ``(9,)``/``(4,)``/``(4,)`` row per replication of the
        context.  ``after_round(round_no)`` runs between rounds (turbo's
        gossip step).
        """
        self._ks = self._kernel_state()
        self._k = (
            self._kernel if tel is None else TimedKernel(self._kernel, tel.registry)
        )
        # replay contributions accumulate here; speculative outcomes are
        # folded vectorized at the end (dead state during the plan)
        n_rep = ctx.n_replications
        req = np.zeros((n_rep, 9), dtype=np.int64)
        delivered = np.zeros((n_rep, 4), dtype=np.int64)
        csn_free = np.zeros((n_rep, 4), dtype=np.int64)
        self._replayed_games = 0
        self._second_chance_games = 0

        for round_no in range(rounds):
            with tel.span("round") if tel is not None else nullcontext():
                self._process_round(ctx, round_no, req, delivered, csn_free)
            if after_round is not None:
                after_round(round_no)

        with timed(tel, "engine.fold_s"):
            self._fold_tournament(ctx, req, delivered, csn_free)
        if tel is not None:
            tournaments = n_rep * ctx.n_tournaments
            tel.count("engine.tournaments", tournaments)
            tel.count("engine.rounds", rounds * tournaments)
            tel.count("engine.games", rounds * ctx.games_per_round)
            tel.count("engine.turbo.replayed_games", self._replayed_games)
        return req, delivered, csn_free

    @staticmethod
    def _merge_stats(
        stats: TournamentStats,
        req: np.ndarray,
        delivered: np.ndarray,
        csn_free: np.ndarray,
    ) -> None:
        """Fold one replication's accumulator rows into a stats object."""
        stats.nn_originated += int(delivered[0] + delivered[1])
        stats.nn_delivered += int(delivered[1])
        stats.csn_originated += int(delivered[2] + delivered[3])
        stats.csn_delivered += int(delivered[3])
        stats.nn_paths_chosen += int(csn_free[0] + csn_free[1])
        stats.nn_csn_free_paths += int(csn_free[0])
        stats.csn_paths_chosen += int(csn_free[2] + csn_free[3])
        stats.csn_csn_free_paths += int(csn_free[2])
        from_nn, from_csn = stats.requests_from_nn, stats.requests_from_csn
        from_nn.rejected_by_nn += int(req[0])
        from_nn.accepted_by_nn += int(req[1])
        from_nn.rejected_by_csn += int(req[2])
        from_nn.accepted_by_csn += int(req[3])
        from_csn.rejected_by_nn += int(req[4])
        from_csn.accepted_by_nn += int(req[5])
        from_csn.rejected_by_csn += int(req[6])
        from_csn.accepted_by_csn += int(req[7])

    def _process_round(
        self,
        ctx: _PlanContext,
        round_no: int,
        req: np.ndarray,
        delivered: np.ndarray,
        csn_free: np.ndarray,
    ) -> None:
        m = ctx.m
        plan = ctx.plan
        ks = self._ks
        kern = self._k
        g0 = round_no * ctx.games_per_round
        g1 = g0 + ctx.games_per_round
        p0 = int(plan.game_path_start[g0])
        p1 = int(plan.game_path_start[g1])

        # -- speculative path ratings from round-start state ----------------
        # every pass below is sliced to the round's real maximum path width
        # (hmax columns) — the plan arrays are padded to the *tournament's*
        # longest path, which the route-table oracles can push to 2-3x the
        # typical game's, and the padding columns are pure dead work
        hmax_r = int(plan.path_len[p0:p1].max()) if p1 > p0 else 1
        ratings = kern.rate_paths(
            ks, ctx.cells_rate[p0:p1, :hmax_r], ctx.pad_path[p0:p1, :hmax_r]
        )

        # -- best path per game (first index wins ties, as the trio does) ---
        buf = ctx.ratings_buf
        buf.fill(-1.0)
        buf[ctx.pg_rel[p0:p1], plan.path_col[p0:p1]] = ratings
        chosen = ctx.chosen_b[g0:g1]
        np.add(plan.game_path_start[g0:g1], buf.argmax(axis=1), out=chosen)

        # -- speculative sequential decisions, vectorized over games --------
        # computed straight into the fold buffers where possible; the fold
        # buffers beyond this round's hmax stay zero-initialised, which
        # reads as "not decided / not forwarded" — exactly right
        hmax = int(plan.path_len[chosen].max())
        jc = ctx.jc[chosen, :hmax]
        cells_dec = jc * m
        cells_dec += ctx.src_round[:, None]
        n_dec = kern.decide(
            ks,
            jc,
            ctx.valid[chosen, :hmax],
            cells_dec,
            ctx.trust_b[g0:g1, :hmax],
            ctx.unknown_b[g0:g1, :hmax],
            ctx.fwd_b[g0:g1, :hmax],
            ctx.decided_b[g0:g1, :hmax],
            ctx.success_b[g0:g1],
        )

        # -- conflict walk, then one batched commit of the kept games -------
        keep = ctx.keep_b[g0:g1]
        keep[:] = self._commit_unconflicted(
            ctx,
            None,
            ctx.obs_buf[:, : hmax + 1],
            ctx.src_round_m,
            jc,
            cells_dec,
            ctx.decided_b[g0:g1, :hmax],
            ctx.fwd_b[g0:g1, :hmax],
            ctx.success_b[g0:g1],
            n_dec,
        )

        # -- resolve conflicting games against live state --------------------
        if not keep.all():
            self._resolve_conflicts(
                ctx, g0, np.flatnonzero(~keep), req, delivered, csn_free
            )

    def _commit_unconflicted(
        self, ctx, rows, obs, src_m, jc, cells_dec, decided, fwd, success, n_dec
    ) -> np.ndarray:
        """Walk speculated games for conflicts and commit the rest.

        The games are slate ``rows`` (all of the slate for ``None``) with
        chosen-path nodes ``jc`` and decisions ``decided``/``fwd``/
        ``success``; ``obs`` is an ``(n, hmax + 1)`` int32 buffer whose
        column 0 holds the sources, ``src_m`` the sources times ``m``.
        Returns the per-game keep mask: a game conflicts iff one of its read
        pairs was (speculatively) written by a strictly earlier game of its
        scope.  Only the kept games' watchdog writes are committed.
        """
        m = ctx.m
        n, hmax = jc.shape
        # watchdog write pairs (observer, subject) with out-of-range
        # sentinels: invalid entries land at >= m*m and are filtered out.
        # The observer sentinel is m (pair = m*m + subj >= m*m); the subject
        # sentinel must be m*m itself — a subject sentinel of m would fold
        # into the valid pair (obs + 1, 0).
        upd_ok = decided & (
            success[:, None] | (ctx.hrange[:hmax] < (n_dec - 1)[:, None])
        )
        jc32 = jc.astype(np.int32)
        np.copyto(obs[:, 1:], jc32)
        np.copyto(obs[:, 1:], np.int32(m), where=~upd_ok)
        subj = np.where(decided, jc32, np.int32(m * m))
        pair = obs[:, :, None] * np.int32(m) + subj[:, None, :]
        if ctx.diag_only:
            # observer == subject can only land on the (i+1, i) diagonal
            pair.reshape(n, -1)[:, hmax :: hmax + 1] = m * m
        else:
            pair[obs[:, :, None] == subj[:, None, :]] = m * m
        pair2 = pair.reshape(n, -1)
        w_ok = pair2 < m * m
        w_counts = w_ok.sum(axis=1)
        w_vals = pair2[w_ok]
        # decision reads (j, s) are exactly the decided cells; rating reads
        # (s, j) cover the decided prefix of the chosen path (staleness on
        # nodes past a drop only perturbs already-tolerated path ratings)
        r1 = cells_dec[decided]
        r2 = (src_m[:, None] + jc)[decided]
        keep = ~ctx.conflicted(self._k, w_vals, w_counts, r1, r2, n_dec, rows)
        k_pairs = keep.repeat(w_counts)
        pairs = w_vals[k_pairs]
        w_fwd = np.broadcast_to(fwd[:, None, :], pair.shape).reshape(n, -1)[w_ok]
        self._k.commit(self._ks, pairs, pairs[w_fwd[k_pairs]])
        return keep

    def _resolve_conflicts(
        self,
        ctx: _PlanContext,
        g0: int,
        rel_ids: np.ndarray,
        req: np.ndarray,
        delivered: np.ndarray,
        csn_free: np.ndarray,
    ) -> None:
        """Handle this round's conflicted games.  Turbo replays each through
        the exact scalar kernel; fused layers a vectorized second-chance
        pass in front (see the override)."""
        self._replay_ids(ctx, g0 + rel_ids, req, delivered, csn_free)

    def _replay_ids(
        self,
        ctx: _PlanContext,
        ids: np.ndarray,
        req: np.ndarray,
        delivered: np.ndarray,
        csn_free: np.ndarray,
    ) -> None:
        """Replay games (absolute plan indices, ascending) one at a time
        through the exact scalar kernel against the live matrices, routing
        the statistics counters to each game's replication row."""
        self._replayed_games += len(ids)
        plan = ctx.plan
        starts = plan.game_path_start
        slate = ctx.games_per_round
        rep_slate = ctx.rep_slate
        for g in ids.tolist():
            r = (g % slate) // rep_slate
            lo = int(starts[g])
            hi = int(starts[g + 1])
            source = ctx.src_list[g]
            deciders, flags, success = self._k.replay_decide(
                self._ks,
                source,
                plan.path_nodes[lo:hi],
                plan.path_len[lo:hi],
                req[r],
                delivered[r],
                csn_free[r],
            )
            self._k.watchdog(self._ks, source, deciders, flags, success)

    def _fold_tournament(
        self,
        ctx: _PlanContext,
        req: np.ndarray,
        delivered: np.ndarray,
        csn_free: np.ndarray,
    ) -> None:
        """Fold the buffered speculative outcomes of all kept games into the
        payoff accumulators and each replication's statistics counters
        (dead state during the plan, so one vectorized pass suffices)."""
        m = self.m
        n_rep = ctx.n_replications
        keep = ctx.keep_b
        chosen = ctx.chosen_b
        decided = ctx.decided_b
        fwd = ctx.fwd_b
        success = ctx.success_b
        src_sel = ctx.src_sel
        is_csn = ctx.is_csn[chosen]
        rounds = ctx.plan.n_games // ctx.games_per_round
        rep_of = np.tile(
            np.repeat(np.arange(n_rep, dtype=np.int64), ctx.rep_slate), rounds
        )

        delivered += np.bincount(
            (rep_of * 4 + src_sel * 2 + success)[keep], minlength=4 * n_rep
        ).reshape(n_rep, 4)
        csn_free += np.bincount(
            (rep_of * 4 + src_sel * 2 + ctx.has_csn[chosen])[keep],
            minlength=4 * n_rep,
        ).reshape(n_rep, 4)
        counts = np.bincount(
            np.where(
                decided & keep[:, None],
                (rep_of * 8 + src_sel * 4)[:, None] + is_csn * 2 + fwd,
                8 * n_rep,
            ).ravel(),
            minlength=8 * n_rep + 1,
        )
        req[:, :8] += counts[: 8 * n_rep].reshape(n_rep, 8)

        # per-node payoffs: the float accumulators fold in game order, so a
        # replication's sums match what it would accumulate alone
        ksrc = ctx.plan.src[keep]
        self.send_pay += np.bincount(
            ksrc,
            weights=np.where(success[keep], self._src_success, self._src_failure),
            minlength=m,
        )
        self.n_sent += np.bincount(ksrc, minlength=m)
        # intermediate payoffs: normal deciders only (CSN accumulators are
        # dead state, exactly as the batch engine skips them)
        pay = decided & ~is_csn & keep[:, None]
        jj = ctx.jc[chosen][pay]
        ff = fwd[pay]
        lvl = np.where(ctx.unknown_b, self._default_trust, ctx.trust_b)[pay]
        self.fwd_pay_acc += np.bincount(
            jj[ff], weights=self._fwd_pay[lvl[ff]], minlength=m
        )
        self.n_fwd += np.bincount(jj[ff], minlength=m)
        self.disc_pay_acc += np.bincount(
            jj[~ff], weights=self._disc_pay[lvl[~ff]], minlength=m
        )
        self.n_disc += np.bincount(jj[~ff], minlength=m)

    def _run_exchange(
        self,
        participants: Sequence[int],
        exchange: ExchangeConfig,
        rng: np.random.Generator,
    ) -> None:
        """One gossip step via the shared flat implementation; state is
        copied back in place so live views stay valid."""
        ps_l = self.ps.tolist()
        pf_l = self.pf.tolist()
        known_l = self.known.tolist()
        pf_sum_l = self.pf_sum.tolist()
        exchange_reputation_flat(
            ps_l, pf_l, known_l, pf_sum_l, participants, exchange, rng
        )
        self.ps[:] = ps_l
        self.pf[:] = pf_l
        self.known[:] = known_l
        self.pf_sum[:] = pf_sum_l

    # -- fitness and introspection ------------------------------------------

    def fitness(self) -> np.ndarray:
        """Eq. (1) fitness, vectorized — same expression order as the
        other engines."""
        pop = slice(0, self.n_population)
        events = self.n_sent[pop] + self.n_fwd[pop] + self.n_disc[pop]
        totals = self.send_pay[pop] + self.fwd_pay_acc[pop] + self.disc_pay_acc[pop]
        out = np.zeros(self.n_population, dtype=np.float64)
        np.divide(totals, events, out=out, where=events > 0)
        return out

    def payoff_matrix(self) -> np.ndarray:
        """Reputation state as ``(M, M, 2)`` — same layout as the other
        engines."""
        out = np.empty((self.m, self.m, 2), dtype=np.int64)
        out[:, :, 0] = self.ps
        out[:, :, 1] = self.pf
        return out
