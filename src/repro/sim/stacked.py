"""Cross-replication stacked evaluation engine.

The fused engine amortizes per-op numpy dispatch across one generation's
tournaments (``T * n`` games per slate); at the shipped scales that slate is
still only a few thousand games, so fixed dispatch cost remains visible.
This module widens the slate one more axis: **R independent replications**
of the same experiment evaluate as one mega-slate — stacked game
``round * (R * T * n) + rep * (T * n) + tournament * n + seat`` — against
block-diagonal reputation state, one ``(R * block)``-order matrix whose
``r``-th diagonal block is replication ``r``'s private state
(``block = n_population + max_selfish``).

Why this is *exact* (bit-identical per replication, not merely
statistically equivalent — pinned by ``tests/test_sim_stacked.py``):

* Replications are causally independent by construction: a replication is a
  pure function of ``(config, replication_index)`` with its own rng stream.
  :func:`repro.paths.vector.stack_replication_plans` shifts each
  replication's node ids into its private block, so no stacked game can
  ever read or write another replication's cells — every kernel op
  (gather, commit scatter, scalar replay) decomposes block-diagonally.
* The conflict walk scopes pair codes per ``(replication, tournament)``
  through :meth:`_StackedContext.scope`, reproducing the fused engine's
  per-tournament walk inside each replication's slate slice.
* ``commit`` updates ``known``/``pf_sum`` only on the rows its pairs touch,
  and a replication's pairs only name cells of its own block, so each
  block's caches evolve exactly as they would alone.  Together with the
  conflict walk resetting only the codes it wrote, a round's state work is
  O(cells the round touches), never O((R * block)^2): stack width costs
  nothing per round.
* Statistics counters are routed per replication (``(R, 9)``/``(R, 4)``
  accumulator matrices); float payoff accumulators are per *node* and the
  per-node fold order within a replication matches the fused engine's, so
  even the float sums agree bitwise.

The scalar-fallback threshold of the fused conflict pass (< 10 conflicted
games per round replay directly; more take the vectorized second chance)
applies *per replication* — the cutoff is part of the per-replication
trajectory, so matching fused-sequential requires evaluating it on each
replication's own conflict count.  Replications over the threshold then
share one merged second-chance pass, which block-diagonal state keeps
exact.

This engine is the vehicle of
:func:`repro.experiments.replication.run_replications_stacked`; it is not
registered in :data:`repro.sim.ENGINES` because a single replication cannot
meaningfully stack (``--stacked`` / the runner's auto dispatch select it).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.strategy import STRATEGY_LENGTH
from repro.game.stats import TournamentStats
from repro.paths.vector import GamePlanArrays
from repro.sim.fused import FusedEngine, _FusedContext
from repro.sim.kernels import TimedKernel
from repro.telemetry.runtime import get_telemetry

__all__ = ["StackedFusedEngine"]


class _StackedContext(_FusedContext):
    """A plan context over ``R`` stacked replication slates.

    ``games_per_round`` is the mega-slate width (``R * T * n``), so every
    inherited precomputation works verbatim; only the conflict-walk scoping
    differs.  The fused scoping would allocate one ``m * m`` pair block per
    tournament with ``m = R * block`` — quadratic waste, since a
    replication's games only ever name pairs inside its own ``block``-order
    diagonal.  :meth:`scope` instead projects global pair codes onto a
    block-*compact* space: tournament ``t_global = rep * T + t`` owns
    ``[t_global * block^2, (t_global + 1) * block^2)``.
    """

    __slots__ = ("block", "rep_slate", "n_replications")

    def __init__(
        self,
        plan: GamePlanArrays,
        slate: int,
        m: int,
        csn_lookup: np.ndarray,
        n_replications: int,
        n_tournaments: int,
        n_seats: int,
        block: int,
    ):
        # read by the _scope_walk hook the base constructor calls
        self.n_replications = n_replications
        self.block = block
        self.rep_slate = n_tournaments * n_seats
        super().__init__(plan, slate, m, csn_lookup, n_tournaments, n_seats)

    def _scope_walk(self) -> None:
        block = self.block
        total_t = self.n_replications * self.n_tournaments
        t_global = np.repeat(
            np.arange(total_t, dtype=np.int64), self.n_seats
        )
        rep = np.repeat(
            np.arange(self.n_replications, dtype=np.int64), self.rep_slate
        )
        # scope(): a global pair code obs * m + subj with obs = r*block + o,
        # subj = r*block + s projects to (obs * block + subj) + off
        # = t_global * block^2 + o * block + s once off absorbs both
        # r*block terms — one private block^2 window per (rep, tournament)
        self.pair_off = t_global * (block * block) - rep * block * (block + 1)
        self.walk_pos = np.tile(
            np.arange(self.n_seats, dtype=np.int64), total_t
        )
        self._alloc_writer(total_t * block * block + 1, self.n_seats)

    def scope(self, vals: np.ndarray, off: np.ndarray) -> np.ndarray:
        return (vals // self.m) * self.block + (vals % self.m) + off


class StackedFusedEngine(FusedEngine):
    """``R`` independent replications evaluated as one block-diagonal
    stack (exact per-replication equivalence to sequential fused runs)."""

    name = "stacked"

    def __init__(
        self,
        n_population: int,
        max_selfish: int,
        trust_table=None,
        activity=None,
        payoffs=None,
        kernel: str = "auto",
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
        super().__init__(
            n_population, max_selfish, trust_table, activity, payoffs, kernel
        )

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

    # -- stacked generation entry point ---------------------------------------

    def run_generation_stacked(
        self,
        plan: GamePlanArrays,
        rounds: int,
        n_tournaments: int,
        n_seats: int,
        stats: Sequence[TournamentStats],
    ) -> None:
        """Run one environment's generation for all ``R`` replications.

        ``plan`` is the mega-slate from
        :func:`repro.paths.vector.stack_replication_plans` (each input plan
        ``T = n_tournaments`` tournaments of ``n_seats`` seats);
        ``stats[r]`` receives replication ``r``'s merged counters.  Route
        sharing and plan drawing stay with the caller — each replication
        plans against its *own* oracle and rng stream.
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
        ctx = _StackedContext(
            plan,
            slate,
            self.m,
            self._csn_lookup,
            n_rep,
            n_tournaments,
            n_seats,
            self.block,
        )
        self._ks = self._kernel_state()
        self._k = (
            self._kernel if tel is None else TimedKernel(self._kernel, tel.registry)
        )
        req = np.zeros((n_rep, 9), dtype=np.int64)
        delivered = np.zeros((n_rep, 4), dtype=np.int64)
        csn_free = np.zeros((n_rep, 4), dtype=np.int64)
        self._replayed_games = 0
        self._second_chance_games = 0

        for round_no in range(rounds):
            self._process_round(ctx, round_no, req, delivered, csn_free)

        self._fold_tournament(ctx, req, delivered, csn_free)
        if tel is not None:
            tel.count("engine.tournaments", n_rep * n_tournaments)
            tel.count("engine.rounds", rounds * n_rep * n_tournaments)
            tel.count("engine.games", rounds * slate)
            tel.count("engine.turbo.replayed_games", self._replayed_games)
            tel.count("engine.fused.generations", n_rep)
            tel.count("engine.fused.stacked_tournaments", n_rep * n_tournaments)
            tel.count("engine.fused.stacked_replications", n_rep)
            tel.count("engine.fused.games", rounds * slate)
            tel.count(
                "engine.fused.second_chance_games", self._second_chance_games
            )

        for r in range(n_rep):
            self._merge_stats(stats[r], req[r], delivered[r], csn_free[r])

    # -- per-replication routing overrides ------------------------------------

    def _resolve_conflicts(
        self,
        ctx: _StackedContext,
        g0: int,
        rel_ids: np.ndarray,
        req: np.ndarray,
        delivered: np.ndarray,
        csn_free: np.ndarray,
    ) -> None:
        # the fused < 10-conflict scalar cutoff is part of each
        # replication's trajectory, so it is evaluated on each
        # replication's own count; the over-threshold replications share
        # one merged second-chance pass (block-diagonal state keeps the
        # merge exact — no replication can observe another's writes)
        reps = rel_ids // ctx.rep_slate
        counts = np.bincount(reps, minlength=self.n_replications)
        small = counts[reps] < 10
        if small.any():
            self._replay_ids(ctx, g0 + rel_ids[small], req, delivered, csn_free)
        if not small.all():
            self._second_chance(
                ctx, g0, rel_ids[~small], req, delivered, csn_free
            )

    def _replay_ids(
        self,
        ctx: _StackedContext,
        ids: np.ndarray,
        req: np.ndarray,
        delivered: np.ndarray,
        csn_free: np.ndarray,
    ) -> None:
        """Replay through the scalar kernel, routing the statistics
        counters to each game's replication row."""
        self._replayed_games += len(ids)
        slate = ctx.games_per_round
        rep_slate = ctx.rep_slate
        for g in ids.tolist():
            r = (g % slate) // rep_slate
            self._replay_one(ctx, g, req[r], delivered[r], csn_free[r])

    def _fold_tournament(
        self,
        ctx: _StackedContext,
        req: np.ndarray,
        delivered: np.ndarray,
        csn_free: np.ndarray,
    ) -> None:
        """The base statistics fold with every bincount widened by a
        replication axis; the per-node payoff fold is shared unchanged."""
        n_rep = self.n_replications
        keep = ctx.keep_b
        chosen = ctx.chosen_b
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
                ctx.decided_b & keep[:, None],
                (rep_of * 8 + src_sel * 4)[:, None] + is_csn * 2 + ctx.fwd_b,
                8 * n_rep,
            ).ravel(),
            minlength=8 * n_rep + 1,
        )
        req[:, :8] += counts[: 8 * n_rep].reshape(n_rep, 8)
        self._fold_payoffs(ctx, keep, chosen, is_csn)
