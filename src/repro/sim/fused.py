"""Speculative, generation-fused simulation engine.

The statistical engine, and the only one that relaxes the equivalence
contract: ``fused`` is **statistically equivalent** to the reference
trajectory distribution, not bit-identical to any single trajectory.  The
relaxation buys back the costs that bound the bit-identical engines:

* **Game setups** are drawn for the whole generation before any game is
  played (:func:`repro.paths.vector.plan_generation_arrays`).  On the random
  oracle that is a handful of numpy operations instead of per-game RNG
  calls — distributionally identical to the sequential sampler, but
  consuming the generator in a different order, so trajectories diverge.
  Every other oracle, the routed one included, is planned per tournament
  through its own ``draw_tournament``: those plans are stream-identical to
  the per-game draws, rejected draws and rescues included.
* **The game loop** is vectorized per round.  The bit-identical engines must
  play a round's games sequentially because game ``g``'s watchdog updates
  feed game ``g + 1``'s path ratings and forwarding decisions.  This engine
  instead *speculates*: every game of a round is decided in one vectorized
  pass from the round-start reputation matrices, then a **conflict pass**
  walks the round in game order and flags games whose decision-relevant
  reputation pairs — ``(intermediate, source)`` and ``(source,
  intermediate)`` for the speculatively chosen path — were written by an
  earlier game of the same tournament's round.  Non-conflicting games commit
  their speculative outcome in one batched scatter; conflicting games are
  re-speculated against live state (the second-chance pass) or **replayed**
  through the exact per-game scalar kernel.
* **Tournaments** of one generation run as one stacked pass: every per-round
  pass covers a *slate* — round ``r`` of every stacked tournament at once
  (``T * n`` games; a table-5 round alone is 50 games, so per-op numpy
  dispatch would dominate) — sharing one plan, one set of route tables
  and the generation's reputation state.  Within
  a generation the reputation matrices persist across tournaments
  (``reset_generation`` fires once per generation), and tournaments are
  causally coupled only through them, so the round-major slate is a
  round-level lockstep reordering of the sequential schedule.

The contract: what may diverge
------------------------------
A non-conflicting game's decision inputs are untouched by its tournament's
earlier writes in the round, so its speculative decisions equal the
sequential ones *except* for these tolerated staleness/ordering effects,
which are the entire statistical relaxation:

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
  later game can consume a pair a replay touched without itself replaying,
* **cross-tournament round lockstep**: sequentially, tournament ``t + 1``
  starts against the matrices tournament ``t`` finished; stacked, round
  ``r`` of every tournament reads the state left by round ``r - 1`` of
  every tournament.  Evidence totals are identical — only the interleaving
  of when each tournament's watchdog writes land changes,
* **cross-tournament slate staleness**: the conflict pass scopes pair codes
  *per tournament*; a pair written by another tournament in the same slate
  is tolerated staleness (the class of the activity-average staleness)
  rather than a replay trigger — unscoped detection would replay nearly
  every game of a wide slate back through the scalar kernel,
* **generation-scoped route-table sharing**: while the stacked plan is
  drawn, a mobile oracle's route cache serves entries across the
  generation's topology epochs under zero-budget lazy revalidation
  (:meth:`FusedEngine.route_sharing`), a relaxation of route *preference*,
  not existence — the class of the approx cache policy.

The plan adds no relaxation of its own on a routed oracle: each
tournament's routed plan is stream-identical to the per-game draws (the
same destinations, rejected draws, rescues and topology steps), and
route-table sharing changes only which of a pair's routes it serves.  The
random oracle's plan keeps its stream-order relaxation (above).

All of them perturb *which* of two near-equivalent micro-outcomes occurs,
never the distributions the paper reports (cooperation level, fitness,
Tables 5-9 aggregates).  ``tests/test_engine_statistical.py`` holds the
engine to that claim with two-sample KS / Mann-Whitney / Fig.-4-band gates
against a bit-identical engine over seeded replication ensembles;
``tests/test_sim_fused.py`` and ``tests/test_properties_simulation.py`` pin
the invariants that must stay *exact* (counter consistency, conservation,
``pf <= ps``).

The second-hand exchange is a step of the round pass: after every
``interval``-th round each (replication, tournament) of the slate gossips,
a replication's tournaments in seating order on its own generator — the
round lockstep again (sequentially, tournament ``t + 1`` would gossip only
after tournament ``t`` had played all of its rounds).  The plan is drawn
first, so gossip draws trail the plan's on a shared generator; the
bit-identical engines interleave the two at round boundaries.

Cross-replication stacking
--------------------------
``FusedEngine(n_replications=R)`` widens the slate one more axis: **R
independent replications** of the same experiment evaluate as one
mega-slate — stacked game ``round * (R * T * n) + rep * (T * n) +
tournament * n + seat`` — against block-diagonal reputation state.
Replication ``r`` owns node ids ``[r * block, (r + 1) * block)`` (``block
= n_population + max_selfish``) and only ever touches its own
``block x block`` square, so ``ps``/``pf`` store just those squares, as
``(R, block, block)``: the state grows with ``R``, not ``R^2``.  The pair
``(s, j)`` is the cell code ``s * block + j % block`` (the kernel's op
contract, :mod:`repro.sim.kernels`), and :meth:`FusedEngine.payoff_matrix`
still shows the whole ``(R * block)``-order matrix, zero off the diagonal
blocks.
:func:`repro.experiments.replication.run_stack` drives it at every stack
width through :meth:`FusedEngine.run_stack`, the engine's one entry point
(``run_generation`` is its one-member call, and a single tournament is a
one-seating generation).  Stacking is *exact* — each replication
bit-identical to its run in a stack of one, not merely statistically
equivalent (pinned by ``tests/test_sim_stacked.py``):

* Replications are causally independent by construction: a replication is a
  pure function of ``(config, replication_index)`` with its own rng stream.
  :func:`repro.paths.vector.stack_replication_plans` shifts each
  replication's node ids into its private block, so no stacked game can
  ever read or write another replication's cells — every kernel op
  (gather, commit scatter, scalar replay) decomposes block by block.
* The conflict walk scopes pair codes per ``(replication, tournament)``
  (the plan context's ``pair_off``), reproducing the per-tournament walk
  inside each replication's slate slice.
* ``commit`` updates ``known``/``pf_sum`` only on the rows its pairs touch,
  and a replication's pairs only name cells of its own block, so each
  block's caches evolve exactly as they would alone.  Together with the
  conflict walk resetting only the codes it wrote, a round's state work is
  O(cells the round touches), never O(R * block^2): stack width costs
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

Implementation shape
--------------------
Per-op numpy dispatch dominates at round granularity, so the engine splits
work by *when its inputs bind*:

* bound at plan time — rating cells, CSN masks, conflict-walk scopes — is
  precomputed once per plan (:class:`_PlanContext`);
* bound at round start — reputation-dependent ratings, decisions, watchdog
  writes — runs in the per-round vectorized pass;
* bound at nothing (payoff accumulators, statistics counters: dead state
  until the plan ends) is buffered per round and folded in one vectorized
  pass per plan.

Every layer runs on the plan's *ragged* hop layout
(:class:`~repro.paths.vector.GamePlanArrays`): one flat array of real hops,
path ``p`` the segment ``path_start[p]:path_start[p + 1]``, a game's
candidates one contiguous run of segments.  Nothing is padded to the
plan's longest path, so each cost grows with the real hops and cells a
round touches:

* **Rating.**  A round derives the rating cells of its paths' contiguous
  run of hops (the source's cell base plus each hop id) and rates them
  with one segmented product (``rate_paths``), left to right per path as
  the padded row product was.
* **Decision.**  The chosen paths' hops are gathered back to back and
  ``decide`` votes per hop, then finds each game's first discard per
  segment: ``n_dec`` hops decide, and ``success`` means none discarded.
  A decided hop's forward vote follows from those two (all but a dropped
  packet's last decider forwarded), so no vote is buffered.
* **Commit.**  :func:`watchdog_pairs` lists only the real watchdog writes
  of the speculated games — (observer, subject) pairs in game-major order,
  observers the source and the first ``n_upd`` deciders, subjects the
  ``n_dec`` deciders, observer == subject dropped — about 2.6 pairs per
  game instead of a padded ``(hmax + 1) x hmax`` grid.  The conflict walk
  and the batched commit consume them directly.
* **Replay.**  A conflicted game is replayed by the kernel's
  ``replay_decide`` / ``watchdog`` ops as plain Python over flat
  memoryviews of the live state (built once per state bundle), with its
  candidate paths as lists cut from one ``tolist`` of the replayed games'
  hops, so a replay pays no numpy scalar boxing.
* **Fold.**  Per game the plan buffers ``chosen``/``n_dec``/``success``/
  ``keep``, per plan hop the trust level a decision was paid at (a
  re-chosen path owns other hop slots, so nothing is reset).  The fold
  walks the kept games' first ``n_dec`` hop slots in game order, then hop
  order, so its weighted ``bincount`` sums add in the order the sequential
  and padded passes did.

Every path oracle is supported: the random oracle has a native vectorized
sampler, and every other oracle (routed, scripted, third-party) is planned
through the sequential :func:`plan_games` path and packed into the same
layout; only the game loop is speculated.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Sequence

import numpy as np

from repro.core.payoff import PayoffConfig
from repro.core.strategy import STRATEGY_LENGTH, Strategy
from repro.game.stats import TournamentStats
from repro.network.provider import ApproxPolicy
from repro.paths.oracle import PathOracle
from repro.paths.vector import (
    GamePlanArrays,
    plan_generation_arrays,
    segment_index,
    split_hops,
    stack_replication_plans,
)
from repro.reputation.activity import ActivityClassifier
from repro.reputation.exchange import ExchangeConfig, exchange_reputation_flat
from repro.reputation.trust import TrustTable
from repro.sim.kernels import KernelState, TimedKernel
from repro.sim.kernels.numpy_backend import NumpyKernel
from repro.telemetry.runtime import get_telemetry

__all__ = ["FusedEngine"]


def timed(tel, name: str):
    """The ``name`` timer of an enabled recorder, else a no-op context."""
    return tel.registry.timer(name).time() if tel is not None else nullcontext()


def watchdog_pairs(src, jc, starts, n_dec, success):
    """The watchdog writes of a set of speculated games, compact.

    Game ``i`` (source ``src[i]``) decided the first ``n_dec[i]`` hops of
    its chosen path, whose decider ids start at ``jc[starts[i]]``.  Its
    observers are the source and the first ``n_upd`` deciders — ``n_upd``
    is ``n_dec``, or ``n_dec - 1`` when the packet was dropped (the last
    decider saw nothing downstream) — and each observer records every
    decider.  A decider forwarded unless it is the last one of a dropped
    packet.  Returns the ``(observer, subject)`` ids of those pairs with
    observer == subject dropped, each pair's game (ascending) and the
    subject's forward vote, in the scalar watchdog's order: game-major,
    then observer, then subject.  Costs O(pairs), not O(games * hmax^2).
    """
    n_upd = np.where(success, n_dec, n_dec - 1)
    per = (n_upd + 1) * n_dec
    game = np.repeat(np.arange(len(n_dec)), per)
    k = np.arange(game.size) - np.repeat(np.cumsum(per) - per, per)
    d = n_dec[game]
    t = k // d  # observer: 0 is the source, t > 0 decider t - 1
    s = k - t * d  # subject: decider s
    base = starts[game]
    subj = jc[base + s]
    # t - 1 reads the previous game's last hop (or wraps) on source rows,
    # which the where drops
    obs = np.where(t > 0, jc[base + t - 1], src[game])
    fwd = s < d - 1
    fwd |= success[game]
    real = obs != subj
    return obs[real], subj[real], game[real], fwd[real]


class _PlanContext:
    """Everything about a plan that does not depend on reputation state,
    precomputed once so the per-round pass is pure gathers and ufuncs.

    One context serves every round pass: ``n_replications`` stacked
    replications (each a ``block``-order diagonal block of the reputation
    matrices) of ``n_tournaments`` tournaments of ``n_seats`` seats, laid
    out round-major — a round's slate is ``R * T * n`` games.  An unstacked
    generation (:meth:`FusedEngine.run_generation`) is the ``(1, T, n,
    block)`` case, a single tournament the ``(1, 1, n, block)`` one.

    Per-hop arrays run over the plan's flat hops (``plan.hop_nodes``):
    ``is_csn`` whether the hop is a selfish seat and ``level_b`` the
    fold's trust level of each decided hop.  Rating cells are derived per
    round (:meth:`rating_cells`) from the hops, the per-game hop count
    ``game_hops`` and the slate's ``src_base``: the cell code of pair
    ``(s, j)`` is ``s * block + j % block``, which is ``src_base + j`` for
    the source ``s`` of a game and any node ``j`` of its replication.

    The conflict walk is scoped per (replication, tournament): it reads
    and writes cell codes, and ``pair_off[g]`` moves game ``g``'s codes
    from its replication's ``block^2`` window into its tournament's
    private one of ``writer_buf``; ``walk_pos[g]`` is its seat, the
    "earlier game" order of the walk.
    """

    __slots__ = (
        "plan",
        "games_per_round",
        "n_replications",
        "n_tournaments",
        "rep_slate",
        "block",
        "game_hops",
        "is_csn",
        "has_csn",
        "src_sel",
        "src_round",
        "src_local",
        "src_base",
        "pair_off",
        "walk_pos",
        "walk_fill",
        "writer_buf",
        "ratings_buf",
        "level_b",
        "chosen_b",
        "ndec_b",
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
        # the writer buffer stores seat positions (and the fill, n_seats)
        # as int16
        if n_seats > np.iinfo(np.int16).max:
            raise ValueError(
                f"the conflict walk stores seat positions as int16:"
                f" {n_seats} seats do not fit"
            )
        self.plan = plan
        self.n_replications = n_replications
        self.n_tournaments = n_tournaments
        self.rep_slate = n_tournaments * n_seats
        self.block = block
        games_per_round = n_replications * self.rep_slate
        self.games_per_round = games_per_round
        hops = plan.hop_nodes
        # a game's hops are one contiguous run of the plan
        self.game_hops = np.diff(plan.path_start[plan.game_path_start])
        self.is_csn = csn_lookup[hops]
        # a path holds a selfish hop iff the running CSN count grows over
        # its segment
        csn_count = np.zeros(hops.size + 1, dtype=np.int64)
        np.cumsum(self.is_csn, out=csn_count[1:])
        csn_count = csn_count[plan.path_start]
        self.has_csn = csn_count[1:] > csn_count[:-1]
        self.src_sel = csn_lookup[plan.src]
        # every round's source order is the participants list, so the
        # round-constant pieces are hoisted once: each source's local id,
        # and its cell base (the cell code of (s, j) is src_base + j)
        src = plan.src[:games_per_round]
        self.src_round = src
        self.src_local = src % block
        self.src_base = src * block - (src - self.src_local)
        n_games = plan.n_games
        # conflict-walk scope: tournament t_global = rep * T + t owns the
        # window [t_global * block^2, (t_global + 1) * block^2); a cell
        # code of replication rep sits in [rep * block^2, (rep + 1) *
        # block^2), so the move is (t_global - rep) * block^2
        total_t = n_replications * n_tournaments
        t_global = np.repeat(np.arange(total_t, dtype=np.int64), n_seats)
        rep = np.repeat(
            np.arange(n_replications, dtype=np.int64), self.rep_slate
        )
        self.pair_off = (t_global - rep) * (block * block)
        self.walk_pos = np.tile(np.arange(n_seats, dtype=np.int64), total_t)
        # filled once: every walk resets just the codes it wrote
        self.walk_fill = n_seats
        self.writer_buf = np.full(total_t * block * block, n_seats, dtype=np.int16)
        self.ratings_buf = np.empty(
            (games_per_round, max(plan.max_paths, 1)), dtype=np.float64
        )
        # per-game speculative outcomes, buffered for the end-of-plan fold,
        # and the trust level of every plan hop a kept game decided (a
        # game's re-chosen path owns other hop slots, so nothing is reset)
        self.level_b = np.zeros(hops.size, dtype=np.int8)
        self.chosen_b = np.zeros(n_games, dtype=np.int32)
        self.ndec_b = np.zeros(n_games, dtype=np.int32)
        self.success_b = np.zeros(n_games, dtype=bool)
        self.keep_b = np.ones(n_games, dtype=bool)

    @staticmethod
    def rating_cells(src_base, hops, game_hops):
        """The (source, hop) cell codes of consecutive games' candidate
        hops: ``game_hops[i]`` hops of game ``i``, whose source has the
        cell base ``src_base[i]``."""
        cells = np.repeat(src_base, game_hops)
        cells += hops
        return cells

    def conflicted(self, kern, w_codes, w_game, r1, r2, n_dec, rows=None):
        """The conflict walk over a set of slate games (``rows``, ascending
        slate positions; all of them by default): per game, whether one of
        its read pairs ``r1``/``r2`` (``n_dec`` per game) was first written
        (``w_codes``, by game ``w_game``, ascending) by a strictly earlier
        game of its scope.  Codes are cell codes; ``r1``/``r2`` are
        consumed.  Every game's writes count, kept or not — exactly the
        sequential walk's written-set.  Resets just the codes it wrote, so
        the buffer holds ``walk_fill`` everywhere between walks and a walk
        costs O(writes + reads), however wide the pair space."""
        off = self.pair_off if rows is None else self.pair_off[rows]
        pos = self.walk_pos if rows is None else self.walk_pos[rows]
        buf = self.writer_buf
        w_codes = w_codes + off[w_game]
        kern.first_writer(buf, w_codes, pos[w_game])
        read_off = np.repeat(off, n_dec)
        pos_read = np.repeat(pos, n_dec)
        r1 += read_off
        r2 += read_off
        conflict = buf[r1] < pos_read
        conflict |= buf[r2] < pos_read
        buf[w_codes] = self.walk_fill
        # every game reads at least one pair: one segment per game
        read_start = np.cumsum(n_dec)
        read_start -= n_dec
        return np.logical_or.reduceat(conflict, read_start)


class FusedEngine:
    """Speculative slate kernel over a whole generation and, with
    ``n_replications > 1``, over ``R`` block-diagonal replications (exact
    per-replication equivalence to sequential runs)."""

    name = "fused"
    #: :func:`repro.tournament.evaluation.evaluate_stack` dispatches on
    #: this flag to hand the engine all of an environment's seatings at
    #: once (:meth:`run_stack`); the engine has no per-tournament entry
    #: point.
    supports_generation_fusion = True

    def __init__(
        self,
        n_population: int,
        max_selfish: int,
        trust_table: TrustTable | None = None,
        activity: ActivityClassifier | None = None,
        payoffs: PayoffConfig | None = None,
        n_replications: int = 1,
    ):
        if n_population < 1:
            raise ValueError(f"population must be >= 1, got {n_population}")
        if max_selfish < 0:
            raise ValueError(f"max_selfish must be >= 0, got {max_selfish}")
        if n_replications < 1:
            raise ValueError(
                f"n_replications must be >= 1, got {n_replications}"
            )
        self.n_population = n_population
        self.max_selfish = max_selfish
        self.n_replications = n_replications
        self.trust_table = trust_table or TrustTable()
        self.activity = activity or ActivityClassifier()
        self.payoffs = payoffs or PayoffConfig()
        if self.trust_table.n_levels != 4:
            raise ValueError("FusedEngine is specialised to 4 trust levels")
        # replication r owns the r-th diagonal block of every matrix
        self.block = n_population + max_selfish
        self.m = n_replications * self.block
        self._kernel = NumpyKernel()
        self._k = self._kernel
        # (m,) bool — which matrix ids are selfish seats, in every block
        self._csn_lookup = (np.arange(self.m) % self.block) >= n_population
        self._b0, self._b1, self._b2 = self.trust_table.bounds
        self._band = self.activity.band
        self._fwd_pay = np.asarray(self.payoffs.forward_by_trust, dtype=np.float64)
        self._disc_pay = np.asarray(self.payoffs.discard_by_trust, dtype=np.float64)
        # the fold's payoff by (vote, trust level): discards, then forwards
        self._pay_by_vote = np.concatenate([self._disc_pay, self._fwd_pay])
        self._default_trust = self.payoffs.default_trust
        self._src_success = self.payoffs.source_success
        self._src_failure = self.payoffs.source_failure
        self._strategies: list[tuple[int, ...]] = [
            (1,) * STRATEGY_LENGTH for _ in range(n_population)
        ]
        self._strategy_tensor: np.ndarray | None = None
        self._rebuild_strategy_table()
        #: games replayed through the exact kernel, and games accepted by
        #: the second-chance pass, in the last round loop — instrumentation
        #: for tests and the perf bench
        self._replayed_games = 0
        self._second_chance_games = 0
        self._alloc()
        self._ks = self._kernel_state()

    def _rebuild_strategy_table(self) -> None:
        # (m * STRATEGY_LENGTH,) int8: each block holds its population's
        # strategies then zeros, so CSN gather rows read as "never forward"
        # without masking
        table = np.zeros(self.m * STRATEGY_LENGTH, dtype=np.int8)
        view = table.reshape(self.n_replications, self.block, STRATEGY_LENGTH)
        if self._strategy_tensor is None:
            # set_strategies: every replication carries the same population
            view[:, : self.n_population] = np.array(
                self._strategies, dtype=np.int8
            )
        else:
            view[:, : self.n_population] = self._strategy_tensor
        self._strat_flat = table

    def _kernel_state(self) -> KernelState:
        """Bundle the live state views the kernel ops operate on, with the
        replay ops' memoryviews.  Rebuilt at every entry point: ``_alloc``
        and ``set_strategies`` replace the underlying arrays, and the bundle
        is a handful of references and views."""
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
        ).with_views()

    def _alloc(self) -> None:
        m = self.m
        # replication r only ever touches its own diagonal block, so the
        # reputation pair holds just those: (R, block, block), addressed
        # by cell code (:mod:`repro.sim.kernels`)
        shape = (self.n_replications, self.block, self.block)
        self.ps = np.zeros(shape, dtype=np.int64)
        self.pf = np.zeros(shape, dtype=np.int64)
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
        """Install one population, shared by every replication."""
        if len(strategies) != self.n_population:
            raise ValueError(
                f"expected {self.n_population} strategies, got {len(strategies)}"
            )
        self._strategies = [tuple(s.bits) for s in strategies]
        self._strategy_tensor = None
        self._rebuild_strategy_table()

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

    @property
    def strategy_matrix(self) -> np.ndarray:
        """The population's strategies as a ``(pop, STRATEGY_LENGTH)`` int8
        matrix — derived from the kernel's bit tuples, so the two can never
        drift apart."""
        return np.array(self._strategies, dtype=np.int8)

    def reset_generation(self) -> None:
        self._alloc()

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
        stacked into one mega-slate for :meth:`run_generation_stacked`,
        whose gossip draws come from ``rngs[r]``.
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
        plans = []
        for member, oracle in zip(seatings, oracles):
            hook = getattr(oracle, "on_tournament_end", None)
            # through the module global, so a wrapper installed on
            # ``repro.sim.fused.plan_generation_arrays`` sees every call
            with self.route_sharing(oracle), timed(tel, "engine.plan_s"):
                plans.append(
                    plan_generation_arrays(oracle, member, rounds, on_tournament_end=hook)
                )
        plan = stack_replication_plans(plans, rounds, self.block)
        # the members' own plans are dead once woven into the stack
        del plans
        self.run_generation_stacked(
            plan, rounds, len(seatings[0]), n_seats, stats, exchange, rngs
        )

    def run_generation_stacked(
        self,
        plan: GamePlanArrays,
        rounds: int,
        n_tournaments: int,
        n_seats: int,
        stats: Sequence[TournamentStats],
        exchange: ExchangeConfig | None = None,
        rngs: Sequence[np.random.Generator | None] = (None,),
    ) -> None:
        """Run one environment's generation for all ``R`` replications.

        ``plan`` is round-major: one replication's plan from
        :func:`repro.paths.vector.plan_generation_arrays`, or the mega-slate
        :func:`repro.paths.vector.stack_replication_plans` builds from one
        such plan per replication (each ``T = n_tournaments`` tournaments
        of ``n_seats`` seats); ``stats[r]`` receives replication ``r``'s
        merged counters, and ``rngs[r]`` its gossip draws.  Route sharing
        and plan drawing stay with the caller — each replication plans
        against its *own* oracle and rng stream.
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
        req, delivered, csn_free = self._run_rounds(
            ctx, rounds, tel, exchange, rngs
        )
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
        route provider (random, scripted) and for approx providers, which
        already share more aggressively than the generation scope would.
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

    # -- the round pass -------------------------------------------------------

    def _run_rounds(
        self,
        ctx: _PlanContext,
        rounds: int,
        tel,
        exchange: ExchangeConfig | None,
        rngs: Sequence[np.random.Generator | None],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The round loop over a planned slate, then the end-of-plan fold.

        Returns the statistics accumulators ``(req, delivered, csn_free)``
        with one ``(9,)``/``(4,)``/``(4,)`` row per replication of the
        context.  With the exchange on, a gossip step
        (:meth:`_run_exchange`) follows every ``exchange.interval``-th round.
        """
        gossip = exchange is not None and exchange.enabled
        if gossip and any(rng is None for rng in rngs):
            raise ValueError("reputation exchange requires an rng")
        self._ks = self._kernel_state()
        self._k = (
            self._kernel if tel is None else TimedKernel(self._kernel, tel.registry)
        )
        # replay contributions accumulate here, written through one
        # memoryview triple per replication; speculative outcomes are
        # folded vectorized at the end (dead state during the plan)
        n_rep = ctx.n_replications
        req = np.zeros((n_rep, 9), dtype=np.int64)
        delivered = np.zeros((n_rep, 4), dtype=np.int64)
        csn_free = np.zeros((n_rep, 4), dtype=np.int64)
        counters = [
            (memoryview(req[r]), memoryview(delivered[r]), memoryview(csn_free[r]))
            for r in range(n_rep)
        ]
        self._replayed_games = 0
        self._second_chance_games = 0

        for round_no in range(rounds):
            with tel.span("round") if tel is not None else nullcontext():
                self._process_round(ctx, round_no, counters)
            if gossip and (round_no + 1) % exchange.interval == 0:
                with timed(tel, "engine.exchange_s"):
                    self._run_exchange(ctx, exchange, rngs)

        with timed(tel, "engine.fold_s"):
            self._fold_tournament(ctx, req, delivered, csn_free)
        if tel is not None:
            tournaments = n_rep * ctx.n_tournaments
            tel.count("engine.tournaments", tournaments)
            tel.count("engine.rounds", rounds * tournaments)
            tel.count("engine.games", rounds * ctx.games_per_round)
            # the historical name; perfbench/child.py reads it
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

    def _process_round(self, ctx: _PlanContext, round_no: int, counters: list) -> None:
        plan = ctx.plan
        ks = self._ks
        kern = self._k
        g0 = round_no * ctx.games_per_round
        g1 = g0 + ctx.games_per_round
        p0 = int(plan.game_path_start[g0])
        p1 = int(plan.game_path_start[g1])
        h0 = int(plan.path_start[p0])
        h1 = int(plan.path_start[p1])

        # -- speculative path ratings from round-start state ----------------
        # the round's candidate paths are one contiguous run of plan hops
        cells = ctx.rating_cells(
            ctx.src_base, plan.hop_nodes[h0:h1], ctx.game_hops[g0:g1]
        )
        ratings = kern.rate_paths(ks, cells, plan.path_start[p0:p1] - h0)

        # -- best path per game (first index wins ties, as the exact engines do)
        buf = ctx.ratings_buf
        buf.fill(-1.0)
        buf[plan.path_game[p0:p1] - g0, plan.path_col[p0:p1]] = ratings
        chosen = ctx.chosen_b[g0:g1]
        np.add(plan.game_path_start[g0:g1], buf.argmax(axis=1), out=chosen)

        # -- speculative sequential decisions, vectorized over games --------
        self._speculate(ctx, None, slice(g0, g1), chosen)

        # -- resolve conflicting games against live state --------------------
        keep = ctx.keep_b[g0:g1]
        if not keep.all():
            self._resolve_conflicts(ctx, g0, np.flatnonzero(~keep), counters)

    def _speculate(self, ctx, rows, games, chosen) -> np.ndarray:
        """Decide the ``games`` along their ``chosen`` path rows against
        live state, walk them for conflicts and commit the kept ones.  The
        games are a whole round (``rows`` ``None``, ``games`` its slice of
        the plan) or slate ``rows`` (``games`` their absolute plan ids,
        ascending).  Buffers every game's trust levels, and the kept
        games' outcomes, for the end-of-plan fold; returns the keep mask.
        """
        plan = ctx.plan
        # the chosen paths' plan hop slots, back to back, and each path's
        # start within them
        lens = plan.path_len[chosen]
        hop_idx = segment_index(plan.path_start[chosen], lens)
        starts = np.cumsum(lens)
        starts -= lens
        jc = plan.hop_nodes[hop_idx]
        src_local = ctx.src_local if rows is None else ctx.src_local[rows]
        cells_dec = jc * ctx.block
        cells_dec += np.repeat(src_local, lens)
        trust, unknown, _fwd, n_dec, success = self._k.decide(
            self._ks, jc, cells_dec, starts
        )
        # the level a decided hop is paid at; a conflicted game's slots are
        # rewritten by whichever pass settles it, or never read (replayed)
        np.copyto(trust, self._default_trust, where=unknown)
        ctx.level_b[hop_idx] = trust
        keep = self._commit_unconflicted(
            ctx, rows, jc, cells_dec, starts, n_dec, success
        )
        if rows is None:
            ctx.ndec_b[games] = n_dec
            ctx.success_b[games] = success
            ctx.keep_b[games] = keep
        else:
            ga = games[keep]
            ctx.chosen_b[ga] = chosen[keep]
            ctx.ndec_b[ga] = n_dec[keep]
            ctx.success_b[ga] = success[keep]
            ctx.keep_b[ga] = True
        return keep

    def _commit_unconflicted(
        self, ctx, rows, jc, cells_dec, starts, n_dec, success
    ) -> np.ndarray:
        """Walk speculated games for conflicts and commit the rest.

        The games are slate ``rows`` (all of the slate for ``None``) with
        chosen-path deciders ``jc`` (game ``i``'s from ``starts[i]``),
        their (decider, source) cells ``cells_dec`` and outcomes
        ``n_dec``/``success``.  Returns the per-game keep mask: a game
        conflicts iff one of its read pairs was (speculatively) written by
        a strictly earlier game of its scope.  Only the kept games'
        watchdog writes are committed.
        """
        if rows is None:
            src, src_base = ctx.src_round, ctx.src_base
        else:
            src, src_base = ctx.src_round[rows], ctx.src_base[rows]
        obs, subj, w_game, w_fwd = watchdog_pairs(src, jc, starts, n_dec, success)
        w_cells = obs * ctx.block
        w_cells += subj % ctx.block
        # decision reads (j, s) are exactly the decided cells; rating reads
        # (s, j) cover the decided prefix of the chosen path (staleness on
        # nodes past a drop only perturbs already-tolerated path ratings)
        decided = segment_index(starts, n_dec)
        keep = ~ctx.conflicted(
            self._k,
            w_cells,
            w_game,
            cells_dec[decided],
            ctx.rating_cells(src_base, jc[decided], n_dec),
            n_dec,
            rows,
        )
        k_pairs = keep[w_game]
        pairs = w_cells[k_pairs]
        self._k.commit(self._ks, pairs, pairs[w_fwd[k_pairs]])
        return keep

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

        Replaying every conflicted game through the scalar kernel would
        make that serial tail dominate a wide slate's round.  This pass
        applies the *same* speculate-commit-walk discipline to just the
        conflicted subset: their ratings and decisions are recomputed
        against the post-commit matrices, the per-tournament conflict walk
        reruns among the subset's own writes, and only games that conflict
        *again* (an earlier conflicted game of the same tournament wrote one
        of their read pairs — rare, since conflicts are already sparse) fall
        back to the scalar kernel.  No new relaxation class: it is the
        slate speculation applied iteratively, and accepted games re-enter
        the buffered fold exactly like first-pass games.
        """
        plan = ctx.plan
        g = g0 + rel_ids  # absolute game ids, ascending = replay order

        # candidate-path rows of the subset: each game's rows, and their
        # hops, are one contiguous run of the plan
        row_lo = plan.game_path_start[g]
        counts = plan.game_path_start[g + 1] - row_lo
        prow = segment_index(row_lo, counts)
        lens = plan.path_len[prow]
        seg = np.cumsum(lens)
        seg -= lens

        # -- ratings + best path, against the live matrices ------------------
        n_hops = ctx.game_hops[g]
        cells = ctx.rating_cells(
            ctx.src_base[rel_ids],
            plan.hop_nodes[segment_index(plan.path_start[row_lo], n_hops)],
            n_hops,
        )
        ratings = self._k.rate_paths(self._ks, cells, seg)
        n_sub = len(g)
        buf = ctx.ratings_buf[:n_sub]
        buf.fill(-1.0)
        buf[np.repeat(np.arange(n_sub), counts), plan.path_col[prow]] = ratings
        chosen = row_lo + buf.argmax(axis=1)

        # -- decisions, the conflict walk among the subset's own writes (per
        # tournament), commit and re-buffering, as in the slate pass --------
        keep2 = self._speculate(ctx, rel_ids, g, chosen)
        self._second_chance_games += int(keep2.sum())

        # -- scalar tail: games that conflicted twice ------------------------
        if not keep2.all():
            self._replay_ids(ctx, g[~keep2], counters)

    def _replay_ids(self, ctx: _PlanContext, ids: np.ndarray, counters: list) -> None:
        """Replay games (absolute plan indices, ascending) one at a time
        through the exact scalar kernel against the live matrices, routing
        the statistics counters to each game's replication row
        (``counters[r]`` is replication ``r``'s ``(req, delivered,
        csn_free)``).  The candidate paths of all the games come out of the
        plan as Python lists in one pass."""
        self._replayed_games += len(ids)
        plan = ctx.plan
        lo = plan.game_path_start[ids]
        n_paths = plan.game_path_start[ids + 1] - lo
        ends = np.cumsum(n_paths)
        hop_lo = plan.path_start[lo]
        hops = plan.hop_nodes[
            segment_index(hop_lo, plan.path_start[lo + n_paths] - hop_lo)
        ]
        paths = split_hops(
            hops.tolist(), plan.path_len[segment_index(lo, n_paths)].tolist()
        )
        kern = self._k
        ks = self._ks
        slate = ctx.games_per_round
        rep_slate = ctx.rep_slate
        start = 0
        for g, source, end in zip(ids.tolist(), plan.src[ids].tolist(), ends.tolist()):
            deciders, flags, success = kern.replay_decide(
                ks, source, paths[start:end], *counters[(g % slate) // rep_slate]
            )
            kern.watchdog(ks, source, deciders, flags, success)
            start = end

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
        plan = ctx.plan
        keep = ctx.keep_b
        chosen = ctx.chosen_b
        success = ctx.success_b
        src_sel = ctx.src_sel
        rounds = plan.n_games // ctx.games_per_round
        rep_of = np.tile(
            np.repeat(np.arange(n_rep, dtype=np.int64), ctx.rep_slate), rounds
        )
        # each game's (replication, source class) counter row base
        row = rep_of * 2 + src_sel

        delivered += np.bincount(
            (row * 2 + success)[keep], minlength=4 * n_rep
        ).reshape(n_rep, 4)
        csn_free += np.bincount(
            (row * 2 + ctx.has_csn[chosen])[keep], minlength=4 * n_rep
        ).reshape(n_rep, 4)
        # every decided hop of a kept game, in game order, then hop: the
        # first n_dec plan hop slots of its chosen path
        kept = np.flatnonzero(keep)
        n_dec = ctx.ndec_b[kept]
        hop = segment_index(plan.path_start[chosen[kept]], n_dec)
        is_csn = ctx.is_csn[hop]
        # every decider but a dropped packet's last one forwarded
        last = np.cumsum(n_dec) - 1
        fwd = np.ones(hop.size, dtype=bool)
        fwd[last] = success[kept]
        req_key = np.repeat(row[kept] * 4, n_dec)
        req_key += is_csn * 2
        req_key += fwd
        req[:, :8] += np.bincount(req_key, minlength=8 * n_rep).reshape(n_rep, 8)

        # per-node payoffs: the float accumulators fold in game order, so a
        # replication's sums match what it would accumulate alone
        ksrc = plan.src[keep]
        self.send_pay += np.bincount(
            ksrc,
            weights=np.where(success[keep], self._src_success, self._src_failure),
            minlength=m,
        )
        self.n_sent += np.bincount(ksrc, minlength=m)
        # intermediate payoffs: normal deciders only (CSN accumulators are
        # dead state, exactly as the batch engine skips them).  Forwards
        # bin at the decider's id, discards m past it: each bin still sums
        # its hops in fold order
        pay = ~is_csn
        hop, ff = hop[pay], fwd[pay]
        pay_bin = plan.hop_nodes[hop]
        pay_bin[~ff] += m
        lvl = ctx.level_b[hop] + ff * 4
        sums = np.bincount(pay_bin, weights=self._pay_by_vote[lvl], minlength=2 * m)
        events = np.bincount(pay_bin, minlength=2 * m)
        self.fwd_pay_acc += sums[:m]
        self.n_fwd += events[:m]
        self.disc_pay_acc += sums[m:]
        self.n_disc += events[m:]

    def _run_exchange(
        self,
        ctx: _PlanContext,
        exchange: ExchangeConfig,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """One gossip step of every (replication, tournament) of the slate:
        replication ``r``'s tournaments in seating order, on ``rngs[r]``,
        over its block copied to lists and back in place (live views stay
        valid)."""
        # every round's sources are the seatings in order (local ids)
        seatings = ctx.src_local.reshape(
            ctx.n_replications, ctx.n_tournaments, -1
        ).tolist()
        for r, (tournaments, rng) in enumerate(zip(seatings, rngs, strict=True)):
            ids = slice(r * self.block, (r + 1) * self.block)
            ps_l = self.ps[r].tolist()
            pf_l = self.pf[r].tolist()
            known_l = self.known[ids].tolist()
            pf_sum_l = self.pf_sum[ids].tolist()
            for participants in tournaments:
                exchange_reputation_flat(
                    ps_l, pf_l, known_l, pf_sum_l, participants, exchange, rng
                )
            self.ps[r] = ps_l
            self.pf[r] = pf_l
            self.known[ids] = known_l
            self.pf_sum[ids] = pf_sum_l

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

    def payoff_matrix(self) -> np.ndarray:
        """Reputation state as ``(M, M, 2)`` — same layout as the other
        engines: replication ``r``'s state is the ``r``-th diagonal block,
        every off-diagonal block is zero."""
        out = np.zeros((self.m, self.m, 2), dtype=np.int64)
        for r in range(self.n_replications):
            ids = slice(r * self.block, (r + 1) * self.block)
            out[ids, ids, 0] = self.ps[r]
            out[ids, ids, 1] = self.pf[r]
        return out
