"""Batched struct-of-arrays simulation engine.

The one bit-identical fast path: the exact contract has two implementations,
the auditable reference engine and this one (``--engine fast`` names it too;
:mod:`repro.sim.fast` is an alias).  Canonical state lives in dense numpy
arrays (struct-of-arrays instead of the reference engine's array-of-objects) —

* the trust/watchdog reputation counters as dense ``(M, M)`` ``int64``
  matrices (row = observer, column = subject) with ``known``/``pf_sum``
  aggregate vectors,
* payoff accounting as flat ``float64``/``int64`` vectors,
* strategies as row-per-player bit tuples, exported on demand as one
  ``(pop, STRATEGY_LENGTH)`` ``int8`` matrix (:attr:`strategy_matrix`),

and every tournament's game *setups* are pre-drawn in one batch through
:func:`repro.paths.oracle.plan_games` before a single packet moves.  Fitness
extraction, statistics folding and state export are single vectorized numpy
expressions over those arrays.

What is (and is not) batched
----------------------------
Drawing game setups one RNG call at a time cost ~3/4 of a scalar engine's
wall time at table-5 scale, so batching starts there: the whole tournament
schedule is drawn up front via :meth:`RandomPathOracle.draw_tournament`,
which decodes the generator's PCG64 word stream with numpy (stream- and
state-identical to per-game draws — see that method's contract) into raw
tuples, skipping per-game RNG calls and ``GameSetup`` construction.  On a
2-core x86 VM a 50-seat, 100-round schedule draws in ~4 us per game, about
a quarter of the tournament (per-game RNG calls took ~13 us), so the game
loop below is now most of it.

The decision/watchdog recurrence itself is applied game-sequentially on
purpose: within a round, game ``g``'s watchdog updates feed game ``g+1``'s
path ratings and forwarding decisions (sources and deciders recur across the
round), so a bit-identical engine cannot reorder or speculate across games.
The per-game kernel instead strips everything the equivalence contract does
not require: statistics become eight integer counters folded into
:class:`TournamentStats` once per tournament, constantly selfish deciders
skip the trust/activity computation (their decision is fixed and their
intermediate payoff accumulators are dead state — fitness only reads the
evolving population), and all state access runs on plain-Python mirrors of
the canonical matrices, synchronised at tournament boundaries.

Invariants shared with the other engines (enforced by
``tests/test_engine_equivalence.py``):

* identical floating-point expression order in ratings, payoffs and fitness,
* identical tie-breaking in best-path selection (first index wins),
* identical consumption of the shared random stream: none in the game loop;
  pre-drawing only moves draw timing, never values (games consume no
  randomness), and the second-hand exchange consumes the caller's ``rng``
  exactly as the reference does.  With the exchange enabled the plan is
  built one round at a time, because the exchange and the oracle may share
  one generator and gossip draws interleave at round boundaries.

Works with all path oracles, and every production oracle supplies a native
batched fast path: ``RandomPathOracle.draw_tournament`` (the word-stream
decoder) and ``MobilePathOracle.draw_tournament`` (stream-identical
stepping + route cache over the native K-shortest-paths engine) — each
pinned stream-identical to its per-game ``draw``.  Oracles without one
(e.g. scripted test oracles) are pre-drawn per game in the same order
through the :func:`plan_games` fallback (their draws depend only on their
own state, never on game outcomes).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Sequence

import numpy as np

from repro.core.payoff import PayoffConfig
from repro.core.strategy import STRATEGY_LENGTH, UNKNOWN_BIT, Strategy
from repro.game.stats import TournamentStats
from repro.paths.oracle import PathOracle, plan_games
from repro.reputation.activity import ActivityClassifier
from repro.reputation.exchange import ExchangeConfig, exchange_reputation_flat
from repro.reputation.trust import TrustTable
from repro.telemetry.runtime import get_telemetry

__all__ = ["BatchEngine"]


class BatchEngine:
    """Struct-of-arrays implementation of the tournament semantics."""

    name = "batch"

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
            raise ValueError("BatchEngine is specialised to 4 trust levels")
        self.m = n_population + max_selfish
        # plain-Python parameters for the hot loop
        self._b0, self._b1, self._b2 = self.trust_table.bounds
        self._band = self.activity.band
        self._fwd_pay = tuple(self.payoffs.forward_by_trust)
        self._disc_pay = tuple(self.payoffs.discard_by_trust)
        self._default_trust = self.payoffs.default_trust
        self._src_success = self.payoffs.source_success
        self._src_failure = self.payoffs.source_failure
        # canonical struct-of-arrays state
        self._strategies: list[tuple[int, ...]] = [
            (1,) * STRATEGY_LENGTH for _ in range(n_population)
        ]
        self._alloc()

    def _alloc(self) -> None:
        m = self.m
        # reputation counters: row = observer, column = subject
        self.ps = np.zeros((m, m), dtype=np.int64)
        self.pf = np.zeros((m, m), dtype=np.int64)
        self.known = np.zeros(m, dtype=np.int64)
        self.pf_sum = np.zeros(m, dtype=np.int64)
        # payoff accounting, per player id
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

    @property
    def strategy_matrix(self) -> np.ndarray:
        """The population's strategies as a ``(pop, STRATEGY_LENGTH)`` int8
        matrix — a derived view of the kernel's bit tuples, so the two can
        never drift apart."""
        return np.array(self._strategies, dtype=np.int8)

    def reset_generation(self) -> None:
        self._alloc()

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

        # pull canonical arrays into plain-Python mirrors for the scalar
        # kernel (single-element list access beats numpy scalar boxing ~3x)
        ps = self.ps.tolist()
        pf = self.pf.tolist()
        known = self.known.tolist()
        pf_sum = self.pf_sum.tolist()
        send_pay = self.send_pay.tolist()
        fwd_acc = self.fwd_pay_acc.tolist()
        disc_acc = self.disc_pay_acc.tolist()
        n_sent = self.n_sent.tolist()
        n_fwd = self.n_fwd.tolist()
        n_disc = self.n_disc.tolist()

        strategies = self._strategies
        n_pop = self.n_population
        b0, b1, b2 = self._b0, self._b1, self._b2
        band = self._band
        fwd_table, disc_table = self._fwd_pay, self._disc_pay
        default_trust = self._default_trust
        src_success, src_failure = self._src_success, self._src_failure

        # tournament-level statistics, folded into ``stats`` at the end
        nn_orig = nn_del = csn_orig = csn_del = 0
        nn_chosen = nn_free = csn_chosen = csn_free = 0
        # forwarding requests: index = source_selfish*4 + responder_selfish*2
        # + forwarded
        req = [0] * 8

        # telemetry seam: one enabled check per tournament; the per-game hot
        # loop below never touches the recorder (zero-overhead contract), and
        # the timers wrap the same calls a disabled run makes
        tel = get_telemetry()
        if not tel.enabled:
            tel = None
        plan_timer = exchange_timer = nullcontext
        if tel is not None:
            plan_timer = tel.registry.timer("engine.plan_s").time
            exchange_timer = tel.registry.timer("engine.exchange_s").time

        if do_exchange:
            # gossip draws interleave with oracle draws at round boundaries
            # when both share a generator: plan one round at a time.
            n_passes, sources = rounds, participants
        else:
            # nothing else consumes the oracle's generator mid-tournament:
            # draw the full schedule in one batch and play it as one pass
            n_passes, sources = 1, participants * rounds

        for round_no in range(n_passes):
            with plan_timer():
                round_plan = plan_games(oracle, sources, participants)
            pass_span = tel.span("round") if tel is not None else None
            if pass_span is not None:
                pass_span.__enter__()

            for source, destination, paths in round_plan:
                source_selfish = source >= n_pop

                # -- best-path selection (mirrors paths.rating exactly;
                #    ratings are >= 0.0, so the -1.0 sentinel makes path 0
                #    win the first comparison and ties keep the first index)
                ps_s, pf_s = ps[source], pf[source]
                best_i = 0
                best_r = -1.0
                for i, candidate in enumerate(paths):
                    r = 1.0
                    for node in candidate:
                        c = ps_s[node]
                        r *= (pf_s[node] / c) if c else 0.5
                    if r > best_r:
                        best_i, best_r = i, r
                path = paths[best_i]

                contains_csn = False
                for node in path:
                    if node >= n_pop:
                        contains_csn = True
                        break
                if source_selfish:
                    csn_chosen += 1
                    if not contains_csn:
                        csn_free += 1
                else:
                    nn_chosen += 1
                    if not contains_csn:
                        nn_free += 1

                # -- sequential decisions -----------------------------------
                deciders: list[int] = []
                flags: list[bool] = []
                trusts: list[int | None] = []
                success = True
                req_base = 4 if source_selfish else 0
                for j in path:
                    c = ps[j][source]
                    if j >= n_pop:
                        # CSN: decision fixed, trust/activity never needed —
                        # its intermediate payoff accumulators are dead state
                        forward = False
                        trust: int | None = None
                        req[req_base + 2] += 1
                    else:
                        if c == 0:
                            trust = None
                            forward = strategies[j][UNKNOWN_BIT] == 1
                        else:
                            fj = pf[j][source]
                            rate = fj / c
                            trust = (
                                3
                                if rate > b2
                                else 2
                                if rate > b1
                                else 1
                                if rate > b0
                                else 0
                            )
                            av = pf_sum[j] / known[j]
                            act = (
                                0
                                if fj < av - band * av
                                else 2
                                if fj > av + band * av
                                else 1
                            )
                            forward = strategies[j][trust * 3 + act] == 1
                        req[req_base + (1 if forward else 0)] += 1
                    deciders.append(j)
                    flags.append(forward)
                    trusts.append(trust)
                    if not forward:
                        success = False
                        break

                # -- payoffs (same accumulation order as the reference) -----
                send_pay[source] += src_success if success else src_failure
                n_sent[source] += 1
                n_decided = len(deciders)
                for idx in range(n_decided):
                    j = deciders[idx]
                    if j >= n_pop:
                        continue  # dead state, see above
                    t = trusts[idx]
                    level = default_trust if t is None else t
                    if flags[idx]:
                        fwd_acc[j] += fwd_table[level]
                        n_fwd[j] += 1
                    else:
                        disc_acc[j] += disc_table[level]
                        n_disc[j] += 1

                # -- watchdog reputation updates ----------------------------
                updaters = deciders if success else deciders[: n_decided - 1]
                for u in (source, *updaters):
                    ps_u, pf_u = ps[u], pf[u]
                    ku, su = known[u], pf_sum[u]
                    for idx in range(n_decided):
                        j = deciders[idx]
                        if j != u:
                            if ps_u[j] == 0:
                                ku += 1
                            ps_u[j] += 1
                            if flags[idx]:
                                pf_u[j] += 1
                                su += 1
                    known[u], pf_sum[u] = ku, su

                if source_selfish:
                    csn_orig += 1
                    if success:
                        csn_del += 1
                else:
                    nn_orig += 1
                    if success:
                        nn_del += 1

            if pass_span is not None:
                pass_span.__exit__(None, None, None)
            if do_exchange and (round_no + 1) % exchange.interval == 0:
                with exchange_timer():
                    exchange_reputation_flat(
                        ps, pf, known, pf_sum, participants, exchange, rng
                    )

        if tel is not None:
            tel.count("engine.tournaments")
            tel.count("engine.rounds", rounds)
            tel.count("engine.games", rounds * len(participants))

        # -- fold statistics and push mirrors back to the canonical arrays --
        stats.nn_originated += nn_orig
        stats.nn_delivered += nn_del
        stats.csn_originated += csn_orig
        stats.csn_delivered += csn_del
        stats.nn_paths_chosen += nn_chosen
        stats.nn_csn_free_paths += nn_free
        stats.csn_paths_chosen += csn_chosen
        stats.csn_csn_free_paths += csn_free
        from_nn, from_csn = stats.requests_from_nn, stats.requests_from_csn
        from_nn.rejected_by_nn += req[0]
        from_nn.accepted_by_nn += req[1]
        from_nn.rejected_by_csn += req[2]
        from_nn.accepted_by_csn += req[3]
        from_csn.rejected_by_nn += req[4]
        from_csn.accepted_by_nn += req[5]
        from_csn.rejected_by_csn += req[6]
        from_csn.accepted_by_csn += req[7]

        self.ps = np.asarray(ps, dtype=np.int64)
        self.pf = np.asarray(pf, dtype=np.int64)
        self.known = np.asarray(known, dtype=np.int64)
        self.pf_sum = np.asarray(pf_sum, dtype=np.int64)
        self.send_pay = np.asarray(send_pay, dtype=np.float64)
        self.fwd_pay_acc = np.asarray(fwd_acc, dtype=np.float64)
        self.disc_pay_acc = np.asarray(disc_acc, dtype=np.float64)
        self.n_sent = np.asarray(n_sent, dtype=np.int64)
        self.n_fwd = np.asarray(n_fwd, dtype=np.int64)
        self.n_disc = np.asarray(n_disc, dtype=np.int64)

    def fitness(self) -> np.ndarray:
        """Eq. (1) fitness, vectorized over the payoff arrays.

        Same expression order as the scalar engines: ``(send + fwd + disc)``
        summed left-to-right, divided by the event count; players with no
        events score 0.0.
        """
        pop = slice(0, self.n_population)
        events = self.n_sent[pop] + self.n_fwd[pop] + self.n_disc[pop]
        totals = self.send_pay[pop] + self.fwd_pay_acc[pop] + self.disc_pay_acc[pop]
        out = np.zeros(self.n_population, dtype=np.float64)
        np.divide(totals, events, out=out, where=events > 0)
        return out

    # -- introspection (tests, analysis) --------------------------------------

    def payoff_matrix(self) -> np.ndarray:
        """Reputation state as ``(M, M, 2)`` — same layout as the reference."""
        out = np.empty((self.m, self.m, 2), dtype=np.int64)
        out[:, :, 0] = self.ps
        out[:, :, 1] = self.pf
        return out
