"""The numpy kernel: the pre-kernel engine code, moved.

Every op here is the historical inline implementation from
``sim/turbo.py`` / ``sim/fused.py`` lifted out verbatim (same float
expressions, same evaluation order), so this kernel is **bit-identical**
to the pre-kernel engines on pinned seeds — the parity suite in
``tests/test_sim_kernels.py`` holds it to that.

Three deliberate unifications, all proven exact:

* ``decide`` maps forwarding rates to trust levels with three vectorized
  comparisons instead of ``np.searchsorted(bounds, rate, side="left")``.
  For ascending bounds these agree exactly, boundary equality included:
  ``searchsorted(side="left")`` counts bounds strictly below the value,
  which is precisely ``(r > b0) + (r > b1) + (r > b2)``.
* ``first_writer`` replaces turbo's ``np.minimum.at`` with a reversed
  scatter-assign.  Callers pass write positions in ascending order, so
  assigning in reverse leaves the *minimum* position per code — identical
  output, without ufunc.at's per-element dispatch.  It writes only the
  given codes; callers keep the buffer filled between calls.
* ``commit`` updates the ``known``/``pf_sum`` caches incrementally on the
  touched rows instead of recomputing them from the whole matrices.  The
  state is integer, so the caches come out equal to the recompute.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategy import STRATEGY_LENGTH, UNKNOWN_BIT

__all__ = ["NumpyKernel"]


class NumpyKernel:
    """The numpy implementation of the kernel ops."""

    name = "numpy"

    def rate_paths(self, state, cells, pad):
        """Product-of-forwarding-rates rating for a block of path rows.

        ``cells`` is (P, hmax) flattened-matrix indices per hop, ``pad``
        marks padding columns (rated 1.0); unknown cells rate 0.5.
        """
        counts = state.ps_flat.take(cells)
        zero = counts == 0
        np.maximum(counts, 1, out=counts)
        ratings = state.pf_flat.take(cells) / counts
        ratings[zero] = 0.5
        ratings[pad] = 1.0
        return ratings.prod(axis=1)

    def decide(self, state, jc, valid, cells_dec, trust, unknown, fwd, decided, success):
        """Speculative forwarding decisions for every hop of chosen paths.

        ``jc`` is (G, hmax) decider ids (0-padded), ``valid`` the real-hop
        mask, ``cells_dec`` the (decider, source) flattened-matrix indices.
        Writes trust levels, unknown-cell mask, per-hop forward votes,
        decided (hop actually reached) mask and end-to-end success into
        the caller's arrays; returns decisions-per-game counts.
        """
        c2 = state.ps_flat.take(cells_dec)
        f2 = state.pf_flat.take(cells_dec)
        np.equal(c2, 0, out=unknown)
        np.maximum(c2, 1, out=c2)
        rate = f2 / c2
        trust[:] = rate > state.b0
        trust += rate > state.b1
        trust += rate > state.b2

        kn = state.known.take(jc)
        np.maximum(kn, 1, out=kn)
        av = state.pf_sum.take(jc) / kn
        delta = state.band * av
        bit = trust * 3
        bit += 1
        bit += f2 > av + delta
        bit -= f2 < av - delta
        np.copyto(bit, UNKNOWN_BIT, where=unknown)
        bit += jc * STRATEGY_LENGTH
        np.equal(state.strat_flat.take(bit), 1, out=fwd)
        fwd &= valid

        # A hop decides only if every earlier real hop forwarded; padding
        # columns are transparent to the prefix scan.
        prefix = np.logical_and.accumulate(fwd | ~valid, axis=1)
        np.copyto(decided, valid)
        decided[:, 1:] &= prefix[:, :-1]
        success[:] = prefix[:, -1]
        return decided.sum(axis=1)

    def first_writer(self, buf, codes, pos):
        """Scatter the minimum write position per code into ``buf``.

        Requires ``pos`` ascending (per duplicate code) — the reversed
        assignment then leaves the first writer, matching minimum.at.
        ``buf`` must hold the caller's fill value everywhere on entry; the
        caller restores ``buf[codes]`` once it has read the result, so a
        walk costs O(codes), not O(len(buf)).
        """
        buf[codes[::-1]] = pos[::-1]

    def commit(self, state, pairs, pf_pairs):
        """Fold accepted observation pairs into the reputation matrices.

        ``pairs`` are flattened (observer, subject) codes of all accepted
        packets-seen updates, ``pf_pairs`` the forwarded subset; both may
        repeat codes.  The known/pf_sum caches are updated incrementally
        over the touched cells only — ``known[row]`` grows by the distinct
        cells of the row whose ``ps`` was zero before the batch, ``pf_sum``
        by the forwarded pairs of the row — so a commit costs O(pairs + m),
        not O(m^2).  All state is integer, so the result equals the dense
        recompute exactly, whatever the order.
        """
        ps_flat, known, pf_sum = state.ps_flat, state.known, state.pf_sum
        m = known.size
        fresh = pairs[ps_flat.take(pairs) == 0]
        if fresh.size:
            # one survivor per distinct zero cell: scatter-assign a 1-based
            # tag per occurrence and keep the occurrence whose tag stuck
            # (whichever one did — only the count matters), then put the
            # zeros back before the scatter-add
            tag = np.arange(1, fresh.size + 1)
            ps_flat[fresh] = tag
            crossed = fresh[ps_flat.take(fresh) == tag]
            ps_flat[fresh] = 0
            known += np.bincount(crossed // m, minlength=m)
        np.add.at(ps_flat, pairs, 1)
        np.add.at(state.pf_flat, pf_pairs, 1)
        pf_sum += np.bincount(pf_pairs // m, minlength=m)

    def replay_decide(self, state, source, nodes, lens, req, delivered, csn_free):
        """Exact scalar replay of one conflicted game against live state.

        ``nodes``/``lens`` are the game's path rows (padded) and lengths.
        Mutates the request/delivery/csn counters and the per-node payoff
        accumulators; returns ``(deciders, flags, success)`` for the
        watchdog recurrence.
        """
        ps = state.ps
        pf = state.pf
        csn = state.csn_lookup
        strat = state.strat_flat
        source_selfish = bool(csn[source])

        ps_s = ps[source]
        pf_s = pf[source]
        best_i = 0
        best_r = -1.0
        for i in range(len(lens)):
            row = nodes[i]
            r = 1.0
            for x in range(int(lens[i])):
                node = int(row[x])
                cell = int(ps_s[node])
                r *= (int(pf_s[node]) / cell) if cell else 0.5
            if r > best_r:
                best_i = i
                best_r = r
        row = nodes[best_i]
        path = [int(row[x]) for x in range(int(lens[best_i]))]

        contains_csn = False
        for node in path:
            if csn[node]:
                contains_csn = True
                break
        csn_free[source_selfish * 2 + contains_csn] += 1

        req_base = 4 if source_selfish else 0
        deciders: list[int] = []
        flags: list[bool] = []
        trusts: list[int] = []
        success = True
        for j in path:
            if csn[j]:
                deciders.append(j)
                flags.append(False)
                trusts.append(-1)
                req[req_base + 2] += 1
                success = False
                break
            cell = int(ps[j, source])
            if cell == 0:
                trust = -1
                forward = int(strat[j * STRATEGY_LENGTH + UNKNOWN_BIT]) == 1
            else:
                rating = int(pf[j, source]) / cell
                if rating > state.b2:
                    trust = 3
                elif rating > state.b1:
                    trust = 2
                elif rating > state.b0:
                    trust = 1
                else:
                    trust = 0
                av = int(state.pf_sum[j]) / int(state.known[j])
                if int(pf[j, source]) < av - state.band * av:
                    act = 0
                elif int(pf[j, source]) > av + state.band * av:
                    act = 2
                else:
                    act = 1
                forward = int(strat[j * STRATEGY_LENGTH + trust * 3 + act]) == 1
            deciders.append(j)
            flags.append(forward)
            trusts.append(trust)
            req[req_base + (1 if forward else 0)] += 1
            if not forward:
                success = False
                break

        state.send_pay[source] += state.src_success if success else state.src_failure
        state.n_sent[source] += 1
        for j, forward, trust in zip(deciders, flags, trusts):
            if csn[j]:
                continue
            level = state.default_trust if trust < 0 else trust
            if forward:
                state.fwd_pay_acc[j] += state.fwd_pay[level]
                state.n_fwd[j] += 1
            else:
                state.disc_pay_acc[j] += state.disc_pay[level]
                state.n_disc[j] += 1

        delivered[source_selfish * 2 + success] += 1
        return (
            np.asarray(deciders, dtype=np.int64),
            np.asarray(flags, dtype=bool),
            success,
        )

    def watchdog(self, state, source, deciders, flags, success):
        """The watchdog recurrence: every observer of a (partial) relay
        records what each decider did.  On failure the last decider saw
        no downstream behaviour and observes nothing."""
        ps = state.ps
        pf = state.pf
        known = state.known
        pf_sum = state.pf_sum
        n_decided = len(deciders)
        n_upd = n_decided if success else n_decided - 1
        for t in range(-1, n_upd):
            u = source if t < 0 else int(deciders[t])
            ps_u = ps[u]
            pf_u = pf[u]
            for idx in range(n_decided):
                j = int(deciders[idx])
                if j != u:
                    if ps_u[j] == 0:
                        known[u] += 1
                    ps_u[j] += 1
                    if flags[idx]:
                        pf_u[j] += 1
                        pf_sum[u] += 1
