"""The numpy kernel: the pre-kernel engine code, moved.

Every op here is the historical inline implementation from
``sim/fused.py`` lifted out verbatim (same float
expressions, same evaluation order), so this kernel is **bit-identical**
to the pre-kernel engines on pinned seeds — the parity suite in
``tests/test_sim_kernels.py`` holds it to that.

Five deliberate unifications, all proven exact:

* ``rate_paths`` and ``decide`` run on ragged hop runs (flat hops plus
  segment starts) instead of rows padded to the longest path.  A
  segment's ``np.multiply.reduceat`` is the same left-to-right product
  the padded ``prod(axis=1)`` formed (its padding factors were 1.0), and
  a game's first discard per segment decides exactly the hops the padded
  prefix scan did.  The padded ops are kept as the oracles in
  ``tests/test_sim_kernels.py``.

* ``decide`` maps forwarding rates to trust levels with three vectorized
  comparisons instead of ``np.searchsorted(bounds, rate, side="left")``.
  For ascending bounds these agree exactly, boundary equality included:
  ``searchsorted(side="left")`` counts bounds strictly below the value,
  which is precisely ``(r > b0) + (r > b1) + (r > b2)``.
* ``first_writer`` replaces the engine's former ``np.minimum.at`` with a reversed
  scatter-assign.  Callers pass write positions in ascending order, so
  assigning in reverse leaves the *minimum* position per code — identical
  output, without ufunc.at's per-element dispatch.  It writes only the
  given codes; callers keep the buffer filled between calls.
* ``commit`` updates the ``known``/``pf_sum`` caches incrementally on the
  touched rows instead of recomputing them from the whole matrices.  The
  state is integer, so the caches come out equal to the recompute.
* ``replay_decide`` / ``watchdog`` run their sequential recurrence in plain
  Python over flat memoryviews of the live arrays instead of indexing
  numpy scalars.  Integer cells come out as Python ints and the float
  expressions and their order are unchanged, so every sum is the same
  IEEE double; the decision and payoff updates of a decider are merged
  into one pass (they touch disjoint accumulators).  The numpy-scalar
  version is kept as the oracle in ``tests/test_sim_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.strategy import STRATEGY_LENGTH, UNKNOWN_BIT

__all__ = ["NumpyKernel"]


class NumpyKernel:
    """The numpy implementation of the kernel ops."""

    name = "numpy"

    def rate_paths(self, state, cells, starts):
        """Product-of-forwarding-rates rating for a run of paths.

        ``cells`` holds the flattened-matrix index of every hop of the
        paths, back to back; path ``i``'s hops start at ``starts[i]``
        (ascending, every path non-empty).  Unknown cells rate 0.5.  Each
        path's product runs left to right over its hops, as
        ``prod(axis=1)`` ran over a row padded with 1.0.
        """
        counts = state.ps_flat.take(cells)
        zero = counts == 0
        np.maximum(counts, 1, out=counts)
        ratings = state.pf_flat.take(cells) / counts
        ratings[zero] = 0.5
        return np.multiply.reduceat(ratings, starts)

    def decide(self, state, jc, cells_dec, starts):
        """Speculative forwarding decisions along the chosen paths.

        ``jc`` holds every chosen path's decider ids back to back, game
        ``i``'s from ``starts[i]`` (ascending, non-empty paths);
        ``cells_dec`` the (decider, source) flattened-matrix index of each
        hop.  Returns per-hop ``trust`` levels, ``unknown`` cells and
        forward votes ``fwd``, and per game the decided-hop count
        ``n_dec`` (up to and including the first discard) and end-to-end
        ``success`` (no discard on the path).
        """
        c2 = state.ps_flat.take(cells_dec)
        f2 = state.pf_flat.take(cells_dec)
        unknown = c2 == 0
        np.maximum(c2, 1, out=c2)
        rate = f2 / c2
        trust = (rate > state.b0).astype(np.int64)
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
        fwd = state.strat_flat.take(bit) == 1

        # A hop decides only if every earlier hop of its path forwarded:
        # each game decides through its first discard, the smallest hop
        # position of its segment that discarded; ``n`` marks a game
        # without any.
        n = jc.size
        first = np.minimum.reduceat(np.where(fwd, n, np.arange(n)), starts)
        ends = np.empty_like(first)
        ends[:-1] = starts[1:]
        ends[-1:] = n
        n_dec = np.minimum(first + 1, ends)
        n_dec -= starts
        return trust, unknown, fwd, n_dec, first == n

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

        ``pairs`` are the (observer, subject) cell codes of all accepted
        packets-seen updates, ``pf_pairs`` the forwarded subset; both may
        repeat codes.  A code's ``// block`` is its observer id.  The
        known/pf_sum caches are updated incrementally over the touched
        cells only — ``known[row]`` grows by the distinct cells of the row
        whose ``ps`` was zero before the batch, ``pf_sum`` by the forwarded
        pairs of the row — so a commit costs O(pairs + m), not O(state).
        All state is integer, so the result equals the dense recompute
        exactly, whatever the order.
        """
        ps_flat, known, pf_sum = state.ps_flat, state.known, state.pf_sum
        m = known.size
        block = state.ps.shape[-1]
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
            known += np.bincount(crossed // block, minlength=m)
        np.add.at(ps_flat, pairs, 1)
        np.add.at(state.pf_flat, pf_pairs, 1)
        pf_sum += np.bincount(pf_pairs // block, minlength=m)

    def replay_decide(self, state, source, paths, req, delivered, csn_free):
        """Exact scalar replay of one conflicted game against live state.

        ``paths`` are the game's candidate paths as lists of node ids.
        Reads and writes the live state through ``state.views`` (plain
        Python arithmetic, the same float expressions in the same order as
        the sequential engines).  Mutates the request/delivery/csn counters
        and the per-node payoff accumulators; returns ``(deciders, flags,
        success)`` for the watchdog recurrence.
        """
        v = state.views
        block = v.block
        ps = v.ps
        pf = v.pf
        csn = v.csn
        strat = v.strat
        source_selfish = csn[source]

        # the game's nodes share the source's block: (s, j) is cell
        # s * block + j % block
        local = source % block
        base = source * block - (source - local)
        best = paths[0]
        best_r = -1.0
        for path in paths:
            r = 1.0
            for node in path:
                cell = ps[base + node]
                r *= (pf[base + node] / cell) if cell else 0.5
            if r > best_r:
                best = path
                best_r = r

        contains_csn = False
        for node in best:
            if csn[node]:
                contains_csn = True
                break
        csn_free[source_selfish * 2 + contains_csn] += 1

        req_base = 4 if source_selfish else 0
        b0, b1, b2, band = state.b0, state.b1, state.b2, state.band
        deciders: list[int] = []
        flags: list[bool] = []
        success = True
        for j in best:
            deciders.append(j)
            if csn[j]:
                # a selfish seat discards; its accumulators are dead state
                flags.append(False)
                req[req_base + 2] += 1
                success = False
                break
            c = j * block + local
            cell = ps[c]
            if cell == 0:
                level = state.default_trust
                forward = strat[j * STRATEGY_LENGTH + UNKNOWN_BIT] == 1
            else:
                seen_fwd = pf[c]
                rating = seen_fwd / cell
                if rating > b2:
                    level = 3
                elif rating > b1:
                    level = 2
                elif rating > b0:
                    level = 1
                else:
                    level = 0
                av = v.pf_sum[j] / v.known[j]
                if seen_fwd < av - band * av:
                    act = 0
                elif seen_fwd > av + band * av:
                    act = 2
                else:
                    act = 1
                forward = strat[j * STRATEGY_LENGTH + level * 3 + act] == 1
            flags.append(forward)
            if forward:
                req[req_base + 1] += 1
                v.fwd_pay_acc[j] += v.fwd_pay[level]
                v.n_fwd[j] += 1
            else:
                req[req_base] += 1
                v.disc_pay_acc[j] += v.disc_pay[level]
                v.n_disc[j] += 1
                success = False
                break

        v.send_pay[source] += state.src_success if success else state.src_failure
        v.n_sent[source] += 1
        delivered[source_selfish * 2 + success] += 1
        return deciders, flags, success

    def watchdog(self, state, source, deciders, flags, success):
        """The watchdog recurrence: every observer of a (partial) relay
        records what each decider did.  On failure the last decider saw
        no downstream behaviour and observes nothing."""
        v = state.views
        block = v.block
        ps = v.ps
        pf = v.pf
        known = v.known
        pf_sum = v.pf_sum
        off = source - source % block
        n_upd = len(deciders) if success else len(deciders) - 1
        for u in [source, *deciders[:n_upd]]:
            base = u * block - off
            for j, forward in zip(deciders, flags):
                if j != u:
                    c = base + j
                    if ps[c] == 0:
                        known[u] += 1
                    ps[c] += 1
                    if forward:
                        pf[c] += 1
                        pf_sum[u] += 1
