"""Optional ``@njit``-compiled kernel backend (``.[kernels]`` extra).

Importing this module requires numba; :func:`repro.sim.kernels.resolve_kernel`
gates the import so environments without the extra never touch it.  The ops
mirror the numpy reference semantics loop-for-loop, but compiled loops fuse
the gather/compare/scatter chains the numpy backend pays one pass each for.
Float reductions may associate differently, so this backend is certified by
the statistical-equivalence tier (KS / Mann-Whitney / Fig.-4 band), not
bit-identity — see ``tests/test_sim_kernels.py`` and the CI ``kernels`` job.
"""

from __future__ import annotations

import numpy as np
from numba import njit

from repro.core.strategy import STRATEGY_LENGTH, UNKNOWN_BIT

__all__ = ["NumbaKernel"]

_UNKNOWN_BIT = int(UNKNOWN_BIT)
_STRAT_LEN = int(STRATEGY_LENGTH)


@njit(cache=True)
def _rate_paths(ps_flat, pf_flat, cells, pad):
    n, h = cells.shape
    out = np.empty(n, dtype=np.float64)
    for p in range(n):
        r = 1.0
        for x in range(h):
            if pad[p, x]:
                continue
            cell = cells[p, x]
            c = ps_flat[cell]
            r *= (pf_flat[cell] / c) if c else 0.5
        out[p] = r
    return out


@njit(cache=True)
def _decide(
    ps_flat,
    pf_flat,
    known,
    pf_sum,
    strat_flat,
    b0,
    b1,
    b2,
    band,
    jc,
    valid,
    cells_dec,
    trust,
    unknown,
    fwd,
    decided,
    success,
):
    n, h = jc.shape
    n_dec = np.zeros(n, dtype=np.int64)
    for g in range(n):
        alive = True
        ok = True
        for x in range(h):
            j = jc[g, x]
            cell = cells_dec[g, x]
            c = ps_flat[cell]
            f = pf_flat[cell]
            if c == 0:
                unknown[g, x] = True
                trust[g, x] = 0
                bit = _UNKNOWN_BIT
            else:
                unknown[g, x] = False
                rate = f / c
                t = 0
                if rate > b0:
                    t += 1
                if rate > b1:
                    t += 1
                if rate > b2:
                    t += 1
                trust[g, x] = t
                kn = known[j]
                if kn < 1:
                    kn = 1
                av = pf_sum[j] / kn
                delta = band * av
                act = 1
                if f > av + delta:
                    act = 2
                elif f < av - delta:
                    act = 0
                bit = t * 3 + act
            f_vote = valid[g, x] and strat_flat[j * _STRAT_LEN + bit] == 1
            fwd[g, x] = f_vote
            d = valid[g, x] and alive
            decided[g, x] = d
            if d:
                n_dec[g] += 1
            if valid[g, x]:
                if not f_vote:
                    ok = False
                if alive and not f_vote:
                    alive = False
        success[g] = ok
    return n_dec


@njit(cache=True)
def _first_writer(buf, codes, pos):
    for i in range(len(codes) - 1, -1, -1):
        buf[codes[i]] = pos[i]


@njit(cache=True)
def _commit(ps_flat, pf_flat, known, pf_sum, pairs, pf_pairs):
    m = known.shape[0]
    for i in range(len(pairs)):
        cell = pairs[i]
        if ps_flat[cell] == 0:
            known[cell // m] += 1
        ps_flat[cell] += 1
    for i in range(len(pf_pairs)):
        cell = pf_pairs[i]
        pf_flat[cell] += 1
        pf_sum[cell // m] += 1


@njit(cache=True)
def _replay_decide(
    ps,
    pf,
    known,
    pf_sum,
    strat_flat,
    csn_lookup,
    b0,
    b1,
    b2,
    band,
    fwd_pay,
    disc_pay,
    default_trust,
    src_success,
    src_failure,
    send_pay,
    n_sent,
    fwd_pay_acc,
    n_fwd,
    disc_pay_acc,
    n_disc,
    source,
    nodes,
    lens,
    req,
    delivered,
    csn_free,
):
    source_selfish = 1 if csn_lookup[source] else 0
    n_paths = len(lens)
    best_i = 0
    best_r = -1.0
    for i in range(n_paths):
        r = 1.0
        for x in range(lens[i]):
            node = nodes[i, x]
            cell = ps[source, node]
            r *= (pf[source, node] / cell) if cell else 0.5
        if r > best_r:
            best_i = i
            best_r = r
    plen = lens[best_i]

    contains_csn = 0
    for x in range(plen):
        if csn_lookup[nodes[best_i, x]]:
            contains_csn = 1
            break
    csn_free[source_selfish * 2 + contains_csn] += 1

    deciders = np.empty(plen, dtype=np.int64)
    flags = np.zeros(plen, dtype=np.bool_)
    trusts = np.empty(plen, dtype=np.int64)
    n_decided = 0
    success = True
    req_base = 4 if source_selfish else 0
    for x in range(plen):
        j = nodes[best_i, x]
        if csn_lookup[j]:
            forward = False
            trust = -1
            req[req_base + 2] += 1
        else:
            cell = ps[j, source]
            if cell == 0:
                trust = -1
                forward = strat_flat[j * _STRAT_LEN + _UNKNOWN_BIT] == 1
            else:
                fj = pf[j, source]
                rating = fj / cell
                if rating > b2:
                    trust = 3
                elif rating > b1:
                    trust = 2
                elif rating > b0:
                    trust = 1
                else:
                    trust = 0
                av = pf_sum[j] / known[j]
                if fj < av - band * av:
                    act = 0
                elif fj > av + band * av:
                    act = 2
                else:
                    act = 1
                forward = strat_flat[j * _STRAT_LEN + trust * 3 + act] == 1
            if forward:
                req[req_base + 1] += 1
            else:
                req[req_base] += 1
        deciders[n_decided] = j
        flags[n_decided] = forward
        trusts[n_decided] = trust
        n_decided += 1
        if not forward:
            success = False
            break

    send_pay[source] += src_success if success else src_failure
    n_sent[source] += 1
    for idx in range(n_decided):
        j = deciders[idx]
        if csn_lookup[j]:
            continue
        t = trusts[idx]
        level = default_trust if t < 0 else t
        if flags[idx]:
            fwd_pay_acc[j] += fwd_pay[level]
            n_fwd[j] += 1
        else:
            disc_pay_acc[j] += disc_pay[level]
            n_disc[j] += 1

    delivered[source_selfish * 2 + (1 if success else 0)] += 1
    return deciders[:n_decided], flags[:n_decided], success


@njit(cache=True)
def _watchdog(ps, pf, known, pf_sum, source, deciders, flags, success):
    n_decided = len(deciders)
    n_upd = n_decided if success else n_decided - 1
    for t in range(-1, n_upd):
        u = source if t < 0 else deciders[t]
        for idx in range(n_decided):
            j = deciders[idx]
            if j != u:
                if ps[u, j] == 0:
                    known[u] += 1
                ps[u, j] += 1
                if flags[idx]:
                    pf[u, j] += 1
                    pf_sum[u] += 1


class NumbaKernel:
    """Compiled implementation of the kernel ops (statistical tier)."""

    name = "numba"
    compiled = True

    def rate_paths(self, state, cells, pad):
        return _rate_paths(state.ps_flat, state.pf_flat, cells, pad)

    def decide(self, state, jc, valid, cells_dec, trust, unknown, fwd, decided, success):
        return _decide(
            state.ps_flat,
            state.pf_flat,
            state.known,
            state.pf_sum,
            state.strat_flat,
            state.b0,
            state.b1,
            state.b2,
            state.band,
            np.ascontiguousarray(jc),
            np.ascontiguousarray(valid),
            np.ascontiguousarray(cells_dec),
            trust,
            unknown,
            fwd,
            decided,
            success,
        )

    def first_writer(self, buf, codes, pos):
        _first_writer(buf, codes, pos)

    def commit(self, state, pairs, pf_pairs):
        _commit(
            state.ps_flat,
            state.pf_flat,
            state.known,
            state.pf_sum,
            pairs,
            pf_pairs,
        )

    def replay_decide(self, state, source, nodes, lens, req, delivered, csn_free):
        deciders, flags, success = _replay_decide(
            state.ps,
            state.pf,
            state.known,
            state.pf_sum,
            state.strat_flat,
            state.csn_lookup,
            state.b0,
            state.b1,
            state.b2,
            state.band,
            state.fwd_pay,
            state.disc_pay,
            state.default_trust,
            state.src_success,
            state.src_failure,
            state.send_pay,
            state.n_sent,
            state.fwd_pay_acc,
            state.n_fwd,
            state.disc_pay_acc,
            state.n_disc,
            source,
            np.ascontiguousarray(nodes),
            np.ascontiguousarray(lens),
            req,
            delivered,
            csn_free,
        )
        return deciders, flags, bool(success)

    def watchdog(self, state, source, deciders, flags, success):
        _watchdog(
            state.ps,
            state.pf,
            state.known,
            state.pf_sum,
            source,
            deciders,
            flags,
            success,
        )
