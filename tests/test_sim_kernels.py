"""Kernel contract (:mod:`repro.sim.kernels`).

Three layers of pinning:

* **Selection** — ``resolve_kernel`` maps every valid name to the numpy
  kernel, config validation, the ``TimedKernel`` telemetry wrapper.
* **Bit-identity of the numpy kernel** — the kernel refactor moved the
  engines' inline hot loops behind the op interface; the pinned digests
  below were recorded on the pre-kernel scalar code, so any drift in the
  kernel is a test failure, not a re-pin.
* **Op semantics** — the non-obvious vectorizations (the first-writer
  walk, the incremental commit) against their obvious dense oracles, the
  ragged rating and decision ops against the padded ops they replaced,
  and the memoryview replay against the numpy-scalar replay it replaced.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.strategy import STRATEGY_LENGTH, UNKNOWN_BIT
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication
from repro.sim import make_engine
from repro.sim.kernels import (
    KERNEL_NAMES,
    KernelState,
    TimedKernel,
    resolve_kernel,
)
from repro.sim.kernels.numpy_backend import NumpyKernel


def replication_digest(config: ExperimentConfig, replication: int = 0) -> str:
    result = run_replication(config, replication)
    blob = json.dumps(result.to_dict(), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestSelection:
    def test_kernel_names(self):
        assert KERNEL_NAMES == ("auto", "numpy")

    def test_numpy_always_resolves(self):
        assert resolve_kernel("numpy").name == "numpy"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_kernel("fortran")

    def test_auto_resolves_to_numpy(self):
        assert resolve_kernel("auto").name == "numpy"

    def test_config_validates_kernel_name(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            ExperimentConfig.for_case("case1", scale="smoke", kernel="fortran")

    def test_speculative_engines_run_the_numpy_kernel(self):
        assert isinstance(make_engine("fused", 10, 2)._kernel, NumpyKernel)


class TestTimedKernel:
    """Every op goes through its own ``kernel.<op>_s`` timer: perfbench's
    traced split reads the six rows, so an op whose wrapper stopped timing
    would silently drop out of ``sim.kernel.*``."""

    TIMERS = {
        "rate_paths": "kernel.rate_s",
        "decide": "kernel.decision_s",
        "first_writer": "kernel.walk_s",
        "commit": "kernel.commit_s",
        "replay_decide": "kernel.replay_s",
        "watchdog": "kernel.watchdog_s",
    }

    def test_first_writer_result_passes_through(self):
        from repro.telemetry.registry import MetricsRegistry

        registry = MetricsRegistry()
        timed = TimedKernel(NumpyKernel(), registry)
        assert timed.name == "numpy"
        # contract: the caller keeps the buffer filled between walks
        buf = np.full(7, 99, dtype=np.int64)
        # contract: pos ascending (game order), so the first writer wins
        codes = np.array([2, 2, 5], dtype=np.int64)
        pos = np.array([0, 1, 2], dtype=np.int64)
        timed.first_writer(buf, codes, pos)
        expected = np.full(7, 99, dtype=np.int64)
        np.minimum.at(expected, codes, pos)
        np.testing.assert_array_equal(buf, expected)

    def test_each_op_adds_one_count_to_its_timer(self):
        from repro.telemetry.registry import MetricsRegistry

        rng = np.random.default_rng(5)
        ps, pf = prior_state(rng, 12, density=0.5)
        state = commit_state(ps, pf).with_views()
        registry = MetricsRegistry()
        timed = TimedKernel(NumpyKernel(), registry)

        def counts():
            timers = registry.snapshot()["timers"]
            return {
                op: timers.get(timer, {}).get("count", 0)
                for op, timer in self.TIMERS.items()
            }

        jc = np.array([3, 4, 5], dtype=np.int64)
        starts = np.array([0, 2], dtype=np.int64)
        calls = {
            "rate_paths": lambda: timed.rate_paths(state, jc * 12, starts),
            "decide": lambda: timed.decide(state, jc, jc * 12 + 1, starts),
            "first_writer": lambda: timed.first_writer(
                np.full(4, 9, dtype=np.int64), np.array([1]), np.array([0])
            ),
            "commit": lambda: timed.commit(state, np.array([13, 14]), np.array([13])),
            "replay_decide": lambda: timed.replay_decide(
                state, 1, [[3, 4], [5]], [0] * 9, [0] * 4, [0] * 4
            ),
            "watchdog": lambda: timed.watchdog(state, 1, [3, 4], [True, False], False),
        }
        for op, call in calls.items():
            before = counts()
            call()
            after = counts()
            assert after[op] == before[op] + 1, op
            assert sum(after.values()) == sum(before.values()) + 1, op


class TestFirstWriterParity:
    """The conflict walk is the one op with a non-obvious vectorization
    (reversed scatter-assign standing in for ``minimum.at`` on ascending
    positions) — pin it directly against the obvious semantics for every
    kernel name, under the no-fill contract: the buffer holds the fill value
    between walks, the op writes only the given codes, and the caller's
    reset of those codes restores the fill everywhere."""

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    @pytest.mark.parametrize("seed", [0, 7, 991])
    def test_matches_minimum_at(self, name, seed):
        kernel = resolve_kernel(name)
        rng = np.random.default_rng(seed)
        n_codes, n_events, fill = 50, 200, 1 << 60
        buf = np.full(n_codes, fill, dtype=np.int64)
        # several walks through one buffer, as successive rounds make them
        for _ in range(3):
            codes = rng.integers(0, n_codes, size=n_events).astype(np.int64)
            pos = np.sort(rng.integers(0, 10_000, size=n_events)).astype(np.int64)
            kernel.first_writer(buf, codes, pos)
            expected = np.full(n_codes, fill, dtype=np.int64)
            np.minimum.at(expected, codes, pos)
            np.testing.assert_array_equal(buf, expected)
            buf[codes] = fill
            np.testing.assert_array_equal(buf, fill)


def dense_commit(ps, pf, pairs, pf_pairs):
    """The pre-incremental commit, kept as the oracle: dense scatter-add,
    then ``known``/``pf_sum`` recomputed from the whole matrices."""
    ps, pf = ps.copy(), pf.copy()
    mm = ps.size
    ps.reshape(-1)[:] += np.bincount(pairs, minlength=mm)
    pf.reshape(-1)[:] += np.bincount(pf_pairs, minlength=mm)
    return ps, pf, np.count_nonzero(ps, axis=1), pf.sum(axis=1)


def commit_state(ps: np.ndarray, pf: np.ndarray) -> KernelState:
    """A kernel state over ``ps``/``pf`` with exact caches; commit reads
    nothing else, so the remaining fields are inert placeholders."""
    m = ps.shape[0]
    zeros_f = np.zeros(m, dtype=np.float64)
    zeros_i = np.zeros(m, dtype=np.int64)
    return KernelState(
        ps=ps,
        pf=pf,
        ps_flat=ps.reshape(-1),
        pf_flat=pf.reshape(-1),
        known=np.count_nonzero(ps, axis=1),
        pf_sum=pf.sum(axis=1),
        strat_flat=np.zeros(m * 13, dtype=np.int8),
        csn_lookup=np.zeros(m, dtype=bool),
        b0=0.25,
        b1=0.5,
        b2=0.75,
        band=0.2,
        fwd_pay=np.zeros(4),
        disc_pay=np.zeros(4),
        default_trust=1,
        src_success=1.0,
        src_failure=0.0,
        send_pay=zeros_f,
        n_sent=zeros_i,
        fwd_pay_acc=zeros_f,
        n_fwd=zeros_i,
        disc_pay_acc=zeros_f,
        n_disc=zeros_i,
    )


def prior_state(rng, m, density):
    """Reputation matrices with roughly ``density`` of the cells seen."""
    ps = np.zeros((m, m), dtype=np.int64)
    mask = rng.random((m, m)) < density
    ps[mask] = rng.integers(1, 40, size=int(mask.sum()))
    pf = np.floor(ps * rng.random((m, m))).astype(np.int64)
    return ps, pf


def forwarded(rng, pairs):
    return pairs[rng.random(pairs.size) < 0.6]


def duplicate_heavy(rng, m):
    # a code pool of m cells for 12 m pairs, so most codes repeat; three
    # successive batches, each meeting the previous one's output
    ps, pf = prior_state(rng, m, density=0.3)
    pool = rng.integers(0, m * m, size=m)
    batches = []
    for _ in range(3):
        pairs = rng.choice(pool, size=12 * m).astype(np.int32)
        batches.append((pairs, forwarded(rng, pairs)))
    return ps, pf, batches


def crossing_zero(rng, m):
    # every code is a zero cell, each repeated 1-4 times, interleaved
    ps, pf = prior_state(rng, m, density=0.2)
    codes = rng.choice(np.flatnonzero(ps.reshape(-1) == 0), size=3 * m, replace=False)
    pairs = np.repeat(codes, rng.integers(1, 5, size=codes.size))
    pairs = rng.permutation(pairs).astype(np.int32)
    return ps, pf, [(pairs, forwarded(rng, pairs))]


def empty_forwarded(rng, m):
    ps, pf = prior_state(rng, m, density=0.1)
    pairs = rng.integers(0, m * m, size=4 * m).astype(np.int32)
    return ps, pf, [(pairs, pairs[:0])]


def empty_batch(rng, m):
    ps, pf = prior_state(rng, m, density=0.1)
    empty = np.zeros(0, dtype=np.int32)
    return ps, pf, [(empty, empty)]


def top_codes(rng, m):
    # the last two rows, the final cell m^2 - 1 several times over
    ps, pf = prior_state(rng, m, density=0.5)
    pairs = (m * m - 1 - rng.integers(0, 2 * m, size=6 * m)).astype(np.int32)
    pairs[:5] = m * m - 1
    return ps, pf, [(pairs, forwarded(rng, pairs))]


def from_zero_state(rng, m):
    # an empty generation filling up batch by batch, as rounds do
    ps = np.zeros((m, m), dtype=np.int64)
    batches = []
    for _ in range(10):
        pairs = rng.integers(0, m * m // 8, size=2 * m).astype(np.int32)
        batches.append((pairs, forwarded(rng, pairs)))
    return ps, ps.copy(), batches


COMMIT_CASES = {
    "duplicate_heavy": duplicate_heavy,
    "crossing_zero": crossing_zero,
    "empty_forwarded": empty_forwarded,
    "empty_batch": empty_batch,
    "top_codes": top_codes,
    "from_zero_state": from_zero_state,
}


class TestCommitParity:
    """``commit`` updates ``known``/``pf_sum`` incrementally; the dense
    recompute it replaced is the oracle.  Both matrix orders the engines
    run at: one block (m = 130, unstacked fused) and a 4-wide
    stack (m = 520)."""

    ORDERS = [130, 520]

    @staticmethod
    def check(case, m):
        ps, pf, batches = COMMIT_CASES[case](np.random.default_rng(m), m)
        state = commit_state(ps, pf)
        kernel = NumpyKernel()
        for pairs, pf_pairs in batches:
            want = dense_commit(state.ps, state.pf, pairs, pf_pairs)
            kernel.commit(state, pairs, pf_pairs)
            for got, expected in zip(
                (state.ps, state.pf, state.known, state.pf_sum), want
            ):
                np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("m", ORDERS)
    @pytest.mark.parametrize("case", sorted(COMMIT_CASES))
    def test_matches_dense_recompute(self, case, m):
        self.check(case, m)


def scalar_replay_decide(state, source, nodes, lens, req, delivered, csn_free):
    """The numpy-scalar replay the memoryview op replaced, kept verbatim
    as the oracle: it indexes the 2-D matrices and reads numpy scalars."""
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


def scalar_watchdog(state, source, deciders, flags, success):
    """The numpy-scalar watchdog recurrence, kept verbatim as the oracle."""
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


def replay_state(rng, m, n_csn):
    """A random live state for the replay ops: small integer counts, so
    rates land exactly on the trust bounds and activity band edges; about
    a third of the cells unknown; uneven float payoff accumulators, so a
    reordered sum would show in the last bit."""
    ps, pf = prior_state(rng, m, density=0.65)
    ps[ps > 0] = rng.integers(1, 9, size=int((ps > 0).sum()))
    pf = np.floor(ps * rng.random((m, m)) * 1.2).astype(np.int64)
    np.minimum(pf, ps, out=pf)
    # mostly-forwarding strategies, so drops happen deep in paths too
    strat = (rng.random(m * STRATEGY_LENGTH) < 0.8).astype(np.int8)
    csn = np.zeros(m, dtype=bool)
    csn[m - n_csn :] = True
    strat.reshape(m, STRATEGY_LENGTH)[csn] = 0
    return KernelState(
        ps=ps,
        pf=pf,
        ps_flat=ps.reshape(-1),
        pf_flat=pf.reshape(-1),
        known=np.count_nonzero(ps, axis=1),
        pf_sum=pf.sum(axis=1),
        strat_flat=strat,
        csn_lookup=csn,
        b0=0.25,
        b1=0.5,
        b2=0.75,
        band=0.25,
        fwd_pay=rng.random(4) * 3,
        disc_pay=rng.random(4) * 3,
        default_trust=1,
        src_success=5.0,
        src_failure=0.1,
        send_pay=rng.random(m) * 100,
        n_sent=rng.integers(0, 50, size=m),
        fwd_pay_acc=rng.random(m) * 100,
        n_fwd=rng.integers(0, 50, size=m),
        disc_pay_acc=rng.random(m) * 100,
        n_disc=rng.integers(0, 50, size=m),
    )


def copy_state(state: KernelState) -> KernelState:
    """An independent deep copy (fresh arrays, fresh flat views)."""
    fields = {
        k: (v.copy() if isinstance(v, np.ndarray) else v)
        for k, v in state._asdict().items()
        if k != "views"
    }
    fields["ps_flat"] = fields["ps"].reshape(-1)
    fields["pf_flat"] = fields["pf"].reshape(-1)
    return KernelState(**fields)


ARRAY_FIELDS = (
    "ps", "pf", "known", "pf_sum", "send_pay", "n_sent",
    "fwd_pay_acc", "n_fwd", "disc_pay_acc", "n_disc",
)


class TestReplayParity:
    """The memoryview ``replay_decide`` + ``watchdog`` against the
    numpy-scalar pair they replaced: over a stream of games on a random
    live state, every matrix, cache, payoff accumulator and counter row
    must stay bitwise equal, game by game."""

    @staticmethod
    def random_game(rng, m, n_csn, source):
        """A game's candidate paths: 1-4 paths of 1-5 distinct nodes (never
        the source); sometimes a duplicated path (an exact rating tie) or a
        path through a selfish seat."""
        others = np.delete(np.arange(m), source)
        paths = [
            rng.choice(others, size=int(rng.integers(1, 6)), replace=False).tolist()
            for _ in range(int(rng.integers(1, 5)))
        ]
        if rng.random() < 0.2:
            paths.append(list(paths[0]))
        if rng.random() < 0.3:
            csn_node = int(rng.integers(m - n_csn, m))
            if csn_node != source and csn_node not in paths[-1]:
                paths[-1].insert(int(rng.integers(0, len(paths[-1]) + 1)), csn_node)
        return paths

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_memoryview_ops_match_numpy_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m, n_csn = 24, 4
        want = replay_state(rng, m, n_csn)
        got = copy_state(want).with_views()
        counters_want = [np.zeros(n, dtype=np.int64) for n in (9, 4, 4)]
        counters_got = [np.zeros(n, dtype=np.int64) for n in (9, 4, 4)]
        views = [memoryview(c) for c in counters_got]
        kernel = NumpyKernel()
        seen = {"unknown": 0, "tie": 0, "csn": 0, "full": 0}
        drops = set()
        for _ in range(600):
            source = int(rng.integers(0, m))
            paths = self.random_game(rng, m, n_csn, source)
            width = max(len(p) for p in paths)
            nodes = np.array([p + [-1] * (width - len(p)) for p in paths])
            lens = np.array([len(p) for p in paths])
            seen["tie"] += any(paths[0] == p for p in paths[1:])
            seen["unknown"] += any(
                want.ps[source, n] == 0 for p in paths for n in p
            )
            d_want, f_want, s_want = scalar_replay_decide(
                want, source, nodes, lens, *counters_want
            )
            scalar_watchdog(want, source, d_want, f_want, s_want)
            d_got, f_got, s_got = kernel.replay_decide(got, source, paths, *views)
            kernel.watchdog(got, source, d_got, f_got, s_got)

            assert d_got == d_want.tolist()
            assert f_got == f_want.tolist()
            assert s_got == s_want
            seen["csn"] += bool(want.csn_lookup[d_want].any())
            if s_want:
                seen["full"] += 1
            else:
                drops.add(len(d_want) - 1)
            for name in ARRAY_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b, err_msg=name, strict=True)
                assert a.tobytes() == b.tobytes(), name
            for a, b in zip(counters_got, counters_want):
                np.testing.assert_array_equal(a, b)
        # the stream covered what it is meant to
        assert all(seen.values()), seen
        assert {0, 1, 2, 3, 4} <= drops, drops


def stack_states(states: list[KernelState]) -> KernelState:
    """The ``(R, block, block)`` state of ``R = len(states)`` replications,
    replication ``r``'s arrays as its block; the scalar parameters are
    ``states[0]``'s (the caller makes them shared)."""
    per_id = {
        name: np.concatenate([getattr(s, name) for s in states])
        for name in ARRAY_FIELDS + ("strat_flat", "csn_lookup")
        if name not in ("ps", "pf")
    }
    ps = np.stack([s.ps for s in states])
    pf = np.stack([s.pf for s in states])
    return states[0]._replace(
        ps=ps, pf=pf, ps_flat=ps.reshape(-1), pf_flat=pf.reshape(-1), **per_id
    )


def assert_blocks_equal(stacked: KernelState, states: list[KernelState]) -> None:
    """Every block of ``stacked`` bitwise equal to its replication's state."""
    block = states[0].ps.shape[-1]
    for r, state in enumerate(states):
        ids = slice(r * block, (r + 1) * block)
        for name in ARRAY_FIELDS:
            got = getattr(stacked, name)
            got = got[r] if name in ("ps", "pf") else got[ids]
            want = getattr(state, name)
            assert got.tobytes() == want.tobytes(), (r, name)


class TestStackedStateOps:
    """The state-mutating ops on a stacked ``(R, block, block)`` state
    equal the same ops run on each replication's own ``R = 1`` state: a
    replication's pair ``(s, j)`` is cell ``r * block^2`` past its code in
    its own state, and its node ids ``r * block`` past its own."""

    R, BLOCK, N_CSN = 3, 24, 4

    def states(self, rng):
        states = [replay_state(rng, self.BLOCK, self.N_CSN) for _ in range(self.R)]
        shared = {"fwd_pay": states[0].fwd_pay, "disc_pay": states[0].disc_pay}
        return [s._replace(**shared) for s in states]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_commit_matches_per_replication(self, seed):
        rng = np.random.default_rng(seed)
        states = self.states(rng)
        stacked = stack_states(states)
        kernel = NumpyKernel()
        cells = self.BLOCK * self.BLOCK
        for _ in range(4):
            pairs, pf_pairs = [], []
            for r, state in enumerate(states):
                # a small pool of codes, so most repeat, zero cells included
                pool = rng.integers(0, cells, size=self.BLOCK)
                own = rng.choice(pool, size=3 * self.BLOCK)
                own_pf = forwarded(rng, own)
                kernel.commit(state, own, own_pf)
                pairs.append(own + r * cells)
                pf_pairs.append(own_pf + r * cells)
            # one interleaved batch over every replication
            kernel.commit(
                stacked,
                rng.permutation(np.concatenate(pairs)),
                rng.permutation(np.concatenate(pf_pairs)),
            )
            assert_blocks_equal(stacked, states)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_replay_and_watchdog_match_per_replication(self, seed):
        rng = np.random.default_rng(seed)
        states = [s.with_views() for s in self.states(rng)]
        stacked = stack_states(states).with_views()
        kernel = NumpyKernel()
        own_counters = [
            [np.zeros(n, dtype=np.int64) for n in (9, 4, 4)] for _ in states
        ]
        stacked_counters = [
            [np.zeros(n, dtype=np.int64) for n in (9, 4, 4)] for _ in states
        ]
        for _ in range(300):
            r = int(rng.integers(0, self.R))
            source = int(rng.integers(0, self.BLOCK))
            paths = TestReplayParity.random_game(rng, self.BLOCK, self.N_CSN, source)
            want = kernel.replay_decide(
                states[r], source, paths, *own_counters[r]
            )
            kernel.watchdog(states[r], source, *want)
            off = r * self.BLOCK
            deciders, flags, success = kernel.replay_decide(
                stacked,
                source + off,
                [[node + off for node in path] for path in paths],
                *stacked_counters[r],
            )
            kernel.watchdog(stacked, source + off, deciders, flags, success)
            assert deciders == [node + off for node in want[0]]
            assert (flags, success) == (want[1], want[2])
        assert_blocks_equal(stacked, states)
        for own, got in zip(own_counters, stacked_counters):
            for a, b in zip(own, got):
                np.testing.assert_array_equal(a, b)


def padded_rate_paths(state, cells, pad):
    """The padded ``rate_paths`` the ragged op replaced, kept verbatim as
    the oracle: ``(P, hmax)`` cells, padding columns rated 1.0."""
    counts = state.ps_flat.take(cells)
    zero = counts == 0
    np.maximum(counts, 1, out=counts)
    ratings = state.pf_flat.take(cells) / counts
    ratings[zero] = 0.5
    ratings[pad] = 1.0
    return ratings.prod(axis=1)


def padded_decide(state, jc, valid, cells_dec, trust, unknown, fwd, decided, success):
    """The padded ``decide`` the ragged op replaced, kept verbatim as the
    oracle: ``(G, hmax)`` deciders, a prefix scan over the votes."""
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

    prefix = np.logical_and.accumulate(fwd | ~valid, axis=1)
    np.copyto(decided, valid)
    decided[:, 1:] &= prefix[:, :-1]
    success[:] = prefix[:, -1]
    return decided.sum(axis=1)


def ragged_slate(rng, m, n_csn, n_games, hmax):
    """Games with 1-4 candidate paths of 1-``hmax`` distinct nodes (never
    the source), ragged: flat hop ids, per-path lengths and per-game path
    counts.  Some games repeat a path (an exact rating tie) or put a
    selfish seat on a path; a 1-hop and an ``hmax``-hop path always occur."""
    src = rng.integers(0, m, size=n_games)
    hops, lens, n_paths = [], [], []
    for g, s in enumerate(src.tolist()):
        others = np.delete(np.arange(m), s)
        paths = [
            rng.choice(others, size=int(rng.integers(1, hmax + 1)), replace=False)
            for _ in range(int(rng.integers(1, 5)))
        ]
        if g == 0:
            paths[0] = paths[0][:1]
        if g == 1:
            paths[0] = rng.choice(others, size=hmax, replace=False)
        if rng.random() < 0.2:
            paths.append(paths[0].copy())
        if rng.random() < 0.3:
            seat = int(rng.integers(m - n_csn, m))
            if seat != s and seat not in paths[-1]:
                at = int(rng.integers(0, len(paths[-1]) + 1))
                paths[-1] = np.insert(paths[-1], at, seat)[:hmax]
        n_paths.append(len(paths))
        for p in paths:
            hops.append(p)
            lens.append(len(p))
    return (
        src,
        np.concatenate(hops).astype(np.int64),
        np.asarray(lens, dtype=np.int64),
        np.asarray(n_paths, dtype=np.int64),
    )


def pad(flat, lens):
    """Flat hops back into ``(P, max(lens))`` rows, 0-padded, and the
    real-hop mask."""
    valid = np.arange(int(lens.max()))[None, :] < lens[:, None]
    out = np.zeros(valid.shape, dtype=flat.dtype)
    out[valid] = flat
    return out, valid


class TestRaggedOpParity:
    """The ragged ``rate_paths`` and ``decide`` against the padded ops
    they replaced, bitwise: the flat hops of a random slate are padded
    back into rows for the oracle, on live states with unknown cells,
    selfish seats, trust-bound and activity-band edges."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_ratings_and_choice_match_padded(self, seed):
        rng = np.random.default_rng(seed)
        m, n_csn, hmax = 40, 5, 7
        state = replay_state(rng, m, n_csn)
        src, hops, lens, n_paths = ragged_slate(rng, m, n_csn, 300, hmax)
        starts = np.cumsum(lens) - lens
        path_game = np.repeat(np.arange(src.size), n_paths)
        cells = np.repeat(src[path_game], lens) * m + hops
        got = NumpyKernel().rate_paths(state, cells, starts)
        grid, valid = pad(cells, lens)
        want = padded_rate_paths(state, grid, ~valid)
        assert got.tobytes() == want.tobytes()
        # the best path per game, first index on ties
        game_start = np.cumsum(n_paths) - n_paths
        col = np.arange(lens.size) - game_start[path_game]
        buf = np.full((src.size, int(n_paths.max())), -1.0)
        buf[path_game, col] = got
        chosen = buf.argmax(axis=1)
        ties = 0
        for g in range(src.size):
            r = want[game_start[g] : game_start[g] + n_paths[g]]
            assert chosen[g] == int(np.flatnonzero(r == r.max())[0])
            ties += int((r == r.max()).sum() > 1)
        assert ties > 0
        assert {1, hmax} <= set(lens.tolist())
        assert (state.ps_flat[cells] == 0).any()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_decisions_match_padded(self, seed):
        rng = np.random.default_rng(seed)
        m, n_csn, hmax = 40, 5, 7
        state = replay_state(rng, m, n_csn)
        src, hops, lens, n_paths = ragged_slate(rng, m, n_csn, 300, hmax)
        # one chosen path per game: its first candidate
        first = np.cumsum(n_paths) - n_paths
        starts_all = np.cumsum(lens) - lens
        jc = np.concatenate(
            [hops[starts_all[p] : starts_all[p] + lens[p]] for p in first]
        )
        glens = lens[first]
        starts = np.cumsum(glens) - glens
        cells_dec = jc * m + np.repeat(src, glens)
        trust, unknown, fwd, n_dec, success = NumpyKernel().decide(
            state, jc, cells_dec, starts
        )

        jc_g, valid = pad(jc, glens)
        cells_g, _ = pad(cells_dec, glens)
        shape = jc_g.shape
        w_trust = np.zeros(shape, dtype=np.int64)
        w_unknown, w_fwd, w_decided = (np.zeros(shape, dtype=bool) for _ in range(3))
        w_success = np.zeros(src.size, dtype=bool)
        w_n_dec = padded_decide(
            state, jc_g, valid, cells_g, w_trust, w_unknown, w_fwd, w_decided,
            w_success,
        )
        assert trust.tobytes() == w_trust[valid].tobytes()
        assert unknown.tobytes() == w_unknown[valid].tobytes()
        assert fwd.tobytes() == w_fwd[valid].tobytes()
        np.testing.assert_array_equal(n_dec, w_n_dec, strict=True)
        np.testing.assert_array_equal(success, w_success, strict=True)
        # a decided hop's vote follows from n_dec and success, which is
        # all the fold and the watchdog pairs keep of it
        cols = np.arange(shape[1])
        derived = w_decided & (
            (cols < (n_dec - 1)[:, None]) | success[:, None]
        )
        np.testing.assert_array_equal(derived, w_fwd & w_decided)
        # the slate covered what it is meant to
        assert unknown.any() and state.csn_lookup[jc].any()
        assert (~success & (n_dec == 1)).any(), "no drop at hop 0"
        assert (success & (glens >= 3)).any()
        assert {1, hmax} <= set(glens.tolist())


class TestRoundStateInvariants:
    """Over real runs, after every round pass and every second-chance
    pass: the incremental ``known``/``pf_sum`` caches equal the dense
    recompute, and the conflict walk's writer buffer is back to its fill
    value everywhere.  A stale first-writer entry would leak into the next
    round as a phantom conflict — a trajectory change the per-replication
    digests alone might not localize."""

    @staticmethod
    def install_checks(monkeypatch):
        """Check the invariants through a checking kernel and wrapped
        round passes; returns the pass counters."""
        import repro.sim.fused as fused_mod
        from repro.sim.fused import FusedEngine

        def assert_caches(ps, pf, known, pf_sum):
            # (R, block, block) state: observer rows of every block, in id
            # order
            np.testing.assert_array_equal(
                known, np.count_nonzero(ps, axis=-1).reshape(-1)
            )
            np.testing.assert_array_equal(pf_sum, pf.sum(axis=-1).reshape(-1))

        class CheckedKernel(NumpyKernel):
            def commit(self, state, pairs, pf_pairs):
                super().commit(state, pairs, pf_pairs)
                passes["commit"] += 1
                assert_caches(state.ps, state.pf, state.known, state.pf_sum)

        passes = {"round": 0, "second_chance": 0, "commit": 0}

        def checked(name, method):
            def wrapper(self, ctx, *args):
                method(self, ctx, *args)
                passes[name] += 1
                assert_caches(self.ps, self.pf, self.known, self.pf_sum)
                np.testing.assert_array_equal(ctx.writer_buf, ctx.walk_fill)

            return wrapper

        monkeypatch.setattr(fused_mod, "NumpyKernel", CheckedKernel)
        monkeypatch.setattr(
            FusedEngine,
            "_process_round",
            checked("round", FusedEngine._process_round),
        )
        monkeypatch.setattr(
            FusedEngine,
            "_second_chance",
            checked("second_chance", FusedEngine._second_chance),
        )
        return passes

    def test_caches_and_writer_buffer_after_every_pass(self, monkeypatch):
        from repro.experiments.replication import run_stack

        passes = self.install_checks(monkeypatch)
        config = ExperimentConfig.for_case(
            "case3", scale="smoke", engine="fused", seed=7, replications=4,
            generations=1, kernel="numpy",
        )
        run_stack(config, range(config.replications))
        assert passes["round"] > 0
        assert passes["second_chance"] > 0, "no second-chance pass exercised"
        assert passes["commit"] >= passes["round"]

    def test_exchange_walk_leaves_writer_buffer_filled(self, monkeypatch):
        # the gossip step between round passes writes the reputation state
        # behind the kernel's back; the next round's check sees whether it
        # kept the caches, on a stack of two
        from repro.experiments.replication import run_stack

        passes = self.install_checks(monkeypatch)
        config = ExperimentConfig.for_case(
            "exchange_core", scale="smoke", engine="fused", seed=7,
            replications=2, generations=1, kernel="numpy",
        )
        run_stack(config, range(config.replications))
        assert passes["round"] > 0
        assert passes["commit"] >= passes["round"]


class TestNumpyBitIdentity:
    """The numpy kernel IS the pre-kernel engine code: digests recorded on
    the inline implementation before the refactor must keep verifying."""

    PINNED = [
        ("fused", "case1", 1234, "5d931f9d1726a965"),
        ("fused", "case3", 1234, "d3e38025ad52b233"),
        # re-pinned when the gossip step moved into the stacked round pass
        ("fused", "exchange_core", 1234, "3bfee16c77d2d743"),
        # re-pinned for the canonical (cyclic) neighbour order;
        # the retired hash-order repair still gives c4af90387c207d1f
        # (tests/test_mobility_order_tier.py)
        ("fused", "mobile_gauss", 7, "9d538a72a0af9850"),
    ]

    @pytest.mark.parametrize("engine,case,seed,expected", PINNED)
    def test_pinned_digests(self, engine, case, seed, expected):
        config = ExperimentConfig.for_case(
            case, scale="smoke", engine=engine, seed=seed, kernel="numpy"
        )
        assert replication_digest(config) == expected

    def test_auto_is_numpy(self):
        config = ExperimentConfig.for_case(
            "case1", scale="smoke", engine="fused", seed=1234
        )
        assert config.kernel == "auto"
        assert replication_digest(config) == "5d931f9d1726a965"
