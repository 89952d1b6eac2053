"""Kernel backend contract (:mod:`repro.sim.kernels`).

Three layers of pinning:

* **Selection** — ``resolve_kernel`` policy (``auto`` prefers the compiled
  backend, explicit ``numba`` fails fast with the install hint), config and
  factory validation, the ``TimedKernel`` telemetry wrapper.
* **Bit-identity of the numpy backend** — the kernel refactor moved the
  engines' inline hot loops behind the op interface; the pinned digests
  below were recorded on the pre-kernel scalar code, so any drift in the
  reference backend is a test failure, not a re-pin.
* **Cross-backend parity** — every test that exercises op semantics is
  parametrized over the installed backends.  When numba is absent (the
  default container; the ``.[kernels]`` extra is optional) its parameter
  *skips visibly* rather than silently narrowing the suite; the compiled
  backend itself is held to the statistical-equivalence tier
  (``compare_samples``), not bit-identity — float reductions may associate
  differently under fusion.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication
from repro.sim import make_engine
from repro.sim.kernels import (
    KERNEL_NAMES,
    KernelState,
    TimedKernel,
    available_backends,
    numba_available,
    resolve_kernel,
)
from repro.sim.kernels.numpy_backend import NumpyKernel

needs_numba = pytest.mark.skipif(
    not numba_available(),
    reason="numba not installed (optional .[kernels] extra) — compiled"
    " backend untested on this machine",
)

#: Both backends when installed; the numba parameter skips *visibly*.
BACKENDS = [
    "numpy",
    pytest.param("numba", marks=needs_numba),
]


def replication_digest(config: ExperimentConfig, replication: int = 0) -> str:
    result = run_replication(config, replication)
    blob = json.dumps(result.to_dict(), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestSelection:
    def test_kernel_names(self):
        assert KERNEL_NAMES == ("auto", "numpy", "numba")

    def test_available_backends(self):
        avail = available_backends()
        assert avail["numpy"] is True
        assert set(avail) == {"numpy", "numba"}

    def test_numpy_always_resolves(self):
        kernel = resolve_kernel("numpy")
        assert kernel.name == "numpy"
        assert kernel.compiled is False

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_kernel("fortran")

    def test_auto_prefers_compiled_when_available(self):
        kernel = resolve_kernel("auto")
        if numba_available():
            assert kernel.name == "numba"
            assert kernel.compiled is True
        else:
            assert kernel.name == "numpy"

    @pytest.mark.skipif(
        numba_available(), reason="numba installed; the fail-fast path is moot"
    )
    def test_explicit_numba_fails_fast_with_install_hint(self):
        with pytest.raises(RuntimeError, match=r"\.\[kernels\]"):
            resolve_kernel("numba")

    def test_config_validates_kernel_name(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            ExperimentConfig.for_case("case1", scale="smoke", kernel="fortran")

    def test_config_rejects_numba_on_non_kernel_engine(self):
        with pytest.raises(ValueError, match="does not support kernel"):
            ExperimentConfig.for_case(
                "case1", scale="smoke", engine="batch", kernel="numba"
            )

    def test_factory_rejects_numba_on_non_kernel_engine(self):
        with pytest.raises(ValueError, match="does not support kernel"):
            make_engine("batch", 10, 2, kernel="numba")

    def test_factory_threads_kernel_to_capable_engines(self):
        for name in ("turbo", "fused"):
            engine = make_engine(name, 10, 2, kernel="numpy")
            assert engine.supports_kernel_backends
            assert engine.kernel_name == "numpy"
            assert engine._kernel.name == "numpy"

    def test_non_kernel_engines_tolerate_the_defaults(self):
        # "auto"/"numpy" mean "the reference semantics", which fixed
        # engines natively implement — only an explicit numba is an error
        for kernel in ("auto", "numpy"):
            engine = make_engine("batch", 10, 2, kernel=kernel)
            assert not getattr(engine, "supports_kernel_backends", False)


class TestTimedKernel:
    def test_wraps_and_times_ops(self):
        from repro.telemetry.registry import MetricsRegistry

        registry = MetricsRegistry()
        timed = TimedKernel(NumpyKernel(), registry)
        assert timed.name == "numpy"
        assert timed.compiled is False
        # contract: the caller keeps the buffer filled between walks
        buf = np.full(7, 99, dtype=np.int64)
        # contract: pos ascending (game order), so the first writer wins
        codes = np.array([2, 2, 5], dtype=np.int64)
        pos = np.array([0, 1, 2], dtype=np.int64)
        timed.first_writer(buf, codes, pos)
        expected = np.full(7, 99, dtype=np.int64)
        np.minimum.at(expected, codes, pos)
        np.testing.assert_array_equal(buf, expected)
        snapshot = registry.snapshot()
        assert snapshot["timers"]["kernel.walk_s"]["count"] == 1


class TestFirstWriterParity:
    """The conflict walk is the one op with a non-obvious vectorization
    (reversed scatter-assign standing in for ``minimum.at`` on ascending
    positions) — pin it directly against the obvious semantics on both
    backends, under the no-fill contract: the buffer holds the fill value
    between walks, the op writes only the given codes, and the caller's
    reset of those codes restores the fill everywhere."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 7, 991])
    def test_matches_minimum_at(self, backend, seed):
        kernel = resolve_kernel(backend)
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
    run at: one block (m = 130, turbo and unstacked fused) and a 4-wide
    stack (m = 520)."""

    ORDERS = [130, 520]

    @staticmethod
    def check(backend, case, m):
        ps, pf, batches = COMMIT_CASES[case](np.random.default_rng(m), m)
        state = commit_state(ps, pf)
        kernel = resolve_kernel(backend)
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
        self.check("numpy", case, m)

    @needs_numba
    def test_numba_matches_dense_recompute(self):
        # one visible skip for the whole matrix when numba is absent
        for case in COMMIT_CASES:
            for m in self.ORDERS:
                self.check("numba", case, m)


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
        import repro.sim.turbo as turbo_mod
        from repro.sim.fused import FusedEngine
        from repro.sim.turbo import TurboEngine

        def assert_caches(ps, pf, known, pf_sum):
            np.testing.assert_array_equal(known, np.count_nonzero(ps, axis=1))
            np.testing.assert_array_equal(pf_sum, pf.sum(axis=1))

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

        monkeypatch.setattr(turbo_mod, "resolve_kernel", lambda name: CheckedKernel())
        monkeypatch.setattr(
            TurboEngine,
            "_process_round",
            checked("round", TurboEngine._process_round),
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

    def test_turbo_walk_leaves_writer_buffer_filled(self, monkeypatch):
        # turbo walks through the same scoped path, as the (1, 1, n, m) case
        passes = self.install_checks(monkeypatch)
        config = ExperimentConfig.for_case(
            "case3", scale="smoke", engine="turbo", seed=7, generations=1,
            kernel="numpy",
        )
        run_replication(config, 0)
        assert passes["round"] > 0
        assert passes["second_chance"] == 0
        assert passes["commit"] >= passes["round"]


class TestNumpyBitIdentity:
    """The numpy backend IS the pre-kernel engine code: digests recorded on
    the inline implementation before the refactor must keep verifying."""

    PINNED = [
        ("turbo", "case1", 1234, "68970e5a3bb396ae"),
        ("turbo", "case3", 1234, "fdd6e5abf8a9a80d"),
        ("turbo", "exchange_core", 1234, "670a6c26e4788d12"),
        ("turbo", "mobile_gauss", 7, "98d652ad93e77a57"),
        ("fused", "case1", 1234, "5d931f9d1726a965"),
        ("fused", "case3", 1234, "d3e38025ad52b233"),
        ("fused", "exchange_core", 1234, "2e6ad40dcbdf84a6"),
        ("fused", "mobile_gauss", 7, "c4af90387c207d1f"),
    ]

    @pytest.mark.parametrize("engine,case,seed,expected", PINNED)
    def test_pinned_digests(self, engine, case, seed, expected):
        config = ExperimentConfig.for_case(
            case, scale="smoke", engine=engine, seed=seed, kernel="numpy"
        )
        assert replication_digest(config) == expected

    def test_auto_is_numpy_when_numba_absent(self):
        if numba_available():
            pytest.skip("numba installed; auto resolves to the compiled backend")
        config = ExperimentConfig.for_case(
            "case1", scale="smoke", engine="fused", seed=1234
        )
        assert config.kernel == "auto"
        assert replication_digest(config) == "5d931f9d1726a965"


@needs_numba
class TestNumbaStatisticalEquivalence:
    """Gate the compiled backend on the same distributional tier that
    admits turbo/fused: KS + Mann-Whitney on cooperation and fitness
    samples, numpy-kernel vs numba-kernel ensembles."""

    def test_distributions_match(self):
        from repro.analysis.equivalence import (
            collect_engine_samples,
            compare_samples,
        )

        config = ExperimentConfig.for_case(
            "case3", scale="smoke", seed=424243, engine="fused"
        )
        reference = collect_engine_samples(config.with_(kernel="numpy"), 20)
        compiled = collect_engine_samples(config.with_(kernel="numba"), 20)
        report = compare_samples(reference[0], compiled[0], alpha=0.01)
        assert report.equivalent, report
