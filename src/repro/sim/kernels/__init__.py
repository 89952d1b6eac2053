"""The compute kernel of the speculative engines.

The turbo/fused engines are numpy-orchestrated, but their inner loops fall
into five narrow, state-free *ops* — path rating, the per-round decision
gather/scatter, the first-writer conflict walk, the batched reputation
commit, and the exact scalar conflict-replay with its watchdog recurrence.
:class:`~repro.sim.kernels.numpy_backend.NumpyKernel` implements them; it
*is* the pre-kernel engine code, moved, and its results are bit-identical
to the historical inline implementation (pinned by
``tests/test_sim_kernels.py``).

Two op contracts carry the engines' per-round cost, so a round's state
work is O(cells it touches) — independent of the matrix order ``m``, which
grows with the stack width of a stacked fused engine:

* ``first_writer(buf, codes, pos)`` writes only ``buf[codes]``.  The
  buffer holds the walk's fill value everywhere *between* calls: the
  caller fills it once when it allocates it and, after reading the
  result, restores the codes it wrote.  No call re-fills the buffer.
* ``commit(state, pairs, pf_pairs)`` scatter-adds the pairs (duplicates
  allowed) into ``ps``/``pf`` and updates the ``known``/``pf_sum`` caches
  incrementally on the touched rows; afterwards ``known`` equals the
  nonzero count of each ``ps`` row and ``pf_sum`` each ``pf`` row sum,
  exactly.

The op boundary exists for attribution: :class:`TimedKernel` wraps the
kernel with per-op telemetry timers (``kernel.decision_s`` /
``kernel.replay_s`` / ``kernel.watchdog_s`` / ...), which
``scripts/profile_engine.py`` and the benchmark's layer split read; engines
only apply it when telemetry is enabled, preserving the zero-overhead
contract.  ``ExperimentConfig.kernel`` still names the kernel (it is part
of every ``config_hash``), but both spellings resolve to numpy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "KERNEL_NAMES",
    "KernelState",
    "TimedKernel",
    "resolve_kernel",
]

#: Valid ``ExperimentConfig.kernel`` spellings; both resolve to numpy.
KERNEL_NAMES = ("auto", "numpy")


class KernelState(NamedTuple):
    """The engine state a kernel op may read or mutate, as one bundle.

    Array fields are *views* of the owning engine's arrays (mutated in
    place by ``commit`` / ``watchdog`` / ``replay_decide``); scalars are
    the engine's trust/activity/payoff parameters.  Engines rebuild the
    bundle per entry point — allocation is a handful of references.
    """

    ps: np.ndarray  # (m, m) int64 — packets seen, observer x subject
    pf: np.ndarray  # (m, m) int64 — packets forwarded
    ps_flat: np.ndarray  # the (m*m,) views the gather/scatter ops use
    pf_flat: np.ndarray
    known: np.ndarray  # (m,) int64 — nonzero ps cells per observer
    pf_sum: np.ndarray  # (m,) int64 — row sums of pf
    strat_flat: np.ndarray  # (m * STRATEGY_LENGTH,) int8, CSN rows zero
    csn_lookup: np.ndarray  # (m,) bool — is this id a selfish seat?
    b0: float  # trust bounds (4-level table)
    b1: float
    b2: float
    band: float  # activity band
    fwd_pay: np.ndarray  # (4,) float64 — forward payoff by trust level
    disc_pay: np.ndarray  # (4,) float64 — discard payoff by trust level
    default_trust: int
    src_success: float
    src_failure: float
    send_pay: np.ndarray  # (m,) float64 — per-node payoff accumulators
    n_sent: np.ndarray  # (m,) int64
    fwd_pay_acc: np.ndarray
    n_fwd: np.ndarray
    disc_pay_acc: np.ndarray
    n_disc: np.ndarray


def resolve_kernel(name: str = "auto"):
    """The kernel for ``name`` — :class:`NumpyKernel` for every valid name."""
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel backend {name!r} (expected one of {KERNEL_NAMES})"
        )
    from repro.sim.kernels.numpy_backend import NumpyKernel

    return NumpyKernel()


class TimedKernel:
    """Per-op telemetry timing around a kernel.

    One timer per op, named ``kernel.<op>_s``; engines install the wrapper
    only when telemetry is enabled, so the disabled path never pays it.
    """

    def __init__(self, inner, registry):
        self._inner = inner
        self._rate = registry.timer("kernel.rate_s")
        self._decision = registry.timer("kernel.decision_s")
        self._walk = registry.timer("kernel.walk_s")
        self._commit = registry.timer("kernel.commit_s")
        self._replay = registry.timer("kernel.replay_s")
        self._watchdog = registry.timer("kernel.watchdog_s")

    @property
    def name(self) -> str:
        return self._inner.name

    def rate_paths(self, state, cells, pad):
        with self._rate.time():
            return self._inner.rate_paths(state, cells, pad)

    def decide(self, state, jc, valid, cells_dec, trust, unknown, fwd, decided, success):
        with self._decision.time():
            return self._inner.decide(
                state, jc, valid, cells_dec, trust, unknown, fwd, decided, success
            )

    def first_writer(self, buf, codes, pos):
        with self._walk.time():
            self._inner.first_writer(buf, codes, pos)

    def commit(self, state, pairs, pf_pairs):
        with self._commit.time():
            self._inner.commit(state, pairs, pf_pairs)

    def replay_decide(self, state, source, nodes, lens, req, delivered, csn_free):
        with self._replay.time():
            return self._inner.replay_decide(
                state, source, nodes, lens, req, delivered, csn_free
            )

    def watchdog(self, state, source, deciders, flags, success):
        with self._watchdog.time():
            self._inner.watchdog(state, source, deciders, flags, success)
