"""The compute kernel of the speculative engine.

The fused engine is numpy-orchestrated, but its inner loops fall
into five narrow, state-free *ops* — path rating, the per-round decision
gather/scatter, the first-writer conflict walk, the batched reputation
commit, and the exact scalar conflict-replay with its watchdog recurrence.
:class:`~repro.sim.kernels.numpy_backend.NumpyKernel` implements them; it
*is* the pre-kernel engine code, moved, and its results are bit-identical
to the historical inline implementation (pinned by
``tests/test_sim_kernels.py``).

The reputation state is block-diagonal: ``R`` stacked replications of
``block`` ids each (``m = R * block`` node ids; replication ``r`` owns ids
``[r * block, (r + 1) * block)``), and only a replication's own
``block x block`` square is ever touched.  So ``ps``/``pf`` are stored as
``(R, block, block)`` and a (observer ``s``, subject ``j``) pair of one
replication is the flat *cell code* ``s * block + j % block`` (=
``r * block^2 + (s % block) * block + j % block``); ``code // block`` is
the observer id.  An unstacked state is the ``R = 1`` case, where
``block = m`` and the code is the familiar ``s * m + j``.

The vectorised ops take *ragged* hop runs, the fused plan's layout: the
hops of several paths back to back in one flat array, plus the start of
each path's segment (ascending; every segment non-empty).  A round's work
is O(real hops and cells it touches) — independent of the stack width
``R`` of a stacked fused engine, and of the plan's longest path:

* ``rate_paths(state, cells, starts)`` returns one rating per segment:
  the left-to-right product of its hops' forwarding rates (``cells`` are
  the (source, hop) cell codes; unknown cells rate 0.5).
* ``decide(state, jc, cells_dec, starts)`` takes one chosen path per game
  (decider ids ``jc``, their (decider, source) cell codes ``cells_dec``) and
  returns per hop the ``trust`` level, ``unknown`` cell flag and forward
  vote ``fwd``, and per game ``n_dec`` — hops up to and including the
  first discard — and ``success`` (no discard).  Votes past a game's
  first discard are computed but undecided.
Three more op contracts keep the state work O(touched cells):

* ``first_writer(buf, codes, pos)`` writes only ``buf[codes]``.  The
  buffer holds the walk's fill value everywhere *between* calls: the
  caller fills it once when it allocates it and, after reading the
  result, restores the codes it wrote.  No call re-fills the buffer.
* ``commit(state, pairs, pf_pairs)`` scatter-adds the pairs (cell codes,
  duplicates allowed) into ``ps``/``pf`` and updates the
  ``known``/``pf_sum`` caches incrementally on the touched rows; afterwards ``known`` equals the
  nonzero count of each ``ps`` row and ``pf_sum`` each ``pf`` row sum,
  exactly.
* ``replay_decide(state, source, paths, req, delivered, csn_free)`` and
  ``watchdog(state, source, deciders, flags, success)`` replay one game
  as plain Python over ``state.views`` — flat memoryviews of the live
  arrays (:class:`ReplayViews`), built once per state bundle — so an
  element access is a Python number, not a boxed numpy scalar.  A game's
  nodes all lie in its source's block, so the source's row of cells is
  ``base + node`` with ``base = source * block - off`` (``off`` the
  block's first id).  Candidate paths arrive as lists of node ids, the
  counters as writable integer rows (memoryviews or arrays); deciders and
  flags travel as lists.

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
    "ReplayViews",
    "TimedKernel",
    "resolve_kernel",
]

#: Valid ``ExperimentConfig.kernel`` spellings; both resolve to numpy.
KERNEL_NAMES = ("auto", "numpy")


class ReplayViews(NamedTuple):
    """Flat memoryviews of the state the scalar replay ops read and write.

    Each view aliases the engine array it was made from, so a write lands
    in place; reading one yields a Python ``int``/``float``/``bool``.
    Reputation cells are addressed by cell code, ``observer * block +
    subject % block``.
    """

    block: int
    ps: memoryview  # (R * block * block,) int64
    pf: memoryview
    known: memoryview  # (m,) int64
    pf_sum: memoryview
    strat: memoryview  # (m * STRATEGY_LENGTH,) int8
    csn: memoryview  # (m,) bool
    fwd_pay: tuple  # (4,) Python floats — payoff by trust level
    disc_pay: tuple
    send_pay: memoryview  # (m,) float64 / int64 accumulators
    n_sent: memoryview
    fwd_pay_acc: memoryview
    n_fwd: memoryview
    disc_pay_acc: memoryview
    n_disc: memoryview


class KernelState(NamedTuple):
    """The engine state a kernel op may read or mutate, as one bundle.

    Array fields are *views* of the owning engine's arrays (mutated in
    place by ``commit`` / ``watchdog`` / ``replay_decide``); scalars are
    the engine's trust/activity/payoff parameters.  Engines rebuild the
    bundle per entry point — a handful of references plus the replay
    views, which :meth:`with_views` makes once per bundle.
    """

    ps: np.ndarray  # (R, block, block) int64 — packets seen, observer x subject
    pf: np.ndarray  # (R, block, block) int64 — packets forwarded
    ps_flat: np.ndarray  # the flat views the ops address by cell code
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
    #: the replay ops' memoryviews of the arrays above; ``None`` in a
    #: bundle built only for the vectorised ops
    views: ReplayViews | None = None

    def with_views(self) -> "KernelState":
        """This bundle with its :class:`ReplayViews` built."""
        views = ReplayViews(
            block=self.ps.shape[-1],
            ps=memoryview(self.ps_flat),
            pf=memoryview(self.pf_flat),
            known=memoryview(self.known),
            pf_sum=memoryview(self.pf_sum),
            strat=memoryview(self.strat_flat),
            csn=memoryview(self.csn_lookup),
            fwd_pay=tuple(self.fwd_pay.tolist()),
            disc_pay=tuple(self.disc_pay.tolist()),
            send_pay=memoryview(self.send_pay),
            n_sent=memoryview(self.n_sent),
            fwd_pay_acc=memoryview(self.fwd_pay_acc),
            n_fwd=memoryview(self.n_fwd),
            disc_pay_acc=memoryview(self.disc_pay_acc),
            n_disc=memoryview(self.n_disc),
        )
        return self._replace(views=views)


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

    def rate_paths(self, state, cells, starts):
        with self._rate.time():
            return self._inner.rate_paths(state, cells, starts)

    def decide(self, state, jc, cells_dec, starts):
        with self._decision.time():
            return self._inner.decide(state, jc, cells_dec, starts)

    def first_writer(self, buf, codes, pos):
        with self._walk.time():
            self._inner.first_writer(buf, codes, pos)

    def commit(self, state, pairs, pf_pairs):
        with self._commit.time():
            self._inner.commit(state, pairs, pf_pairs)

    def replay_decide(self, state, source, paths, req, delivered, csn_free):
        with self._replay.time():
            return self._inner.replay_decide(
                state, source, paths, req, delivered, csn_free
            )

    def watchdog(self, state, source, deciders, flags, success):
        with self._watchdog.time():
            self._inner.watchdog(state, source, deciders, flags, success)
