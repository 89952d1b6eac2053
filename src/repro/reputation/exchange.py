"""Second-hand reputation exchange — optional extension.

The paper collects reputation **first-hand only** (plus in-path alerts).  Its
related-work section discusses systems that additionally exchange reputation
between nodes: CORE [10] exchanges *positive* observations only (to prevent
bad-mouthing), CONFIDANT [2]/[1] also uses negative second-hand reports.

This module implements a configurable gossip step that can be enabled in the
tournament runner (``TournamentConfig.exchange``): every ``interval`` rounds
each player shares its counters with ``fanout`` random peers, which fold them
in scaled by ``weight``.  ``positive_only=True`` reproduces CORE's rule by
sharing only the forwarded counts (``ps = pf``), so a gossip message can never
worsen a subject's rate.

This is an *extension* (ablated in ``benchmarks/bench_exchange_extension.py``);
the paper's own experiments all run with the exchange disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.reputation.records import ReputationTable

__all__ = ["ExchangeConfig", "exchange_reputation", "exchange_reputation_flat"]


@dataclass(frozen=True)
class ExchangeConfig:
    """Parameters of the second-hand reputation exchange."""

    enabled: bool = False
    interval: int = 10  # rounds between gossip steps
    fanout: int = 2  # peers each player shares with per step
    weight: float = 0.5  # scale applied to received counts
    positive_only: bool = True  # CORE-style: share only positive observations

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if self.fanout < 0:
            raise ValueError(f"fanout must be >= 0, got {self.fanout}")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {self.weight}")


def _scaled(count: int, weight: float) -> int:
    return int(round(count * weight))


def _message_counts(
    ps: int, pf: int, weight: float, positive_only: bool
) -> tuple[int, int]:
    """The ``(add_ps, add_pf)`` a receiver folds in for one gossiped subject.

    The single definition of the exchange's scaling/clamping rule, shared by
    the table-backed and flat implementations so they cannot drift apart:
    CORE-style positive-only gossip transmits the forwarded count as both
    counters (a message can never worsen a subject's rate); full gossip
    scales both and clamps ``pf <= ps`` against rounding skew.
    """
    if positive_only:
        add_pf = _scaled(pf, weight)
        return add_pf, add_pf  # only positive evidence is transmitted
    add_ps = _scaled(ps, weight)
    return add_ps, min(_scaled(pf, weight), add_ps)


def exchange_reputation(
    tables: Mapping[int, ReputationTable],
    participants: Sequence[int],
    config: ExchangeConfig,
    rng: np.random.Generator,
) -> int:
    """Run one gossip step among ``participants``.

    Each participant picks ``fanout`` distinct peers (uniformly, without
    replacement) and *sends* its snapshot to them; receivers merge scaled
    counts about subjects other than themselves and the sender.  Returns the
    number of (sender, receiver) messages delivered — useful for tests and
    instrumentation.

    Snapshots are taken up-front so a message reflects the sender's state at
    the start of the step, not gossip received within the same step (no
    same-step amplification).
    """
    if not config.enabled or config.fanout == 0:
        return 0
    ids = list(participants)
    if len(ids) < 2:
        return 0
    snapshots = {pid: tables[pid].snapshot() for pid in ids}
    messages = 0
    for sender in ids:
        peers_pool = [p for p in ids if p != sender]
        k = min(config.fanout, len(peers_pool))
        chosen = rng.choice(len(peers_pool), size=k, replace=False)
        for idx in chosen:
            receiver = peers_pool[int(idx)]
            table = tables[receiver]
            for subject, (ps, pf) in snapshots[sender].items():
                if subject == receiver or subject == sender:
                    continue
                add_ps, add_pf = _message_counts(
                    ps, pf, config.weight, config.positive_only
                )
                if add_ps:
                    table.merge_counts(subject, add_ps, add_pf)
            messages += 1
    return messages


def exchange_reputation_flat(
    ps: Sequence[list[int]],
    pf: Sequence[list[int]],
    known: list[int],
    pf_sum: list[int],
    participants: Sequence[int],
    config: ExchangeConfig,
    rng: np.random.Generator,
) -> int:
    """One gossip step over flat reputation state (batch engine).

    Semantically and stream-identically equivalent to
    :func:`exchange_reputation` over :class:`ReputationTable` objects: the
    same ``rng.choice`` calls in the same order, the same scaling/clamping
    per message, and the same receiver-side folding — only the storage
    differs (row-per-observer count lists plus the running ``known`` /
    ``pf_sum`` aggregates the flat engines maintain for O(1) activity
    averages).  The engine-equivalence suite pins the two implementations
    together.
    """
    if not config.enabled or config.fanout == 0:
        return 0
    ids = list(participants)
    if len(ids) < 2:
        return 0
    weight = config.weight
    positive_only = config.positive_only
    # Snapshots up-front, as in the reference: a message reflects the
    # sender's state at the start of the step.
    snapshots: dict[int, list[tuple[int, int, int]]] = {}
    for pid in ids:
        ps_row, pf_row = ps[pid], pf[pid]
        snapshots[pid] = [
            (subject, ps_row[subject], pf_row[subject])
            for subject in range(len(ps_row))
            if ps_row[subject] > 0
        ]
    messages = 0
    for sender in ids:
        peers_pool = [p for p in ids if p != sender]
        k = min(config.fanout, len(peers_pool))
        chosen = rng.choice(len(peers_pool), size=k, replace=False)
        snapshot = snapshots[sender]
        for idx in chosen:
            receiver = peers_pool[int(idx)]
            ps_row, pf_row = ps[receiver], pf[receiver]
            for subject, s_ps, s_pf in snapshot:
                if subject == receiver or subject == sender:
                    continue
                add_ps, add_pf = _message_counts(s_ps, s_pf, weight, positive_only)
                if add_ps:
                    if ps_row[subject] == 0:
                        known[receiver] += 1
                    ps_row[subject] += add_ps
                    pf_row[subject] += add_pf
                    pf_sum[receiver] += add_pf
            messages += 1
    return messages
