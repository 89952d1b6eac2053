"""Seating scheduler: which normal players sit in which tournament (§4.4).

The evaluation scheme repeatedly draws ``P_i`` normal players uniformly among
those that have played fewer than ``L`` times in the current environment,
until every player has played ``L`` times.  With the paper's N=100, P_i=50 and
the default L=1, each environment holds exactly two tournaments per
generation, partitioning the population.

If at some point fewer than ``P_i`` eligible players remain (possible when
``N * L`` is not a multiple of ``P_i``), the seating is topped up with
uniformly chosen already-complete players — the closest consistent extension
of the paper's under-specified loop (DESIGN.md §2.6).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["iter_seatings"]


def iter_seatings(
    population_ids: Sequence[int],
    seats: int,
    plays_required: int,
    rng: np.random.Generator,
) -> Iterator[list[int]]:
    """Yield seatings (lists of player ids) until all played ``plays_required``.

    Each yielded list has exactly ``seats`` entries in random order.  Players
    never sit twice in the same tournament.
    """
    ids = list(population_ids)
    if seats > len(ids):
        raise ValueError(
            f"cannot seat {seats} players from a population of {len(ids)}"
        )
    if plays_required < 1:
        raise ValueError(f"plays_required must be >= 1, got {plays_required}")
    plays = {pid: 0 for pid in ids}
    while True:
        eligible = [pid for pid in ids if plays[pid] < plays_required]
        if not eligible:
            return
        if len(eligible) >= seats:
            idx = rng.choice(len(eligible), size=seats, replace=False)
            chosen = [eligible[int(i)] for i in idx]
        else:
            done = [pid for pid in ids if plays[pid] >= plays_required]
            idx = rng.choice(len(done), size=seats - len(eligible), replace=False)
            chosen = eligible + [done[int(i)] for i in idx]
        for pid in chosen:
            plays[pid] += 1
        yield chosen
