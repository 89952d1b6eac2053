"""The 13-bit forwarding strategy of §3.3 / Fig. 1c.

A strategy decides whether an intermediate node forwards or discards a packet
based on two properties of the packet's *source*: the trust level the deciding
node assigns to the source (0..3) and the source's activity level (LO/MI/HI).

Bit layout (bit index = ``trust * 3 + activity``)::

    bit:      0   1   2   3   4   5   6   7   8   9   10  11  12
    trust:    0   0   0   1   1   1   2   2   2   3   3   3   unknown
    activity: LO  MI  HI  LO  MI  HI  LO  MI  HI  LO  MI  HI  -

Bit value 1 means *forward* (the paper's ``F``), 0 means *discard* (``D``).
Bit 12 is the decision against an unknown source (no reputation data).

The paper's worked example (Fig. 1c) — strategy ``DDD FFF DDD FDD F`` with
trust level 3 and activity LO — maps to bit 9, value ``F``; this exact case is
asserted in ``tests/test_paper_examples.py``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.activity import Activity
from repro.utils.bitstring import (
    bits_from_int,
    bits_from_string,
    bits_to_int,
    bits_to_string,
    validate_bits,
)

__all__ = [
    "Strategy",
    "STRATEGY_LENGTH",
    "N_TRUST_LEVELS",
    "N_ACTIVITY_LEVELS",
    "UNKNOWN_BIT",
    "gene_index",
]

N_TRUST_LEVELS = 4
N_ACTIVITY_LEVELS = 3
#: Bit holding the decision against an unknown source node.
UNKNOWN_BIT = N_TRUST_LEVELS * N_ACTIVITY_LEVELS
STRATEGY_LENGTH = UNKNOWN_BIT + 1
#: Display grouping used by the paper: four trust blocks plus the unknown bit.
DISPLAY_GROUPS = (3, 3, 3, 3, 1)


def gene_index(trust: int, activity: Activity | int) -> int:
    """Return the strategy bit index for a (trust, activity) pair."""
    trust = int(trust)
    activity = int(activity)
    if not 0 <= trust < N_TRUST_LEVELS:
        raise ValueError(f"trust level must be in 0..{N_TRUST_LEVELS - 1}, got {trust}")
    if not 0 <= activity < N_ACTIVITY_LEVELS:
        raise ValueError(
            f"activity level must be in 0..{N_ACTIVITY_LEVELS - 1}, got {activity}"
        )
    return trust * N_ACTIVITY_LEVELS + activity


class Strategy:
    """Immutable 13-bit forwarding strategy.

    Instances are hashable and comparable, so they can be counted directly
    (used by the Table 7–9 strategy censuses).
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Sequence[int]):
        self._bits = validate_bits(bits, STRATEGY_LENGTH)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "Strategy":
        """Parse the paper's display form, e.g. ``"010 101 101 111 1"``."""
        return cls(bits_from_string(text, STRATEGY_LENGTH))

    @classmethod
    def from_int(cls, value: int) -> "Strategy":
        """Unpack from the compact integer form (bit 0 = lowest bit)."""
        return cls(bits_from_int(value, STRATEGY_LENGTH))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "Strategy":
        """A uniformly random strategy (initial GA population, §5)."""
        return cls(tuple(int(b) for b in rng.integers(0, 2, size=STRATEGY_LENGTH)))

    @classmethod
    def all_forward(cls) -> "Strategy":
        """The fully cooperative strategy (forwards in every situation)."""
        return cls((1,) * STRATEGY_LENGTH)

    @classmethod
    def all_drop(cls) -> "Strategy":
        """The fully selfish strategy (discards in every situation)."""
        return cls((0,) * STRATEGY_LENGTH)

    # -- decisions ---------------------------------------------------------

    def decide(self, trust: int, activity: Activity | int) -> bool:
        """Forward (``True``) or discard (``False``) for a known source."""
        return bool(self._bits[gene_index(trust, activity)])

    def decide_unknown(self) -> bool:
        """Decision against a source with no reputation data (bit 12)."""
        return bool(self._bits[UNKNOWN_BIT])

    # -- views -------------------------------------------------------------

    @property
    def bits(self) -> tuple[int, ...]:
        """The 13 bits, bit 0 first."""
        return self._bits

    def sub_strategy(self, trust: int) -> str:
        """The 3-bit block for one trust level, e.g. ``"111"``.

        Tables 8 and 9 of the paper analyse these blocks ("sub-strategies");
        the block's bits are ordered LO, MI, HI.
        """
        if not 0 <= trust < N_TRUST_LEVELS:
            raise ValueError(f"trust level must be in 0..3, got {trust}")
        start = trust * N_ACTIVITY_LEVELS
        return "".join(str(b) for b in self._bits[start : start + N_ACTIVITY_LEVELS])

    def forwarding_fraction(self) -> float:
        """Fraction of the 13 situations in which this strategy forwards."""
        return sum(self._bits) / STRATEGY_LENGTH

    def to_int(self) -> int:
        """Pack into an integer (inverse of :meth:`from_int`)."""
        return bits_to_int(self._bits)

    def to_string(self, grouped: bool = True) -> str:
        """Render as the paper's display form (grouped) or raw 13 chars."""
        return bits_to_string(self._bits, DISPLAY_GROUPS if grouped else 0)

    def as_array(self) -> np.ndarray:
        """The bits as a ``uint8`` numpy array."""
        return np.array(self._bits, dtype=np.uint8)

    # -- dunder ------------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __len__(self) -> int:
        return STRATEGY_LENGTH

    def __getitem__(self, index: int) -> int:
        return self._bits[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Strategy):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        return f"Strategy('{self.to_string()}')"
