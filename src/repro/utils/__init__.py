"""Small shared utilities: RNG plumbing, bit strings, ASCII rendering.

These helpers are deliberately dependency-light; everything above them in the
stack (reputation, game, tournament, GA) builds on this layer.
"""

from repro.utils.bitstring import (
    bits_from_int,
    bits_from_string,
    bits_to_int,
    bits_to_string,
    hamming_distance,
)
from repro.utils.rng import as_generator, spawn_generators, spawn_seeds
from repro.utils.tables import ascii_lineplot, format_table
from repro.utils.validation import check_probability

__all__ = [
    "as_generator",
    "spawn_generators",
    "spawn_seeds",
    "bits_from_int",
    "bits_from_string",
    "bits_to_int",
    "bits_to_string",
    "hamming_distance",
    "format_table",
    "ascii_lineplot",
    "check_probability",
]
