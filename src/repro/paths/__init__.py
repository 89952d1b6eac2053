"""Path model: hop-length/path-count distributions, generation, rating.

Implements the path selection machinery of §3.1 and §6.1 (Tables 2 and 3).
All randomness used by the simulation engines flows through the oracles in
:mod:`repro.paths.oracle`, which is what makes the reference and batch engines
bit-identical under a shared seed.
"""

from repro.paths.distributions import (
    LONGER_PATHS,
    SHORTER_PATHS,
    DiscreteDistribution,
    HopDistribution,
    PathCountDistribution,
)
from repro.paths.generator import PathSetGenerator
from repro.paths.oracle import (
    GameSetup,
    PathOracle,
    RandomPathOracle,
    ScriptedPathOracle,
)
from repro.paths.rating import best_path_index, rate_path

__all__ = [
    "DiscreteDistribution",
    "HopDistribution",
    "PathCountDistribution",
    "SHORTER_PATHS",
    "LONGER_PATHS",
    "PathSetGenerator",
    "rate_path",
    "best_path_index",
    "GameSetup",
    "PathOracle",
    "RandomPathOracle",
    "ScriptedPathOracle",
]
