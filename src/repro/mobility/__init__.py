"""Mobility subsystem: dynamic topologies for the ad hoc network game.

The paper's oracle models *maximal* mobility (fresh random intermediates
every packet, §4.1).  This package covers the rest of the range, down to
*zero* mobility: a static unit-disk graph is a waypoint model at speed 0
(``MobilityConfig(model="waypoint", speed_min=0.0, speed_max=0.0)``),
whose edge set, hence epoch and route cache, never changes.

* :mod:`repro.mobility.models` — :class:`RandomWaypoint` and
  :class:`GaussMarkov` node movement, plus :class:`NodeChurn` (nodes leave
  and rejoin), all deterministic under a shared ``np.random.Generator``;
* :mod:`repro.mobility.dynamic` — :class:`DynamicTopology`, a unit-disk
  graph (a bool adjacency matrix) repaired incrementally as nodes move,
  versioned by ``epoch``;
* :mod:`repro.mobility.oracle` — :class:`MobilePathOracle`, a caching path
  oracle (invalidated on epoch change) that keeps the engine-facing
  :class:`repro.paths.oracle.PathOracle` contract, so both simulation
  engines run on a moving network unmodified.

Scenario knobs live in :class:`MobilityConfig` (embedded in
``SimulationConfig``); named presets in :data:`repro.config.presets.MOBILITY_PRESETS`.
"""

from repro.config.mobility import MOBILITY_MODELS, MobilityConfig
from repro.mobility.dynamic import DynamicTopology
from repro.mobility.factory import build_model, build_oracle, build_topology
from repro.mobility.models import GaussMarkov, MobilityModel, NodeChurn, RandomWaypoint
from repro.mobility.oracle import MobilePathOracle

__all__ = [
    "MOBILITY_MODELS",
    "MobilityConfig",
    "MobilityModel",
    "RandomWaypoint",
    "GaussMarkov",
    "NodeChurn",
    "DynamicTopology",
    "MobilePathOracle",
    "build_model",
    "build_topology",
    "build_oracle",
]
