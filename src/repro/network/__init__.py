"""Route search and route caching for the routed (unit-disk) oracle.

The paper chooses intermediates uniformly at random, explicitly to simulate
"a network with a high mobility level, in which topology changes very fast"
(§4.1).  The routed regime is the opposite end: nodes in the unit square
with a fixed radio range, candidate routes taken from the resulting
unit-disk graph as the first ``max_paths`` shortest simple paths.  The
topology itself is :class:`repro.mobility.DynamicTopology`; a static
network is that topology at speed 0 (``MobilityConfig(model="waypoint",
speed_min=0.0, speed_max=0.0)``), whose epoch never moves, so its route
cache never expires.

* :mod:`repro.network.ksp` — :class:`PathSearch`, a native
  K-shortest-paths engine over the topology's ``(n, n)`` bool adjacency
  matrix.  Route ties follow the cyclic neighbour order (ascending index
  from the node's own, wrapping around).  networkx is not a runtime
  dependency: ``tests/test_ksp.py`` pins the engine against
  ``networkx.shortest_simple_paths`` (a ``dev`` extra).
* :mod:`repro.network.provider` — :class:`RouteProvider`, the per-pair
  route cache over the epoch-versioned topology, with pluggable
  ``exact``/``approx`` cache policies.
"""

from repro.network.ksp import PathSearch
from repro.network.provider import (
    ROUTE_CACHE_POLICIES,
    ApproxPolicy,
    CachePolicy,
    ExactPolicy,
    RouteProvider,
    make_cache_policy,
)

__all__ = [
    "PathSearch",
    "RouteProvider",
    "CachePolicy",
    "ExactPolicy",
    "ApproxPolicy",
    "make_cache_policy",
    "ROUTE_CACHE_POLICIES",
]
