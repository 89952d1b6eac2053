"""Geometric-topology extension (low-mobility networks).

The paper chooses intermediates uniformly at random, explicitly to simulate
"a network with a high mobility level, in which topology changes very fast"
(§4.1).  This package provides the complementary regime: nodes placed in the
unit square with a fixed radio range, candidate routes extracted from the
resulting unit-disk graph as the first ``max_paths`` shortest simple paths.

Both topologies (this static one and the mobile
:class:`repro.mobility.DynamicTopology`) keep their edge set as one
``(n, n)`` bool adjacency matrix in topology-index space.  Route search runs
on :class:`repro.network.ksp.PathSearch`, a native K-shortest-paths engine
over that matrix; route ties follow ascending index order here and its
cyclic rotation on the mobile topology.  networkx is not a runtime
dependency: ``tests/test_ksp.py`` pins the engine against
``networkx.shortest_simple_paths`` (a ``dev`` extra).  Plugging the
:class:`TopologyPathOracle` into any engine turns the paper's abstract game
into a static-topology simulation — an extension ablated in
``benchmarks/bench_topology_extension.py``.

:mod:`repro.network.provider` is the route-provider layer shared with the
mobility subsystem: per-pair route caches over any epoch-versioned topology
provider, with pluggable ``exact``/``approx`` cache policies.
"""

from repro.network.ksp import PathSearch
from repro.network.provider import (
    ROUTE_CACHE_POLICIES,
    ApproxPolicy,
    CachePolicy,
    ExactPolicy,
    RouteProvider,
    StaticRouteProvider,
    TopologyProvider,
    make_cache_policy,
)
from repro.network.topology import GeometricTopology, TopologyPathOracle

__all__ = [
    "GeometricTopology",
    "PathSearch",
    "TopologyPathOracle",
    "TopologyProvider",
    "RouteProvider",
    "StaticRouteProvider",
    "CachePolicy",
    "ExactPolicy",
    "ApproxPolicy",
    "make_cache_policy",
    "ROUTE_CACHE_POLICIES",
]
