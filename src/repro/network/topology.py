"""Unit-disk network topology and a topology-driven path oracle.

Nodes are placed uniformly in the unit square; two nodes are neighbours when
their Euclidean distance is at most ``radio_range`` (every node uses an
omni-directional antenna with the same range, as §3.1 assumes).  Candidate
routes between a source and a destination are the first ``max_paths``
shortest simple paths in hop count, capped at ``max_hops``.

Route search runs on the native :class:`repro.network.ksp.PathSearch` engine
(path sets and order pinned identical to ``nx.shortest_simple_paths`` by
``tests/test_ksp.py``); :func:`shortest_intermediate_paths` remains the
networkx reference implementation that suite compares against.

The oracle keeps the engine contract of :class:`repro.paths.oracle.PathOracle`
(destination + candidate paths per game), so every simulation engine can run
unmodified on a static topology; its batched
:meth:`TopologyPathOracle.draw_tournament` additionally serves the batch
engine a whole tournament of pre-drawn games off a scope-filtered route
table, stream-identical to per-game :meth:`TopologyPathOracle.draw` calls.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from repro.network.ksp import PathSearch
from repro.network.provider import StaticRouteProvider
from repro.paths.oracle import GameSetup, PlannedGame
from repro.paths.planner import draw_setup, plan_round

__all__ = [
    "GeometricTopology",
    "TopologyPathOracle",
    "shortest_intermediate_paths",
]


def shortest_intermediate_paths(
    graph: nx.Graph, source: int, destination: int, max_paths: int, max_hops: int
) -> list[tuple[int, ...]]:
    """Up to ``max_paths`` shortest simple routes as intermediate tuples.

    Routes longer than ``max_hops`` hops are discarded; direct neighbour
    routes (no intermediate) are skipped since the game needs at least one
    forwarding decision.  Shared by the static :class:`GeometricTopology` and
    the mobility subsystem's ``DynamicTopology``.
    """
    paths: list[tuple[int, ...]] = []
    if max_paths < 1:
        return paths
    try:
        # NetworkXNoPath/NodeNotFound surface lazily, on first iteration
        for node_path in nx.shortest_simple_paths(graph, source, destination):
            hops = len(node_path) - 1
            if hops > max_hops:
                break  # generator yields by increasing length
            if hops < 2:
                continue  # destination in direct range: no game to play
            paths.append(tuple(node_path[1:-1]))
            if len(paths) == max_paths:
                break
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return paths
    return paths


class GeometricTopology:
    """A random geometric (unit-disk) graph over the participant ids."""

    def __init__(
        self,
        node_ids: Sequence[int],
        radio_range: float,
        rng: np.random.Generator,
        require_connected: bool = True,
        max_placement_attempts: int = 50,
    ):
        if not 0.0 < radio_range <= np.sqrt(2.0):
            raise ValueError(
                f"radio_range must be in (0, sqrt(2)], got {radio_range}"
            )
        ids = list(node_ids)
        if len(ids) < 3:
            raise ValueError("a topology needs at least 3 nodes")
        self.radio_range = float(radio_range)
        self.node_ids = ids
        for _ in range(max_placement_attempts):
            positions = {nid: tuple(rng.random(2)) for nid in ids}
            graph = self._build_graph(positions)
            if not require_connected or nx.is_connected(graph):
                break
        else:
            raise RuntimeError(
                f"could not place a connected topology in"
                f" {max_placement_attempts} attempts; increase radio_range"
            )
        self.positions = positions
        self.graph = graph
        #: edge-set version (TopologyProvider contract).  Static by design,
        #: so it only moves when :meth:`invalidate_routes` announces an
        #: external graph edit — letting route providers drop their caches.
        self.epoch = 0
        self._search: PathSearch | None = None
        self._search_edges = -1
        #: (bfs_builds, queries, deviations_pruned, build_s) from retired
        #: snapshots, folded before a rebuild so search counters survive
        #: invalidation
        self._ksp_retired = (0, 0, 0, 0.0)

    def path_search(self) -> PathSearch:
        """The native route-search snapshot of the current graph.

        Built lazily; the graph is static by design, so the snapshot lives
        for the topology's lifetime.  An edge-count guard catches the
        common accidental rewire, but an *equal-count* rewire is invisible
        to it — code that mutates ``self.graph`` must call
        :meth:`invalidate_routes` afterwards.
        """
        n_edges = self.graph.number_of_edges()
        if self._search is None or self._search_edges != n_edges:
            self._retire_search()
            self._search = PathSearch(self.graph)
            self._search_edges = n_edges
        return self._search

    def invalidate_routes(self) -> None:
        """Drop the route-search snapshot after an external graph edit."""
        self._retire_search()
        self._search = None
        self._search_edges = -1
        self.epoch += 1

    def _retire_search(self) -> None:
        old = self._search
        if old is not None:
            b, q, p, t = self._ksp_retired
            self._ksp_retired = (
                b + old.bfs_builds,
                q + old.queries,
                p + old.deviations_pruned,
                t + old.build_s,
            )

    def _build_graph(self, positions: dict[int, tuple[float, float]]) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(positions)
        ids = list(positions)
        limit_sq = self.radio_range**2
        for i, a in enumerate(ids):
            xa, ya = positions[a]
            for b in ids[i + 1 :]:
                xb, yb = positions[b]
                if (xa - xb) ** 2 + (ya - yb) ** 2 <= limit_sq:
                    graph.add_edge(a, b)
        return graph

    def degree_stats(self) -> tuple[float, int, int]:
        """(mean, min, max) node degree — useful for choosing radio_range."""
        degrees = [d for _, d in self.graph.degree()]
        return float(np.mean(degrees)), int(min(degrees)), int(max(degrees))

    def candidate_paths(
        self, source: int, destination: int, max_paths: int, max_hops: int
    ) -> list[tuple[int, ...]]:
        """Up to ``max_paths`` shortest simple routes as intermediate tuples."""
        return self.path_search().intermediate_paths(
            source, destination, max_paths, max_hops
        )


class TopologyPathOracle:
    """Path oracle backed by a static :class:`GeometricTopology`.

    The destination is drawn uniformly among participants that are reachable
    with at least one valid route; if a drawn destination offers no route
    (e.g. only direct-neighbour connectivity), it is rejected and redrawn, up
    to ``max_draws`` before giving up with a descriptive error.

    Routing is layered (see :mod:`repro.network.provider`): a
    :class:`StaticRouteProvider` caches per-pair full-graph routes plus a
    scope-filtered table shared by the sequential and batched draw paths
    (``cache=False`` disables both, for benchmarking the recomputation
    cost), and the draw loops come from :mod:`repro.paths.planner`.
    """

    def __init__(
        self,
        topology: GeometricTopology,
        rng: np.random.Generator,
        max_paths: int = 3,
        max_hops: int = 10,
        max_draws: int = 64,
        cache: bool = True,
    ):
        self.topology = topology
        self.rng = rng
        self.max_paths = max_paths
        self.max_hops = max_hops
        self.max_draws = max_draws
        self.provider = StaticRouteProvider(
            topology, max_paths, max_hops, cache=cache
        )

    def _candidate_paths(self, source: int, destination: int) -> list[tuple[int, ...]]:
        """Full-graph routes for the pair (unscoped; provider-cached)."""
        return self.provider.base_routes(source, destination)

    @property
    def cache_hits(self) -> int:
        return self.provider.cache_hits

    @property
    def cache_misses(self) -> int:
        return self.provider.cache_misses

    @property
    def cache_info(self) -> tuple[int, int]:
        """(hits, misses) of the per-pair route cache."""
        return self.provider.cache_info

    def draw(self, source: int, participants: Sequence[int]) -> GameSetup:
        others = [p for p in participants if p != source]
        if not others:
            raise ValueError("need at least one potential destination")
        provider = self.provider
        provider.sync()
        provider.rescope(participants)
        destination, paths = draw_setup(
            self.rng, source, others, provider.routes, self.max_draws
        )
        return GameSetup(
            source=source, destination=destination, paths=tuple(paths)
        )

    # -- batched drawing (struct-of-arrays engines) ----------------------------

    def draw_tournament(
        self, sources: Sequence[int], participants: Sequence[int]
    ) -> list[PlannedGame]:
        """Draw a whole round's (or tournament's) games in one batch.

        **Stream-identical** to calling :meth:`draw` once per source — one
        ``integers`` draw per destination attempt, same rejection/redraw
        sequence — so engines interleaving batched and per-game drawing stay
        bit-identical.  The speedup is pure overhead removal: the provider's
        scope-filtered route table replaces per-draw path filtering, and no
        ``GameSetup`` is constructed or validated per game.
        """
        participants = list(participants)
        provider = self.provider
        provider.sync()
        provider.rescope(participants)
        return plan_round(
            self.rng, sources, participants, provider.routes, self.max_draws
        )
