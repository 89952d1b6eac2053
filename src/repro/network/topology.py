"""Unit-disk network topology and a topology-driven path oracle.

Nodes are placed uniformly in the unit square; two nodes are neighbours when
their Euclidean distance is at most ``radio_range`` (every node uses an
omni-directional antenna with the same range, as §3.1 assumes).  Candidate
routes between a source and a destination are the first ``max_paths``
shortest simple paths in hop count, capped at ``max_hops``.

The edge set is one ``(n, n)`` bool adjacency matrix in topology-index
space (the substrate the mobile :class:`repro.mobility.DynamicTopology`
shares), and route search runs on the native
:class:`repro.network.ksp.PathSearch` engine over it, with neighbours in
ascending index order.

The oracle keeps the engine contract of :class:`repro.paths.oracle.PathOracle`
(destination + candidate paths per game), so every simulation engine can run
unmodified on a static topology; its batched
:meth:`TopologyPathOracle.draw_tournament` additionally serves the batch
engine a whole tournament of pre-drawn games off a scope-filtered route
table, stream-identical to per-game :meth:`TopologyPathOracle.draw` calls.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.network.ksp import PathSearch, is_connected
from repro.network.provider import StaticRouteProvider
from repro.paths.oracle import GameSetup, PlannedGame
from repro.paths.planner import draw_setup, plan_round

__all__ = ["GeometricTopology", "TopologyPathOracle"]


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
            adjacency = self._build_adjacency(positions)
            if not require_connected or is_connected(adjacency):
                break
        else:
            raise RuntimeError(
                f"could not place a connected topology in"
                f" {max_placement_attempts} attempts; increase radio_range"
            )
        self.positions = positions
        #: the edge set as an (n, n) bool matrix, row/column ``i`` being
        #: ``node_ids[i]``; an edit must be followed by
        #: :meth:`invalidate_routes`
        self.adjacency = adjacency
        #: edge-set version (TopologyProvider contract).  Static by design,
        #: so it only moves when :meth:`invalidate_routes` announces an
        #: external graph edit — letting route providers drop their caches.
        self.epoch = 0
        self._search: PathSearch | None = None
        #: (bfs_builds, queries, deviations_pruned, build_s) from retired
        #: snapshots, folded before a rebuild so search counters survive
        #: invalidation
        self._ksp_retired = (0, 0, 0, 0.0)

    def path_search(self) -> PathSearch:
        """The native route-search snapshot of the current adjacency.

        Built lazily; the topology is static by design, so the snapshot
        lives until :meth:`invalidate_routes` announces an edit of
        ``self.adjacency``.
        """
        if self._search is None:
            self._search = PathSearch(self.adjacency, self.node_ids)
        return self._search

    def invalidate_routes(self) -> None:
        """Drop the route-search snapshot after an edit of the adjacency."""
        self._retire_search()
        self._search = None
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

    def _build_adjacency(self, positions: dict[int, tuple[float, float]]) -> np.ndarray:
        xy = np.array(list(positions.values()), dtype=float)
        dx = xy[:, 0, None] - xy[None, :, 0]
        dy = xy[:, 1, None] - xy[None, :, 1]
        adjacency = dx**2 + dy**2 <= self.radio_range**2
        np.fill_diagonal(adjacency, False)
        return adjacency

    def neighbors(self, node_id: int) -> list[int]:
        """Ids of the node's neighbours, in ascending index order."""
        ids = self.node_ids
        row = self.adjacency[ids.index(node_id)]
        return [ids[j] for j in np.flatnonzero(row).tolist()]

    def degree_stats(self) -> tuple[float, int, int]:
        """(mean, min, max) node degree — useful for choosing radio_range."""
        degrees = self.adjacency.sum(axis=1)
        return float(degrees.mean()), int(degrees.min()), int(degrees.max())

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
    scope-filtered table shared by the sequential and batched draw paths,
    and the draw loops come from :mod:`repro.paths.planner`.
    """

    def __init__(
        self,
        topology: GeometricTopology,
        rng: np.random.Generator,
        max_paths: int = 3,
        max_hops: int = 10,
        max_draws: int = 64,
    ):
        self.topology = topology
        self.rng = rng
        self.max_paths = max_paths
        self.max_hops = max_hops
        self.max_draws = max_draws
        self.provider = StaticRouteProvider(topology, max_paths, max_hops)

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
