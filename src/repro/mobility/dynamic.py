"""Time-varying unit-disk topology driven by a mobility model.

:class:`DynamicTopology` owns the authoritative node positions and the
derived :mod:`networkx` graph.  ``step()`` advances positions through the
mobility model and repairs the graph *incrementally*: only nodes that moved
more than ``tolerance`` since their edges were last computed (or whose churn
state flipped) have their incident edges rebuilt — an O(moved x n) update
instead of the O(n^2) full rebuild, done as one vectorised distance scan
that keeps the edge insertion sequence (see :meth:`_rebuild_edges`).

``epoch`` is the edge-set version number: it increments only when the edge
set actually changes, so consumers like
:class:`repro.mobility.oracle.MobilePathOracle` can cache route computations
and pay nothing while the network is effectively static (waypoint pauses,
sub-tolerance drift).  With a nonzero tolerance, edge lengths are accurate to
within ``2 * tolerance`` — the documented fidelity/speed trade-off.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from repro.mobility.models import MobilityModel
from repro.network.ksp import PathSearch

__all__ = ["DynamicTopology"]


class DynamicTopology:
    """A unit-disk graph whose nodes move under a :class:`MobilityModel`."""

    def __init__(
        self,
        node_ids: Sequence[int],
        radio_range: float,
        model: MobilityModel,
        rng: np.random.Generator,
        dt: float = 1.0,
        tolerance: float = 0.0,
        require_connected_start: bool = True,
        max_reset_attempts: int = 50,
    ):
        if not 0.0 < radio_range <= np.sqrt(2.0):
            raise ValueError(
                f"radio_range must be in (0, sqrt(2)], got {radio_range}"
            )
        if dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if tolerance < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        ids = list(node_ids)
        if len(ids) < 3:
            raise ValueError("a topology needs at least 3 nodes")
        self.radio_range = float(radio_range)
        self.node_ids = ids
        self._index = {nid: i for i, nid in enumerate(ids)}
        self._id_array = np.array(ids)
        self.model = model
        self.rng = rng
        self.dt = float(dt)
        self.tolerance = float(tolerance)
        self.epoch = 0
        #: total ``step()`` calls — unlike ``epoch`` this moves even when
        #: the edge set survives a step, so consumers caching anything
        #: *position*-dependent (virtual/boost routes) can invalidate on it
        self.steps = 0
        self.boost_count = 0  # emergency power boosts (isolated sources)
        #: cumulative edge churn across epoch rebuilds
        self.edges_added = 0
        self.edges_removed = 0
        #: (bfs_builds, queries, deviations_pruned, build_s) accumulated
        #: from route-search snapshots already replaced by an epoch rebuild
        #: — folded so counters survive the snapshot's retirement
        self._ksp_retired = (0, 0, 0, 0.0)
        # movement can disconnect the graph later (that is the point of the
        # subsystem), but starting connected avoids stillborn scenarios
        for _ in range(max_reset_attempts):
            self._pos = np.array(model.reset(len(ids), rng), dtype=float)
            self._active = self._current_active()
            self.graph = self._full_build()
            if not require_connected_start or nx.is_connected(self.graph):
                break
        else:
            raise RuntimeError(
                f"could not place a connected topology in"
                f" {max_reset_attempts} attempts; increase radio_range"
            )
        # positions/activity at the last per-node edge computation
        self._anchor = self._pos.copy()
        self._anchor_active = self._active.copy()
        self._search: PathSearch | None = None
        self._search_epoch = -1

    def path_search(self) -> PathSearch:
        """The native route-search snapshot of the current epoch's graph.

        Rebuilt only when ``epoch`` changes (the edge set really moved);
        queries never mutate the graph, so the snapshot stays valid for the
        whole epoch — including around virtual-edge and power-boost queries,
        which ride in as query-time extra edges instead of graph edits.
        """
        if self._search is None or self._search_epoch != self.epoch:
            old = self._search
            if old is not None:
                b, q, p, t = self._ksp_retired
                self._ksp_retired = (
                    b + old.bfs_builds,
                    q + old.queries,
                    p + old.deviations_pruned,
                    t + old.build_s,
                )
            self._search = PathSearch(self.graph)
            self._search_epoch = self.epoch
        return self._search

    # -- state access ----------------------------------------------------------

    @property
    def positions(self) -> dict[int, tuple[float, float]]:
        """Current positions keyed by node id (GeometricTopology-compatible)."""
        return {
            nid: (float(x), float(y))
            for nid, (x, y) in zip(self.node_ids, self._pos)
        }

    def position_array(self) -> np.ndarray:
        """Current positions as an ``(n, 2)`` array (copy), in id order."""
        return self._pos.copy()

    def active_ids(self) -> list[int]:
        """Ids of nodes currently present (all, unless churn is active)."""
        return [nid for nid, a in zip(self.node_ids, self._active) if a]

    def degree_stats(self) -> tuple[float, int, int]:
        """(mean, min, max) node degree — useful for choosing radio_range."""
        degrees = [d for _, d in self.graph.degree()]
        return float(np.mean(degrees)), int(min(degrees)), int(max(degrees))

    def is_active(self, node_id: int) -> bool:
        """Whether the node is currently present (always True without churn)."""
        if self._all_active:
            return True
        return bool(self._active[self._index[node_id]])

    def candidate_paths(
        self,
        source: int,
        destination: int,
        max_paths: int,
        max_hops: int,
        restrict_to: frozenset[int] | None = None,
    ) -> list[tuple[int, ...]]:
        """Up to ``max_paths`` shortest simple routes as intermediate tuples.

        ``restrict_to`` routes over the subgraph induced by the given node
        ids (e.g. the current tournament's participants — routes are
        discovered among nodes actually taking part in the network).

        A churned-out node keeps originating packets (its radio is on while
        it transmits), so an inactive *source* is virtually re-linked to its
        in-range active neighbours for the query; inactive destinations and
        intermediates stay unreachable.
        """
        i = self._index[source]
        extras: list[tuple[int, int]] = (
            [] if self._active[i] else self._virtual_edges(i)
        )
        search = self.path_search()
        if restrict_to is not None and search.covers_all(restrict_to):
            restrict_to = None  # scope covers the graph: restriction no-op
        if self._scoped_degree(source, extras, restrict_to) == 0:
            # emergency power boost: a source with no reachable peer in
            # scope raises transmit power until its nearest participating
            # node hears it
            attach = self._nearest_peer(i, restrict_to)
            if attach is None:
                return []
            self.boost_count += 1
            extras = extras + [(source, attach)]
        return search.intermediate_paths(
            source, destination, max_paths, max_hops, restrict_to, extras
        )

    def _scoped_degree(
        self,
        source: int,
        extras: Sequence[tuple[int, int]],
        restrict_to: frozenset[int] | None,
    ) -> int:
        """Degree of ``source`` within scope, extra edges included — what
        ``graph.subgraph(restrict_to).degree(source)`` saw when virtual
        edges were temporarily materialised."""
        if restrict_to is None:
            return len(self.graph.adj[source]) + len(extras)
        degree = sum(1 for w in self.graph.adj[source] if w in restrict_to)
        degree += sum(1 for _, b in extras if b in restrict_to)
        return degree

    def _nearest_peer(
        self, i: int, restrict_to: frozenset[int] | None
    ) -> int | None:
        """The active node (within scope) geometrically closest to index ``i``."""
        d2 = np.sum((self._pos - self._pos[i]) ** 2, axis=1)
        best: int | None = None
        best_d2 = np.inf
        for j in np.flatnonzero(self._active):
            nid = self.node_ids[int(j)]
            if int(j) == i or (restrict_to is not None and nid not in restrict_to):
                continue
            if d2[j] < best_d2:
                best, best_d2 = nid, float(d2[j])
        return best

    def _virtual_edges(self, i: int) -> list[tuple[int, int]]:
        """Edges node index ``i`` would have were its radio on."""
        d2 = np.sum((self._pos - self._pos[i]) ** 2, axis=1)
        within = (d2 <= self.radio_range**2) & self._active
        a = self.node_ids[i]
        return [
            (a, self.node_ids[int(j)]) for j in np.flatnonzero(within) if int(j) != i
        ]

    # -- dynamics --------------------------------------------------------------

    def step(self) -> bool:
        """Advance positions one step; repair the graph; return whether the
        edge set changed (in which case ``epoch`` was incremented)."""
        self.steps += 1
        self._pos = np.array(
            self.model.step(self._pos, self.dt, self.rng), dtype=float
        )
        self._active = self._current_active()
        moved = (
            np.sum((self._pos - self._anchor) ** 2, axis=1) > self.tolerance**2
        )
        dirty = moved | (self._active != self._anchor_active)
        if not dirty.any():
            return False
        changed = self._rebuild_edges(np.flatnonzero(dirty))
        self._anchor[dirty] = self._pos[dirty]
        self._anchor_active[dirty] = self._active[dirty]
        if changed:
            self.epoch += 1
        return changed

    def _current_active(self) -> np.ndarray:
        mask_fn = getattr(self.model, "active_mask", None)
        if mask_fn is None:
            active = np.ones(len(self.node_ids), dtype=bool)
        else:
            active = np.array(mask_fn(), dtype=bool)
        # hot-path flag: lets is_active() skip numpy scalar indexing when
        # every node is present (always, unless churn is configured)
        self._all_active = bool(active.all())
        return active

    def _full_build(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(self.node_ids)
        d2 = np.sum((self._pos[:, None, :] - self._pos[None, :, :]) ** 2, axis=-1)
        adjacent = (
            (d2 <= self.radio_range**2)
            & self._active[:, None]
            & self._active[None, :]
        )
        ids = self.node_ids
        rows, cols = np.nonzero(np.triu(adjacent, k=1))
        graph.add_edges_from((ids[i], ids[j]) for i, j in zip(rows, cols))
        return graph

    def _rebuild_edges(self, dirty: np.ndarray) -> bool:
        """Recompute the incident edges of the ``dirty`` node indices.

        Returns whether the graph's edge set changed.

        Insertion-sequence contract: ``new_edges`` receives its edges in
        row-major scan order — dirty rows in ``dirty`` order, each row's
        in-range columns ascending, self-pairs dropped — exactly the
        sequence a per-row ``set.add`` loop would feed it.  The set iterates
        in hash-slot order, and the insertion sequence decides which of two
        colliding edges takes the earlier slot; that order is the order of
        ``added``, hence of each node's adjacency, which is the route-search
        tie order.  Do not reorder it.  ``old_edges`` is only tested for
        membership and equality, so its order is free.
        """
        ids = self.node_ids
        adj = self.graph._adj
        old_edges = {
            (a, b) if a < b else (b, a)
            for a in [ids[i] for i in dirty.tolist()]
            for b in adj[a]
        }
        pos = self._pos
        dx = pos[dirty, 0, None] - pos[None, :, 0]
        dy = pos[dirty, 1, None] - pos[None, :, 1]
        within = (
            (dx * dx + dy * dy <= self.radio_range**2)
            & self._active[dirty, None]
            & self._active[None, :]
        )
        rows, cols = np.nonzero(within)  # row-major: the contract's order
        heads = dirty[rows]
        keep = cols != heads
        a = self._id_array[heads[keep]]
        b = self._id_array[cols[keep]]
        new_edges = set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
        if new_edges == old_edges:
            return False
        removed = old_edges - new_edges
        added = new_edges - old_edges
        self.graph.remove_edges_from(removed)
        self.graph.add_edges_from(added)
        self.edges_removed += len(removed)
        self.edges_added += len(added)
        return True
