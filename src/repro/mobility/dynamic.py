"""Time-varying unit-disk topology driven by a mobility model.

:class:`DynamicTopology` owns the authoritative node positions and the
derived adjacency: one ``(n, n)`` bool matrix in topology-index space
(row/column ``i`` is ``node_ids[i]``; 10 KB at n = 100).  ``step()``
advances positions through the mobility model and repairs the matrix
*incrementally*: only nodes that moved more than ``tolerance`` since their
edges were last computed (or whose churn state flipped) have their rows and
columns recomputed — an O(moved x n) update instead of the O(n^2) full
rebuild, done as one vectorised distance scan whose result is compared
cell by cell with the old rows (see :meth:`_rebuild_edges`).

``epoch`` is the edge-set version number: it increments only when a cell
actually changed, so consumers like
:class:`repro.mobility.oracle.MobilePathOracle` can cache route computations
and pay nothing while the network is effectively static (waypoint pauses,
sub-tolerance drift).  With a nonzero tolerance, edge lengths are accurate to
within ``2 * tolerance`` — the documented fidelity/speed trade-off.

Route search reads the matrix through a :class:`repro.network.ksp.PathSearch`
snapshot built once per (epoch, scope): a routed tournament searches only
among its participants, so the snapshot is of the subgraph their ids
induce, and the nodes outside it cost a search nothing.  Neighbours
iterate in cyclic order (ascending topology index from the node's own
index, wrapping around), so route ties depend only on the current edge
set, never on the order the edges were repaired in, and no node is every
neighbour's first choice; the induced snapshot keeps the kept nodes in
ascending order, so it breaks every tie as the full graph would.
"""

from __future__ import annotations

from typing import Collection, Sequence

import numpy as np

from repro.mobility.models import MobilityModel
from repro.network.ksp import PathSearch, is_connected, reachable

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
        #: sources bridged out of a component with no routable destination
        #: (see :meth:`rescue_route`)
        self.rescues = 0
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
            #: the current edge set as an (n, n) bool matrix in index space;
            #: edited in place by ``step()`` (snapshot it to keep an epoch)
            self.adjacency = self._full_build()
            if not require_connected_start or is_connected(self.adjacency):
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
        self._search_scope: frozenset[int] | None = None

    def path_search(self, scope: Collection[int] | None = None) -> PathSearch:
        """The route-search snapshot of the current epoch's graph, induced by
        the node ids in ``scope`` (the whole graph when ``None``).

        Rebuilt only when ``epoch`` changes (the edge set really moved) or
        the scope's contents do — compared by value, so a set edited in
        place is seen; ids outside the topology are ignored.  Queries never
        mutate the adjacency, so the snapshot stays valid for the whole
        epoch — including around virtual-edge and power-boost queries,
        which ride in as query-time extra edges instead of graph edits.
        """
        if scope is not None and not isinstance(scope, frozenset):
            scope = frozenset(scope)  # the memo compares contents
        search = self._search
        if (
            search is None
            or self._search_epoch != self.epoch
            or (scope is not self._search_scope and scope != self._search_scope)
        ):
            if search is not None:
                b, q, p, t = self._ksp_retired
                self._ksp_retired = (
                    b + search.bfs_builds,
                    q + search.queries,
                    p + search.deviations_pruned,
                    t + search.build_s,
                )
            # ascending, so the index map is monotone and every node's
            # cyclic neighbour order is the full graph's among the kept
            ids, index = self.node_ids, self._index
            keep = (
                range(len(ids))
                if scope is None
                else sorted(index[nid] for nid in scope if nid in index)
            )
            search = PathSearch(
                self.adjacency[np.ix_(keep, keep)], [ids[j] for j in keep]
            )
            self._search = search
            self._search_epoch = self.epoch
            self._search_scope = scope
        return search

    # -- state access ----------------------------------------------------------

    @property
    def positions(self) -> dict[int, tuple[float, float]]:
        """Current positions keyed by node id."""
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

    def neighbors(self, node_id: int) -> list[int]:
        """Ids of the node's current neighbours, in ascending index order."""
        ids = self.node_ids
        row = self.adjacency[self._index[node_id]]
        return [ids[j] for j in np.flatnonzero(row).tolist()]

    def degree_stats(self) -> tuple[float, int, int]:
        """(mean, min, max) node degree — useful for choosing radio_range."""
        degrees = self.adjacency.sum(axis=1)
        return float(degrees.mean()), int(degrees.min()), int(degrees.max())

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
        discovered among nodes actually taking part in the network), on
        that subgraph's own snapshot (:meth:`path_search`).  A virtual or
        boost edge to a node outside it is dropped.

        A churned-out node keeps originating packets (its radio is on while
        it transmits), so an inactive *source* is virtually re-linked to its
        in-range active neighbours for the query; inactive destinations and
        intermediates stay unreachable.
        """
        i = self._index[source]
        extras: list[tuple[int, int]] = (
            [] if self._active[i] else self._virtual_edges(i)
        )
        search = self.path_search(restrict_to)
        if not self._reaches_scope(search, i, extras):
            # emergency power boost: a source with no reachable peer in
            # scope raises transmit power until its nearest participating
            # node hears it
            attach = self._nearest_peer(i, restrict_to)
            if attach is None:
                return []
            self.boost_count += 1
            extras = extras + [(source, attach)]
        return search.intermediate_paths(
            source, destination, max_paths, max_hops, extras
        )

    def _reaches_scope(
        self, search: PathSearch, i: int, extras: Sequence[tuple[int, int]]
    ) -> bool:
        """Whether node index ``i`` has a neighbour in the scoped snapshot
        ``search``, or an extra edge into it — a nonzero degree in the
        scope-induced subgraph with the query's virtual edges added."""
        index = search.index
        k = index.get(self.node_ids[i])
        if k is not None:
            linked = bool(search.neighbors[k])
        else:  # a source outside the scope: its live links into it
            keep = [self._index[nid] for nid in search.node_ids]
            linked = bool(self.adjacency[i, keep].any())
        return linked or any(b in index for _, b in extras)

    def rescue_route(
        self,
        source: int,
        max_paths: int,
        max_hops: int,
        scope: frozenset[int],
    ) -> tuple[int, list[tuple[int, ...]]] | None:
        """A route for ``source`` once every destination draw failed.

        The last resort of destination sampling, in two steps that read
        positions and consume no random draws:

        * search the live topology for the participants of the source's own
          component, nearest first — the draws can miss a lone routable
          destination;
        * failing that (a source in a two-node component has a neighbour,
          so it gets no power boost, and no destination with an
          intermediate), raise the source's transmit power until it
          reaches the nearest active participant outside its component —
          the long-range bridge link Danoy et al. use to join partitions
          (arXiv 0707.3030) — and play towards that peer's nearest
          in-scope neighbour.

        Returns ``(destination, routes)``, or ``None`` when neither finds a
        route.  The routes are never cached: the search bypasses the cache,
        and the bridge is position-dependent.
        """
        i = self._index[source]
        ids = self.node_ids
        extras: list[tuple[int, int]] = (
            [] if self._active[i] else self._virtual_edges(i)
        )
        in_scope = np.fromiter(
            (nid in scope for nid in ids), dtype=bool, count=len(ids)
        )
        allowed = in_scope & self._active
        start = np.zeros(len(ids), dtype=bool)
        start[i] = True
        for _, b in extras:
            start[self._index[b]] = True
        component = reachable(self.adjacency, start, allowed)
        d2 = np.sum((self._pos - self._pos[i]) ** 2, axis=1)
        inside = np.flatnonzero(component & allowed)
        for j in inside[np.argsort(d2[inside], kind="stable")].tolist():
            if j == i:
                continue
            paths = self.candidate_paths(source, ids[j], max_paths, max_hops, scope)
            if paths:
                self.rescues += 1
                return ids[j], paths
        search = self.path_search(scope)
        outside = np.flatnonzero(allowed & ~component)
        for b in outside[np.argsort(d2[outside], kind="stable")].tolist():
            peers = np.flatnonzero(self.adjacency[b] & allowed)
            if peers.size == 0:
                continue
            from_b = np.sum((self._pos[peers] - self._pos[b]) ** 2, axis=1)
            destination = ids[int(peers[np.argmin(from_b)])]
            paths = search.intermediate_paths(
                source, destination, max_paths, max_hops, extras + [(source, ids[b])]
            )
            if paths:
                self.rescues += 1
                return destination, paths
        return None

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
        """Advance positions one step; repair the adjacency; return whether
        the edge set changed (in which case ``epoch`` was incremented)."""
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

    def _full_build(self) -> np.ndarray:
        d2 = np.sum((self._pos[:, None, :] - self._pos[None, :, :]) ** 2, axis=-1)
        adjacent = (
            (d2 <= self.radio_range**2)
            & self._active[:, None]
            & self._active[None, :]
        )
        np.fill_diagonal(adjacent, False)
        return adjacent

    def _rebuild_edges(self, dirty: np.ndarray) -> bool:
        """Recompute the rows and columns of the ``dirty`` node indices.

        Returns whether any cell changed.  One distance scan gives the dirty
        rows' new cells; the row diff against the old cells yields the edge
        churn.  An edge between two dirty nodes shows in both of their
        rows, so the dirty-by-dirty block of each diff counts half.
        """
        pos = self._pos
        dx = pos[dirty, 0, None] - pos[None, :, 0]
        dy = pos[dirty, 1, None] - pos[None, :, 1]
        within = (
            (dx * dx + dy * dy <= self.radio_range**2)
            & self._active[dirty, None]
            & self._active[None, :]
        )
        within[np.arange(dirty.size), dirty] = False
        adjacency = self.adjacency
        old = adjacency[dirty]
        if np.array_equal(within, old):
            return False
        added = within & ~old
        removed = old & ~within
        self.edges_added += int(added.sum()) - int(added[:, dirty].sum()) // 2
        self.edges_removed += int(removed.sum()) - int(removed[:, dirty].sum()) // 2
        adjacency[dirty, :] = within
        adjacency[:, dirty] = within.T
        return True
