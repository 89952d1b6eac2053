"""Unit tests for DynamicTopology (incremental graph repair, epochs, churn)."""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.mobility import DynamicTopology, GaussMarkov, NodeChurn, RandomWaypoint

N = 20
RADIO = 0.45


def make_topology(model=None, radio=RADIO, seed=0, n=N, **kwargs):
    model = model or RandomWaypoint(0.01, 0.06, pause_time=1.0)
    return DynamicTopology(
        list(range(n)), radio, model, np.random.default_rng(seed), **kwargs
    )


def rebuilt_from_scratch(topo) -> nx.Graph:
    """The graph a full O(n^2) rebuild would produce from current state."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.node_ids)
    pos = topo.position_array()
    active = [topo.is_active(nid) for nid in topo.node_ids]
    for a, b in itertools.combinations(range(len(pos)), 2):
        if not (active[a] and active[b]):
            continue
        if ((pos[a] - pos[b]) ** 2).sum() <= topo.radio_range**2:
            graph.add_edge(topo.node_ids[a], topo.node_ids[b])
    return graph


def edge_set(graph) -> set[frozenset]:
    return {frozenset(e) for e in graph.edges}


class TestConstruction:
    def test_validation(self):
        rng = np.random.default_rng(0)
        model = RandomWaypoint(0.0, 0.1)
        with pytest.raises(ValueError):
            DynamicTopology([0, 1, 2], 0.0, model, rng)
        with pytest.raises(ValueError):
            DynamicTopology([0, 1], 0.5, model, rng)
        with pytest.raises(ValueError):
            DynamicTopology([0, 1, 2], 0.5, model, rng, dt=0.0)
        with pytest.raises(ValueError):
            DynamicTopology([0, 1, 2], 0.5, model, rng, tolerance=-0.1)

    def test_starts_connected(self):
        assert nx.is_connected(make_topology().graph)

    def test_sparse_start_fails_loudly(self):
        with pytest.raises(RuntimeError, match="radio_range"):
            make_topology(radio=0.02, n=40, max_reset_attempts=3)

    def test_disconnected_start_allowed_when_not_required(self):
        topo = make_topology(
            radio=0.1, n=15, seed=2, require_connected_start=False
        )
        assert len(topo.graph) == 15  # built without raising

    def test_positions_dict_keyed_by_id(self):
        topo = make_topology()
        assert set(topo.positions) == set(range(N))
        for x, y in topo.positions.values():
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0


class TestIncrementalRepair:
    @pytest.mark.parametrize(
        "model_factory",
        [
            lambda: RandomWaypoint(0.01, 0.06, pause_time=1.0),
            lambda: GaussMarkov(0.04),
            lambda: NodeChurn(RandomWaypoint(0.02, 0.08), 0.15, 0.5),
        ],
    )
    def test_matches_full_rebuild_after_many_steps(self, model_factory):
        topo = make_topology(model_factory())
        for _ in range(40):
            topo.step()
            assert edge_set(topo.graph) == edge_set(rebuilt_from_scratch(topo))

    def test_step_reports_edge_changes(self):
        topo = make_topology(RandomWaypoint(0.1, 0.2, pause_time=0.0))
        changed_any = any(topo.step() for _ in range(20))
        assert changed_any
        assert topo.epoch > 0


class ReferenceRepair(DynamicTopology):
    """The per-row ``set.add`` repair loop the vectorised repair replaced.

    Kept as the order oracle: route search breaks ties on each node's
    adjacency iteration order, which the repair's edge insertion sequence
    fixes — a sorted edge-set comparison cannot see it.
    """

    def _rebuild_edges(self, dirty):
        ids = self.node_ids
        adj = self.graph.adj
        old_edges = {
            (a, b) if a < b else (b, a)
            for i in dirty.tolist()
            for a in (ids[i],)
            for b in adj[a]
        }
        d2 = np.sum((self._pos[dirty, None, :] - self._pos[None, :, :]) ** 2, axis=-1)
        within = (
            (d2 <= self.radio_range**2)
            & self._active[dirty, None]
            & self._active[None, :]
        )
        new_edges = set()
        for row, i in enumerate(dirty.tolist()):
            a = ids[i]
            for j in np.flatnonzero(within[row]).tolist():
                if j != i:
                    b = ids[j]
                    new_edges.add((a, b) if a < b else (b, a))
        if new_edges == old_edges:
            return False
        removed = old_edges - new_edges
        added = new_edges - old_edges
        self.graph.remove_edges_from(removed)
        self.graph.add_edges_from(added)
        self.edges_removed += len(removed)
        self.edges_added += len(added)
        return True


class TestAdjacencyOrder:
    @pytest.mark.parametrize(
        ("model_factory", "ids", "tolerance"),
        [
            (lambda: RandomWaypoint(0.01, 0.06, pause_time=1.0), range(N), 0.0),
            (lambda: GaussMarkov(0.04), range(N), 0.0),
            (lambda: NodeChurn(RandomWaypoint(0.02, 0.08), 0.15, 0.5), range(N), 0.0),
            (lambda: RandomWaypoint(0.01, 0.06), range(N), 0.03),
            # ids that are not 0..n-1 and not in ascending order
            (lambda: GaussMarkov(0.04), [7 * k % 23 + 100 for k in range(N)], 0.0),
        ],
        ids=["waypoint", "gauss-markov", "churn", "tolerance", "relabelled"],
    )
    def test_repair_keeps_every_adjacency_order(self, model_factory, ids, tolerance):
        topos = [
            cls(
                list(ids),
                RADIO,
                model_factory(),
                np.random.default_rng(3),
                tolerance=tolerance,
            )
            for cls in (DynamicTopology, ReferenceRepair)
        ]
        changes = 0
        for _ in range(40):
            changed = [topo.step() for topo in topos]
            assert changed[0] == changed[1]
            changes += changed[0]
            got, want = (
                [list(topo.graph.adj[v]) for v in topo.node_ids] for topo in topos
            )
            assert got == want
        assert changes > 0


class TestEpochs:
    def test_stationary_network_never_advances_epoch(self):
        topo = make_topology(RandomWaypoint(0.0, 0.0))
        for _ in range(10):
            assert topo.step() is False
        assert topo.epoch == 0

    def test_epoch_counts_edge_set_changes_only(self):
        """Movement below tolerance leaves the edge set (and epoch) alone."""
        topo = make_topology(RandomWaypoint(0.001, 0.002), tolerance=1.5)
        before = edge_set(topo.graph)
        for _ in range(10):
            topo.step()
        assert topo.epoch == 0
        assert edge_set(topo.graph) == before

    def test_churn_flip_advances_epoch(self):
        topo = make_topology(NodeChurn(RandomWaypoint(0.0, 0.0), 1.0, 1.0))
        assert topo.step() is True  # everyone left: all edges dropped
        assert topo.epoch == 1
        assert topo.graph.number_of_edges() == 0
        assert topo.step() is True  # everyone returned
        assert edge_set(topo.graph) == edge_set(rebuilt_from_scratch(topo))


class TestChurnInGraph:
    def test_inactive_nodes_are_isolated(self):
        topo = make_topology(NodeChurn(RandomWaypoint(0.01, 0.05), 0.3, 0.2))
        for _ in range(5):
            topo.step()
        away = [nid for nid in topo.node_ids if not topo.is_active(nid)]
        assert away, "seed should produce at least one absent node"
        for nid in away:
            assert topo.graph.degree(nid) == 0
        assert set(topo.active_ids()) == set(topo.node_ids) - set(away)

    def test_inactive_source_still_routes_virtually(self):
        topo = make_topology(NodeChurn(RandomWaypoint(0.01, 0.05), 0.3, 0.2))
        for _ in range(5):
            topo.step()
        away = [nid for nid in topo.node_ids if not topo.is_active(nid)]
        source = away[0]
        edges_before = edge_set(topo.graph)
        found = any(
            topo.candidate_paths(source, dest, 3, 10)
            for dest in topo.active_ids()
        )
        assert found
        for path in topo.candidate_paths(source, topo.active_ids()[0], 3, 10):
            assert all(topo.is_active(node) for node in path)
        # the virtual re-link is transient: the graph is untouched afterwards
        assert edge_set(topo.graph) == edges_before


class TestScopedRouting:
    def test_paths_restricted_to_scope(self):
        topo = make_topology()
        scope = frozenset(range(0, N, 2))
        for dest in sorted(scope - {0}):
            for path in topo.candidate_paths(0, dest, 3, 10, restrict_to=scope):
                assert set(path) <= scope

    def test_emergency_boost_attaches_isolated_source(self):
        """A source with no in-scope neighbour is virtually attached to its
        nearest participating node rather than failing outright."""
        topo = make_topology()
        neighbours = set(topo.graph[0])
        scope = frozenset(set(topo.node_ids) - neighbours)
        assert 0 in scope
        edges_before = edge_set(topo.graph)
        boosts_before = topo.boost_count
        found = any(
            topo.candidate_paths(0, dest, 3, 10, restrict_to=scope)
            for dest in sorted(scope - {0})
        )
        assert found
        assert topo.boost_count > boosts_before
        assert edge_set(topo.graph) == edges_before

    def test_no_boost_when_source_has_scope_neighbours(self):
        topo = make_topology()
        scope = frozenset(topo.node_ids)
        topo.candidate_paths(0, N - 1, 3, 10, restrict_to=scope)
        assert topo.boost_count == 0


class TestDeterminism:
    def test_same_seed_identical_graph_evolution(self):
        def evolve(seed):
            topo = make_topology(seed=seed)
            history = []
            for _ in range(30):
                topo.step()
                history.append(
                    (topo.epoch, tuple(sorted(map(tuple, topo.graph.edges))))
                )
            return history

        assert evolve(5) == evolve(5)
        assert evolve(5) != evolve(6)
