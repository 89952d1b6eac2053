"""Unit tests for DynamicTopology (incremental adjacency repair, epochs,
churn, the canonical neighbour order, scoped route-search snapshots)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.mobility import DynamicTopology, GaussMarkov, NodeChurn, RandomWaypoint
from repro.network.ksp import is_connected, reachable
from tests.reference_routes import cyclic_graph, shortest_intermediate_paths

N = 20
RADIO = 0.45

#: a moving network, and the static one (the same model at speed 0)
SPEEDS = {
    "moving": lambda: RandomWaypoint(0.01, 0.06, pause_time=1.0),
    "speed0": lambda: RandomWaypoint(0.0, 0.0),
}


def make_topology(model=None, radio=RADIO, seed=0, n=N, **kwargs):
    model = model or RandomWaypoint(0.01, 0.06, pause_time=1.0)
    return DynamicTopology(
        list(range(n)), radio, model, np.random.default_rng(seed), **kwargs
    )


def rebuilt_from_scratch(topo) -> np.ndarray:
    """The adjacency a full O(n^2) rebuild would produce from current
    positions, pair by pair."""
    n = len(topo.node_ids)
    adjacency = np.zeros((n, n), dtype=bool)
    pos = topo.position_array()
    active = [topo.is_active(nid) for nid in topo.node_ids]
    for a, b in itertools.combinations(range(n), 2):
        if not (active[a] and active[b]):
            continue
        if ((pos[a] - pos[b]) ** 2).sum() <= topo.radio_range**2:
            adjacency[a, b] = adjacency[b, a] = True
    return adjacency


def edge_set(topo) -> set[frozenset]:
    """The topology's edges as id pairs."""
    ids = topo.node_ids
    rows, cols = np.nonzero(np.triu(topo.adjacency, k=1))
    return {frozenset((ids[i], ids[j])) for i, j in zip(rows, cols)}


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

    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    def test_starts_connected(self, speed):
        assert is_connected(make_topology(SPEEDS[speed]()).adjacency)

    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    def test_sparse_start_fails_loudly(self, speed):
        with pytest.raises(RuntimeError, match="radio_range"):
            make_topology(SPEEDS[speed](), radio=0.02, n=40, max_reset_attempts=3)

    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    def test_disconnected_start_allowed_when_not_required(self, speed):
        topo = make_topology(
            SPEEDS[speed](), radio=0.1, n=15, seed=2, require_connected_start=False
        )
        assert topo.adjacency.shape == (15, 15)  # built without raising
        assert not is_connected(topo.adjacency)
        # no route joins two components (a source with a neighbour gets no
        # power boost)
        source = next(nid for nid in topo.node_ids if topo.neighbors(nid))
        start = np.zeros(15, dtype=bool)
        start[source] = True
        outside = np.flatnonzero(~reachable(topo.adjacency, start)).tolist()
        assert outside
        for other in outside:
            assert topo.candidate_paths(source, other, 3, 10) == []

    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    def test_degree_stats(self, speed):
        topo = make_topology(SPEEDS[speed]())
        mean, lo, hi = topo.degree_stats()
        degrees = topo.adjacency.sum(axis=1)
        assert (mean, lo, hi) == (degrees.mean(), degrees.min(), degrees.max())
        assert 1 <= lo <= mean <= hi

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
            SPEEDS["speed0"],
        ],
    )
    def test_matches_full_rebuild_after_many_steps(self, model_factory):
        topo = make_topology(model_factory())
        for _ in range(40):
            topo.step()
            assert np.array_equal(topo.adjacency, rebuilt_from_scratch(topo))

    def test_step_reports_edge_changes(self):
        topo = make_topology(RandomWaypoint(0.1, 0.2, pause_time=0.0))
        changed_any = any(topo.step() for _ in range(20))
        assert changed_any
        assert topo.epoch > 0


class TestCanonicalOrder:
    """Route ties break on each node's neighbour order, so it must be a
    function of the edge set alone — never the record of which edges were
    repaired when: after every step the edge set equals a pair-by-pair
    rebuild of the nodes whose anchors moved, ``neighbors()`` ascends by
    index, and route search walks the cyclic order (ascending from the
    node's own index, wrapping around)."""

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
    def test_every_step_is_canonical(self, model_factory, ids, tolerance):
        topo = DynamicTopology(
            list(ids),
            RADIO,
            model_factory(),
            np.random.default_rng(3),
            tolerance=tolerance,
        )
        index = {nid: i for i, nid in enumerate(topo.node_ids)}
        expected = rebuilt_from_scratch(topo)
        changes = 0
        for _ in range(40):
            anchor = topo._anchor.copy()
            anchor_active = topo._anchor_active.copy()
            before = edge_set(topo)
            epoch = topo.epoch
            changed = topo.step()
            # the nodes re-anchored by this step get their pairs recomputed
            # from the current positions; every other pair keeps its cell
            dirty = np.flatnonzero(
                np.any(topo._anchor != anchor, axis=1)
                | (topo._anchor_active != anchor_active)
            )
            expected = rebuilt_rows(topo, expected, dirty)
            assert np.array_equal(topo.adjacency, expected)
            if tolerance == 0.0:
                assert np.array_equal(topo.adjacency, rebuilt_from_scratch(topo))
            moved = edge_set(topo) != before
            assert changed == moved
            assert topo.epoch == epoch + moved
            changes += changed
            search = topo.path_search()
            n = len(topo.node_ids)
            for nid in topo.node_ids:
                i = index[nid]
                got = [index[w] for w in topo.neighbors(nid)]
                assert got == sorted(got)
                cyclic = sorted(got, key=lambda j: (j - i) % n)
                assert search.neighbors[i] == cyclic
        assert changes > 0

    def test_churn_counts_match_the_edge_set_diff(self):
        topo = make_topology(NodeChurn(RandomWaypoint(0.02, 0.08), 0.15, 0.5))
        for _ in range(30):
            before = edge_set(topo)
            added, removed = topo.edges_added, topo.edges_removed
            topo.step()
            after = edge_set(topo)
            assert topo.edges_added - added == len(after - before)
            assert topo.edges_removed - removed == len(before - after)


def rebuilt_rows(topo, adjacency: np.ndarray, dirty) -> np.ndarray:
    """``adjacency`` with every pair touching a ``dirty`` index recomputed,
    pair by pair, from the current positions and activity."""
    adjacency = adjacency.copy()
    pos = topo.position_array()
    active = [topo.is_active(nid) for nid in topo.node_ids]
    for a in dirty.tolist():
        for b in range(len(pos)):
            if a == b:
                continue
            within = bool(((pos[a] - pos[b]) ** 2).sum() <= topo.radio_range**2)
            adjacency[a, b] = adjacency[b, a] = within and active[a] and active[b]
    return adjacency


class TestEpochs:
    def test_stationary_network_never_advances_epoch(self):
        topo = make_topology(RandomWaypoint(0.0, 0.0))
        for _ in range(10):
            assert topo.step() is False
        assert topo.epoch == 0

    def test_epoch_counts_edge_set_changes_only(self):
        """Movement below tolerance leaves the edge set (and epoch) alone."""
        topo = make_topology(RandomWaypoint(0.001, 0.002), tolerance=1.5)
        before = edge_set(topo)
        for _ in range(10):
            topo.step()
        assert topo.epoch == 0
        assert edge_set(topo) == before

    def test_churn_flip_advances_epoch(self):
        topo = make_topology(NodeChurn(RandomWaypoint(0.0, 0.0), 1.0, 1.0))
        assert topo.step() is True  # everyone left: all edges dropped
        assert topo.epoch == 1
        assert not topo.adjacency.any()
        assert topo.step() is True  # everyone returned
        assert np.array_equal(topo.adjacency, rebuilt_from_scratch(topo))


class TestChurnInGraph:
    def test_inactive_nodes_are_isolated(self):
        topo = make_topology(NodeChurn(RandomWaypoint(0.01, 0.05), 0.3, 0.2))
        for _ in range(5):
            topo.step()
        away = [nid for nid in topo.node_ids if not topo.is_active(nid)]
        assert away, "seed should produce at least one absent node"
        for nid in away:
            assert topo.neighbors(nid) == []
        assert set(topo.active_ids()) == set(topo.node_ids) - set(away)

    def test_inactive_source_still_routes_virtually(self):
        topo = make_topology(NodeChurn(RandomWaypoint(0.01, 0.05), 0.3, 0.2))
        for _ in range(5):
            topo.step()
        away = [nid for nid in topo.node_ids if not topo.is_active(nid)]
        source = away[0]
        edges_before = edge_set(topo)
        found = any(
            topo.candidate_paths(source, dest, 3, 10)
            for dest in topo.active_ids()
        )
        assert found
        for path in topo.candidate_paths(source, topo.active_ids()[0], 3, 10):
            assert all(topo.is_active(node) for node in path)
        # the virtual re-link is transient: the graph is untouched afterwards
        assert edge_set(topo) == edges_before


class TestScopedRouting:
    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    def test_paths_restricted_to_scope(self, speed):
        topo = make_topology(SPEEDS[speed]())
        scope = frozenset(range(0, N, 2))
        for dest in sorted(scope - {0}):
            paths = topo.candidate_paths(0, dest, 2, 10, restrict_to=scope)
            assert len(paths) <= 2
            for path in paths:
                assert set(path) <= scope
                assert 0 not in path and dest not in path

    def test_emergency_boost_attaches_isolated_source(self):
        """A source with no in-scope neighbour is virtually attached to its
        nearest participating node rather than failing outright."""
        topo = make_topology()
        neighbours = set(topo.neighbors(0))
        scope = frozenset(set(topo.node_ids) - neighbours)
        assert 0 in scope
        edges_before = edge_set(topo)
        boosts_before = topo.boost_count
        found = any(
            topo.candidate_paths(0, dest, 3, 10, restrict_to=scope)
            for dest in sorted(scope - {0})
        )
        assert found
        assert topo.boost_count > boosts_before
        assert edge_set(topo) == edges_before

    def test_no_boost_when_source_has_scope_neighbours(self):
        topo = make_topology()
        scope = frozenset(topo.node_ids)
        topo.candidate_paths(0, N - 1, 3, 10, restrict_to=scope)
        assert topo.boost_count == 0


def reference_candidate_paths(topo, source, destination, max_paths, max_hops, scope):
    """``(routes, boosted)`` of a scoped ``candidate_paths`` call, from
    networkx on the scope-induced subgraph of the cyclic-order graph.

    An inactive source is re-linked to its in-range active nodes; a source
    with no neighbour in scope (those links included) is power-boosted to
    its nearest active in-scope node — the rule read off the live graph and
    positions, as the full-graph search with a scope filter read it."""
    ids = topo.node_ids
    i = ids.index(source)
    pos = topo.position_array()
    d2 = ((pos - pos[i]) ** 2).sum(axis=1)
    active = [topo.is_active(nid) for nid in ids]
    extras = []
    if not active[i]:
        extras = [
            (source, ids[j])
            for j in range(len(ids))
            if j != i and active[j] and d2[j] <= topo.radio_range**2
        ]
    linked = any(ids[j] in scope for j in np.flatnonzero(topo.adjacency[i]))
    boosted = 0
    if not (linked or any(b in scope for _, b in extras)):
        peers = [j for j in range(len(ids)) if j != i and active[j] and ids[j] in scope]
        if not peers:
            return [], 0
        extras.append((source, ids[min(peers, key=lambda j: d2[j])]))
        boosted = 1
    graph = cyclic_graph(topo.adjacency, ids)
    graph.add_edges_from(extras)
    routes = shortest_intermediate_paths(
        graph.subgraph(scope), source, destination, max_paths, max_hops
    )
    return routes, boosted


class TestScopedSnapshot:
    """A scoped search runs on one snapshot of the subgraph the scope
    induces, built once per (epoch, scope contents)."""

    def test_candidate_paths_match_networkx_under_churn(self):
        n = 24
        topo = make_topology(
            NodeChurn(RandomWaypoint(0.02, 0.08), 0.15, 0.5), radio=0.35, n=n
        )
        rng = np.random.default_rng(11)
        seen = {"routed": 0, "virtual": 0, "boost": 0, "outside": 0}
        for _ in range(25):
            topo.step()
            scope = frozenset(rng.choice(n, size=14, replace=False).tolist())
            for _ in range(8):
                s, t = rng.choice(n, size=2, replace=False).tolist()
                want, boosted = reference_candidate_paths(topo, s, t, 3, 6, scope)
                before = topo.boost_count
                assert topo.candidate_paths(s, t, 3, 6, scope) == want
                assert topo.boost_count - before == boosted
                seen["routed"] += bool(want)
                seen["virtual"] += not topo.is_active(s)
                seen["boost"] += boosted
                seen["outside"] += not {s, t} <= scope
        assert all(seen.values()), seen

    def test_full_scope_is_the_full_graph(self):
        """A scope covering every node (a superset counts) snapshots the
        whole graph; a smaller one leaves the rest out."""
        topo = make_topology()
        full = topo.path_search()
        for scope in (frozenset(range(N)), frozenset(range(N + 5))):
            search = topo.path_search(scope)
            assert search.node_ids == full.node_ids
            assert search.neighbors == full.neighbors
        assert topo.path_search(frozenset(range(N - 1))).node_ids == list(range(N - 1))

    def test_rebuilt_exactly_on_an_epoch_or_scope_change(self):
        topo = make_topology(RandomWaypoint(0.005, 0.01), tolerance=0.05)
        scope = frozenset(range(0, N, 2))
        search = topo.path_search(scope)
        assert topo.path_search(scope) is search
        assert topo.path_search(set(scope)) is search  # equal contents
        moves = stays = 0
        for _ in range(40):
            epoch = topo.epoch
            topo.step()
            fresh = topo.path_search(scope)
            assert (fresh is not search) == (topo.epoch != epoch)
            moves += fresh is not search
            stays += fresh is search
            search = fresh
        assert moves and stays
        other = topo.path_search(frozenset(range(1, N, 2)))
        assert other is not search
        assert topo.path_search(frozenset(range(1, N, 2))) is other
        assert topo.path_search(scope) is not other

    def test_scope_edited_in_place_is_seen(self):
        """The path 0-1-2-3 plus 0-4-3: a scope set that gains node 4 in
        place routes over it from then on."""
        topo = DynamicTopology(
            list(range(5)),
            RADIO,
            RandomWaypoint(0.0, 0.0),
            np.random.default_rng(0),
            require_connected_start=False,
        )
        topo.adjacency[:] = False
        for a, b in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]:
            topo.adjacency[a, b] = topo.adjacency[b, a] = True
        scope = {0, 1, 2, 3}
        assert topo.candidate_paths(0, 3, 3, 5, scope) == [(1, 2)]
        scope.add(4)
        assert topo.candidate_paths(0, 3, 3, 5, scope) == [(4,), (1, 2)]
        assert topo.candidate_paths(0, 3, 3, 5, {0, 1, 2, 3, 4}) == [(4,), (1, 2)]


class TestDeterminism:
    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    def test_same_seed_identical_graph_evolution(self, speed):
        def evolve(seed):
            topo = make_topology(SPEEDS[speed](), seed=seed)
            history = []
            for _ in range(30):
                topo.step()
                history.append((topo.epoch, topo.adjacency.tobytes()))
            return history

        assert evolve(5) == evolve(5)
        assert evolve(5) != evolve(6)
