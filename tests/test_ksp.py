"""Native K-shortest-paths vs networkx: the order-exact equivalence suite.

:class:`repro.network.ksp.PathSearch` replaces ``nx.shortest_simple_paths``
in every route hot loop, so its output must match networkx *exactly* — same
path sets, same order (ties included), same ``max_hops``/``max_paths``
truncation — across randomized geometric graphs and the edge cases the
oracles hit (disconnected components, direct-neighbour-only connectivity,
empty results, snapshots of scope-induced subgraphs, query-time virtual
edges).

The randomized geometric graphs are built with neighbours in ascending
index order, so they run through the runtime constructor with its rows
sorted back from the cyclic order to ascending on the test side
(:func:`tests.reference_routes.ascend`); the hand-built edge cases (cycles,
relabelled ids) iterate in other orders and run through :func:`search_of`,
which walks the graph's own order — the Yen port must match networkx under
any order.
"""

from __future__ import annotations

from itertools import islice

import networkx as nx
import numpy as np
import pytest

from repro.network.ksp import UNREACHABLE, PathSearch, is_connected, reachable
from tests.reference_routes import (
    adjacency_of,
    ascend,
    reference_simple_paths,
    search_of,
    shortest_intermediate_paths,
)


def geometric_graph(seed: int, n: int | None = None, radius: float | None = None):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(8, 40))
    if radius is None:
        radius = float(rng.uniform(0.18, 0.45))
    positions = rng.random((n, 2))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if np.sum((positions[i] - positions[j]) ** 2) <= radius * radius:
                graph.add_edge(i, j)
    return graph, rng


def canonical_search(graph: nx.Graph) -> PathSearch:
    """The runtime constructor over the graph's adjacency matrix, walking
    the graph's (ascending) neighbour order."""
    return ascend(PathSearch(*adjacency_of(graph)))


class TestCanonicalOrder:
    @pytest.mark.parametrize("seed", range(5))
    def test_neighbours_ascend_and_match_the_matrix(self, seed):
        """The test-side sort gives the suite's searches ascending rows."""
        graph, _ = geometric_graph(seed)
        adjacency, ids = adjacency_of(graph)
        search = canonical_search(graph)
        for i, nbrs in enumerate(search.neighbors):
            assert nbrs == np.flatnonzero(adjacency[i]).tolist()
            assert search.neighbor_set(i) == set(nbrs)
        # the geometric graphs below are built in ascending order
        assert [list(graph.adj[v]) for v in graph] == search.neighbors

    @pytest.mark.parametrize("seed", range(5))
    def test_cyclic_order_starts_after_the_node(self, seed):
        graph, _ = geometric_graph(seed)
        adjacency, ids = adjacency_of(graph)
        n = len(ids)
        search = PathSearch(adjacency, ids)
        for i, nbrs in enumerate(search.neighbors):
            row = np.flatnonzero(adjacency[i]).tolist()
            assert nbrs == sorted(row, key=lambda j: (j - i) % n)
            assert search.neighbor_set(i) == set(row)

    def test_cyclic_order_is_rotation_invariant(self):
        """Relabelling node i as i + c (mod n) relabels every route the same
        way: the cyclic order favours no index."""
        graph, rng = geometric_graph(21, n=24)
        adjacency, _ = adjacency_of(graph)
        shift = 7
        perm = (np.arange(24) + shift) % 24  # old index -> new index
        rotated = np.zeros_like(adjacency)
        rotated[np.ix_(perm, perm)] = adjacency
        a = PathSearch(adjacency)
        b = PathSearch(rotated)
        for _ in range(20):
            s, t = (int(x) for x in rng.choice(24, size=2, replace=False))
            want = [
                tuple(int(perm[v]) for v in p)
                for p in a.intermediate_paths(s, t, 4, 8)
            ]
            assert b.intermediate_paths(int(perm[s]), int(perm[t]), 4, 8) == want

    def test_snapshot_ignores_later_edits(self):
        adjacency, ids = adjacency_of(nx.path_graph(4))
        search = PathSearch(adjacency, ids)
        adjacency[0, 3] = adjacency[3, 0] = True
        assert search.neighbors[0] == [1]
        assert search.hop_distance(0, 3) == 3

    def test_shape_must_match_the_ids(self):
        with pytest.raises(ValueError, match="adjacency"):
            PathSearch(np.zeros((3, 3), dtype=bool), [0, 1])

    @pytest.mark.parametrize("seed", range(8))
    def test_connectivity_matches_networkx(self, seed):
        graph, rng = geometric_graph(seed, n=30, radius=0.2)
        adjacency, ids = adjacency_of(graph)
        assert is_connected(adjacency) == nx.is_connected(graph)
        start = np.zeros(len(ids), dtype=bool)
        start[0] = True
        assert set(np.flatnonzero(reachable(adjacency, start)).tolist()) == (
            nx.node_connected_component(graph, 0)
        )
        allowed = rng.random(len(ids)) < 0.7
        within = reachable(adjacency, start, allowed)
        sub = graph.subgraph([v for v in ids if allowed[v]] + [0])
        assert set(np.flatnonzero(within).tolist()) == (
            nx.node_connected_component(sub, 0)
        )


class TestRandomizedEquivalence:
    """~100 seeded random geometric graphs, native vs networkx."""

    @pytest.mark.parametrize("seed", range(50))
    def test_simple_paths_match_networkx_order(self, seed):
        graph, rng = geometric_graph(seed)
        search = canonical_search(graph)
        n = graph.number_of_nodes()
        for _ in range(6):
            s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
            for limit, max_hops in ((12, 4), (6, 10), (25, 3), (1, 10)):
                expected = list(
                    islice(reference_simple_paths(graph, s, t, max_hops), limit)
                )
                assert search.simple_paths(s, t, max_hops, limit=limit) == (
                    expected
                ), f"simple_paths({s}, {t}, {max_hops})[:{limit}] diverged"

    @pytest.mark.parametrize("seed", range(50, 100))
    def test_intermediate_paths_match_reference(self, seed):
        """Same truncation semantics as shortest_intermediate_paths."""
        graph, rng = geometric_graph(seed)
        search = canonical_search(graph)
        n = graph.number_of_nodes()
        for _ in range(6):
            s, t = (int(x) for x in rng.choice(n, size=2, replace=False))
            for max_paths, max_hops in ((3, 10), (1, 5), (8, 3), (2, 4)):
                expected = [
                    tuple(p)
                    for p in shortest_intermediate_paths(
                        graph, s, t, max_paths, max_hops
                    )
                ]
                got = search.intermediate_paths(s, t, max_paths, max_hops)
                assert got == expected

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_scoped_and_virtual_edges_match_networkx(self, seed):
        """A snapshot of the scope-induced subgraph == nx subgraph;
        extra_edges == temporary add_edges_from, and an extra edge that
        leaves the scope is dropped."""
        graph, rng = geometric_graph(seed, n=25)
        adjacency, _ = adjacency_of(graph)
        nodes = list(graph)
        for trial in range(8):
            keep = sorted(int(x) for x in rng.choice(25, size=18, replace=False))
            scope = frozenset(keep)
            search = ascend(PathSearch(adjacency[np.ix_(keep, keep)], keep))
            s, t = keep[0], keep[-1]
            inside = [(s, keep[len(keep) // 2])]
            inside = [(a, b) for a, b in inside if not graph.has_edge(a, b)]
            leaving = [(s, min(set(nodes) - scope)), (max(set(nodes) - scope), t)]
            graph.add_edges_from(inside)
            try:
                expected = [
                    tuple(p)
                    for p in shortest_intermediate_paths(
                        graph.subgraph(scope), s, t, 4, 8
                    )
                ]
            finally:
                graph.remove_edges_from(inside)
            got = search.intermediate_paths(s, t, 4, 8, extra_edges=inside + leaving)
            assert got == expected
            # an endpoint outside the snapshot has no route
            assert search.intermediate_paths(s, leaving[0][1], 4, 8) == []
        assert nodes == list(graph)  # the emulation restored the graph

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_induced_snapshot_keeps_the_cyclic_order(self, seed):
        """Dropping nodes keeps every kept node's cyclic neighbour order: an
        ascending index map is monotone, so the induced snapshot breaks
        each route tie as the full graph does."""
        graph, rng = geometric_graph(seed, n=25)
        adjacency, _ = adjacency_of(graph)
        full = PathSearch(adjacency)
        keep = sorted(int(x) for x in rng.choice(25, size=18, replace=False))
        scoped = PathSearch(adjacency[np.ix_(keep, keep)], keep)
        for k, i in enumerate(keep):
            assert [keep[j] for j in scoped.neighbors[k]] == [
                j for j in full.neighbors[i] if j in scoped.index
            ]


class TestEdgeCases:
    def test_disconnected_components_yield_nothing(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2), (3, 4), (4, 5)])
        search = search_of(graph)
        assert search.intermediate_paths(0, 4, 3, 10) == []
        assert search.simple_paths(0, 4, 10) == []
        assert search.hop_distance(0, 4) == UNREACHABLE

    def test_direct_neighbour_only_is_empty(self):
        """Two nodes joined only by the direct edge: no game to play."""
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (1, 2)])
        search = search_of(graph)
        assert search.intermediate_paths(0, 1, 3, 10) == []
        # but the raw enumeration still reports the direct route
        assert search.simple_paths(0, 1, 10) == [[0, 1]]

    def test_unknown_endpoints_are_empty(self):
        graph = nx.path_graph(4)
        search = search_of(graph)
        assert search.intermediate_paths(0, 99, 3, 10) == []
        assert search.intermediate_paths(99, 0, 3, 10) == []

    def test_nonpositive_max_paths_is_empty(self):
        graph = nx.cycle_graph(5)
        search = search_of(graph)
        assert search.intermediate_paths(0, 2, 0, 10) == []

    def test_max_hops_truncation_matches_break_semantics(self):
        """A long detour past max_hops stops the enumeration, as the
        consumer's ``break`` on the first too-long path always did."""
        graph = nx.Graph()
        nx.add_path(graph, [0, 1, 2])
        nx.add_path(graph, [0, 3, 4, 5, 6, 2])
        search = search_of(graph)
        assert search.intermediate_paths(0, 2, 5, max_hops=2) == [(1,)]
        assert search.intermediate_paths(0, 2, 5, max_hops=5) == [
            (1,),
            (3, 4, 5, 6),
        ]

    def test_source_equals_target_matches_networkx(self):
        graph = nx.cycle_graph(6)
        search = search_of(graph)
        assert search.simple_paths(2, 2, 10) == [[2]]
        assert search.intermediate_paths(2, 2, 3, 10) == []

    def test_cycle_graph_two_routes(self):
        graph = nx.cycle_graph(7)
        search = search_of(graph)
        assert search.simple_paths(0, 3, 10) == [
            [0, 1, 2, 3],
            [0, 6, 5, 4, 3],
        ]


def hop_field_cases():
    """Graphs for the hop-field suite: connected, disconnected, relabelled."""
    cases = [
        pytest.param(geometric_graph(seed, n=30)[0], id=f"seed{seed}")
        for seed in (11, 12, 13, 14)
    ]
    sparse, _ = geometric_graph(5, n=40, radius=0.12)
    assert not is_connected(adjacency_of(sparse)[0])
    cases.append(pytest.param(sparse, id="disconnected"))
    graph, _ = geometric_graph(11, n=30)
    # ids that are not 0..n-1 (and not in ascending order)
    relabelled = nx.relabel_nodes(graph, {v: 1000 - 7 * v for v in graph})
    cases.append(pytest.param(relabelled, id="relabelled"))
    return cases


class TestHopFields:
    MAX_HOPS = 10

    @pytest.mark.parametrize("graph", hop_field_cases())
    @pytest.mark.parametrize("bound", [None, *range(1, MAX_HOPS + 1)])
    def test_distances_match_networkx_bfs(self, graph, bound):
        search = search_of(graph)
        rows = search.hop_fields(bound)
        index = search.index
        for s in graph:
            expected = nx.single_source_shortest_path_length(graph, s, cutoff=bound)
            for t in graph:
                got = rows[index[t]][index[s]]
                assert got == expected.get(t, UNREACHABLE), (s, t, bound)
                if bound is None:
                    assert search.hop_distance(s, t) == got

    def test_bounded_field_extends_on_demand(self):
        graph = nx.path_graph(9)
        search = search_of(graph)
        rows = search.hop_fields(bound=3)
        assert rows[0][3] == 3
        assert rows[0][8] == UNREACHABLE  # beyond the sweep bound
        rows = search.hop_fields(bound=8)
        assert rows[0][8] == 8

    def test_bfs_builds_count_every_sweep(self):
        search = search_of(nx.path_graph(9))
        assert search.bfs_builds == 0
        counts = []
        for bound in (3, 2, 3, 8, None, None, 12):
            search.hop_fields(bound)
            counts.append(search.bfs_builds)
        # a smaller or equal bound reuses the field; a larger one re-sweeps;
        # the sweep to bound 8 stops before it can see the graph is done
        assert counts == [1, 1, 1, 2, 3, 3, 3]
        search.hop_distance(0, 8)
        assert search.bfs_builds == 3

    def test_snapshot_times_its_builds(self):
        graph, _ = geometric_graph(11, n=30)
        search = canonical_search(graph)
        built = search.build_s
        assert built > 0
        search.hop_fields(4)
        assert search.build_s > built
        swept = search.build_s
        search.hop_fields(3)  # served from the cached field: no new sweep
        search.intermediate_paths(0, 7, 3, 4)
        assert search.build_s == swept


class TestShortestIntermediatePaths:
    def test_collects_max_paths_despite_skipped_candidates(self):
        """The generator is consumed until enough valid routes are found —
        no fixed slice can truncate the collection early."""
        graph = nx.complete_graph(10)
        # 8 two-hop routes exist between any pair; the 1-hop direct route is
        # skipped; ask for more than the old islice cap would have visited
        paths = shortest_intermediate_paths(graph, 0, 1, max_paths=8, max_hops=2)
        assert len(paths) == 8
        assert all(len(p) == 1 for p in paths)

    def test_max_hops_bounds_route_length(self):
        graph = nx.path_graph(8)  # 0-1-2-...-7
        assert shortest_intermediate_paths(graph, 0, 7, 3, max_hops=6) == []
        assert shortest_intermediate_paths(graph, 0, 7, 3, max_hops=7) == [
            (1, 2, 3, 4, 5, 6)
        ]

    def test_missing_node_yields_no_paths(self):
        graph = nx.path_graph(4)
        assert shortest_intermediate_paths(graph, 0, 99, 3, 10) == []

    def test_nonpositive_max_paths(self):
        graph = nx.complete_graph(4)
        assert shortest_intermediate_paths(graph, 0, 1, 0, 10) == []
