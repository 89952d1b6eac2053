"""networkx references for the native route substrate (test-only).

networkx is a ``dev`` dependency: the runtime keeps the topology as an
``(n, n)`` bool adjacency matrix, with neighbours in the cyclic order
(ascending index from the node's own, wrapping around), and these helpers
are what the tests hold it against.

* :func:`reference_simple_paths` / :func:`shortest_intermediate_paths` —
  ``nx.shortest_simple_paths`` truncated the way the repo's consumers
  truncate it (the ground truth of ``tests/test_ksp.py``);
* :func:`search_of` — a :class:`PathSearch` over a networkx graph that
  walks neighbours in the graph's own adjacency order, so the Yen port can
  be compared with networkx on any graph, canonical order or not;
* :func:`ascend` — a :class:`PathSearch` walking plain ascending index
  order, the order of a graph built by :func:`graph_of`;
* :func:`cyclic_graph` — an ``nx.Graph`` walking the runtime's cyclic
  order, the reference of the mobile topology's scoped route search;
* :class:`HashOrderTopology` — the mobile topology as it was before the
  canonical order: an ``nx.Graph`` repaired through Python edge sets, whose
  neighbour order (hence route tie order) follows the sets' hash-slot
  order.  The statistical tier in ``tests/test_mobility_order_tier.py``
  runs it against :class:`DynamicTopology` to show the order change moved
  no outcome distribution.  Its scoped snapshots walk the graph's order
  with the nodes outside the scope left out, as the retired scope mask
  filtered them;
* :class:`AscendingOrderTopology` — the mobile topology with plain
  ascending tie order, the order that tier rejects.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx
import numpy as np

from repro.mobility.dynamic import DynamicTopology
from repro.network.ksp import PathSearch


def reference_simple_paths(
    graph: nx.Graph, source: int, destination: int, max_hops: int
) -> Iterable[list[int]]:
    """``nx.shortest_simple_paths`` output, stopped at the first path longer
    than ``max_hops`` hops; nothing for a missing node or no path."""
    try:
        for path in nx.shortest_simple_paths(graph, source, destination):
            if len(path) - 1 > max_hops:
                break
            yield path
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return


def shortest_intermediate_paths(
    graph: nx.Graph, source: int, destination: int, max_paths: int, max_hops: int
) -> list[tuple[int, ...]]:
    """Up to ``max_paths`` shortest simple routes as intermediate tuples:
    routes over ``max_hops`` hops are dropped and direct-neighbour routes
    skipped — the contract of :meth:`PathSearch.intermediate_paths`."""
    paths: list[tuple[int, ...]] = []
    if max_paths < 1:
        return paths
    for node_path in reference_simple_paths(graph, source, destination, max_hops):
        if len(node_path) < 3:
            continue
        paths.append(tuple(node_path[1:-1]))
        if len(paths) == max_paths:
            break
    return paths


def adjacency_of(graph: nx.Graph) -> tuple[np.ndarray, list[int]]:
    """The graph's bool adjacency matrix and node ids, in node order."""
    ids = list(graph)
    index = {nid: i for i, nid in enumerate(ids)}
    adjacency = np.zeros((len(ids), len(ids)), dtype=bool)
    for a, b in graph.edges:
        adjacency[index[a], index[b]] = adjacency[index[b], index[a]] = True
    return adjacency, ids


def graph_of(adjacency: np.ndarray, ids=None) -> nx.Graph:
    """An ``nx.Graph`` of a bool adjacency matrix whose neighbours iterate
    in ascending index order (the canonical order)."""
    n = adjacency.shape[0]
    ids = list(range(n)) if ids is None else list(ids)
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    rows, cols = np.nonzero(np.triu(adjacency, k=1))
    graph.add_edges_from((ids[i], ids[j]) for i, j in zip(rows, cols))
    return graph


def cyclic_graph(adjacency: np.ndarray, ids=None) -> nx.Graph:
    """An ``nx.Graph`` of a bool adjacency matrix whose neighbours iterate
    in the cyclic order (ascending index from the node's own, wrapping
    around) — the runtime's order, so networkx breaks route ties as the
    runtime does.  Edges added later iterate after these, as query-time
    extra edges do."""
    graph = graph_of(adjacency, ids)
    ids = list(graph)
    n = len(ids)
    for i, u in enumerate(ids):
        row = graph._adj[u]
        order = sorted(np.flatnonzero(adjacency[i]).tolist(), key=lambda j: (j - i) % n)
        graph._adj[u] = {ids[j]: row[ids[j]] for j in order}
    return graph


def follow_graph_order(search: PathSearch, graph: nx.Graph) -> PathSearch:
    """Make ``search`` walk neighbours in ``graph``'s adjacency order; a
    snapshot of an induced subgraph walks that order with the nodes
    outside it left out, as ``graph.subgraph`` iterates."""
    index = search.index
    adj = graph.adj
    search.neighbors = [
        [index[w] for w in adj[nid] if w in index] for nid in search.node_ids
    ]
    return search


def ascend(search: PathSearch) -> PathSearch:
    """Make ``search`` walk neighbours in plain ascending index order."""
    search.neighbors = [sorted(nbrs) for nbrs in search.neighbors]
    return search


def search_of(graph: nx.Graph) -> PathSearch:
    """A :class:`PathSearch` of ``graph`` in the graph's own neighbour order."""
    adjacency, ids = adjacency_of(graph)
    return follow_graph_order(PathSearch(adjacency, ids), graph)


class HashOrderTopology(DynamicTopology):
    """:class:`DynamicTopology` with the retired hash-order repair.

    Mirrors the adjacency in an ``nx.Graph`` patched the way the runtime
    once patched it: each step's edges incident to the dirty nodes are
    rebuilt as a Python set of ``(min, max)`` id tuples fed in row-major
    scan order, and the graph gets the set differences.  Route search walks
    that graph's neighbour order, so its tie order is the sets' hash-slot
    order.  Edge sets, epochs and churn counts equal the parent class's.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.graph = graph_of(self.adjacency, self.node_ids)

    def path_search(self, scope=None) -> PathSearch:
        old = self._search
        search = super().path_search(scope)
        if search is not old:
            follow_graph_order(search, self.graph)
        return search

    def _rebuild_edges(self, dirty: np.ndarray) -> bool:
        if not super()._rebuild_edges(dirty):
            return False
        ids = self.node_ids
        adj = self.graph._adj
        old_edges = {
            (a, b) if a < b else (b, a)
            for a in [ids[i] for i in dirty.tolist()]
            for b in adj[a]
        }
        id_array = np.array(ids)
        rows, cols = np.nonzero(self.adjacency[dirty])  # row-major scan order
        a = id_array[dirty[rows]]
        b = id_array[cols]
        new_edges = set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
        self.graph.remove_edges_from(old_edges - new_edges)
        self.graph.add_edges_from(new_edges - old_edges)
        return True


class AscendingOrderTopology(DynamicTopology):
    """:class:`DynamicTopology` whose route search walks neighbours in plain
    ascending index order instead of the cyclic order — the order that
    makes the lowest indices every node's first relay choice."""

    def path_search(self, scope=None) -> PathSearch:
        old = self._search
        search = super().path_search(scope)
        return search if search is old else ascend(search)
