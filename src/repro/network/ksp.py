"""Native K-shortest-paths engine over an index-space adjacency matrix.

:class:`PathSearch` is a frozen snapshot of a topology's ``(n, n)`` bool
adjacency matrix, compiled to per-node neighbour lists for the scalar loops
read off the matrix's row-major nonzeros (CSR rows); the BFS hop-field
sweep multiplies the matrix itself.  One snapshot is built per
topology epoch, so its construction and hop-field sweep are the fixed cost
of every epoch (:attr:`PathSearch.build_s`).  On top of it sit

* all-pairs BFS hop-distance fields (one level-sweep for every destination
  at once, each level a float32 BLAS product), used to reject
  unreachable/too-far queries in O(1) and to prune Yen spur searches that
  cannot fit under ``max_hops``, and
* a Yen/deviation-style enumeration of shortest simple paths that replicates
  ``networkx.shortest_simple_paths`` **exactly** for a graph whose
  adjacency iterates in the same order — same path sets, same order,
  including ties.

Neighbour order is a function of the edge set alone: the cyclic order,
ascending topology index starting after the node's own (see
:class:`PathSearch`).  Route ties break on it — the Yen port follows
networkx's bidirectional-BFS meet order, which flows from adjacency
iteration order — so it is what pins every routed trajectory.
:meth:`_shortest` is a faithful port of
``networkx.algorithms.simple_paths._bidirectional_pred_succ`` for
undirected graphs (alternating smallest-fringe level expansion, first meet
wins); ``tests/test_ksp.py`` pins the port against networkx (a ``dev``
dependency, used only by the tests) on randomised geometric graphs.

A snapshot is always of the graph its queries route on: a search
restricted to a node subset runs on a snapshot of the induced subgraph
(``PathSearch(adjacency[np.ix_(keep, keep)], ids[keep])`` with ``keep``
ascending, see :meth:`repro.mobility.DynamicTopology.path_search`).  The
index map is monotone, so every node's cyclic neighbour order, and with
it every route tie, is the one the full graph gives among the kept
nodes; the hop field and the distance-1/2 closed forms are those of the
subgraph.  One query-time feature remains:

* ``extra_edges`` — edges appended for this query only (appended
  neighbours iterate *after* the base ones, as they would in a
  dict-backed graph after ``add_edges_from``); an edge with an endpoint
  outside the snapshot is dropped.  Hop-field pruning is disabled when
  extra edges are present, since they can shorten routes and would
  invalidate the lower bound.

The truncation contract of :meth:`PathSearch.intermediate_paths`:
enumeration in increasing length, stop past ``max_hops``, skip
direct-neighbour routes, cap at ``max_paths``.  Candidates that cannot fit
under ``max_hops`` are never buffered — they could only pop after every
eligible path, where the consumer stops anyway.

:func:`reachable` and :func:`is_connected` are the topology's
connectivity primitives (connected placement, and the component read of
the rescue).
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Sequence

import numpy as np

__all__ = ["PathSearch", "UNREACHABLE", "is_connected", "reachable"]

#: Hop-field sentinel for "no route": larger than any real hop count, small
#: enough that ``(i - 1) + UNREACHABLE`` never overflows anything.
UNREACHABLE = 1 << 30


class PathSearch:
    """K-shortest simple paths over a frozen adjacency-matrix snapshot.

    ``adjacency`` is a symmetric ``(n, n)`` bool matrix with a false
    diagonal; row/column ``i`` is the node ``node_ids[i]`` (default
    ``0..n-1``).  The snapshot copies it, so later edits to the caller's
    matrix are not seen: build one per topology epoch and route scope.
    Queries are read-only.

    Each node's neighbours iterate in the cyclic order: ascending index
    starting after the node's own and wrapping around (node 5 of 8 walks
    6, 7, 0, ...).  The cyclic order singles out no node: under plain
    ascending order the lowest indices are every node's first choice among
    equal-length routes, so they become relay hubs — on the mobile smoke
    case that raised final cooperation by 7-9 pp against the retired
    hash-slot order (30 replications on each of three seeds, KS/MWU
    p <= 0.004), where the cyclic order is not rejected
    (``tests/test_mobility_order_tier.py``).
    """

    __slots__ = (
        "node_ids",
        "index",
        "adjacency",
        "neighbors",
        "identity_ids",
        "_sets",
        "_dist",
        "_dist_rows",
        "_dist_bound",
        "_dist_complete",
        "bfs_builds",
        "queries",
        "deviations_pruned",
        "build_s",
    )

    def __init__(
        self,
        adjacency: np.ndarray,
        node_ids: Sequence[int] | None = None,
    ):
        start = perf_counter()
        adjacency = np.array(adjacency, dtype=bool)
        n = adjacency.shape[0]
        ids = list(range(n)) if node_ids is None else list(node_ids)
        if adjacency.shape != (n, n) or len(ids) != n:
            raise ValueError(
                f"adjacency must be ({len(ids)}, {len(ids)}), got {adjacency.shape}"
            )
        self.node_ids = ids
        self.index = {nid: i for i, nid in enumerate(ids)}
        #: ids == indices (nodes are 0..n-1 in order) — true for every
        #: topology this repo builds; lets queries skip id translation
        self.identity_ids = ids == list(range(n))
        self.adjacency = adjacency
        # CSR rows from the row-major nonzeros (each row's neighbours
        # ascend), each rotated to start after its node's own index
        rows, cols = np.nonzero(adjacency)
        counts = np.bincount(rows, minlength=n)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        flat = cols.tolist()
        split = np.bincount(rows[cols < rows], minlength=n).tolist()
        neighbors = []
        for i in range(n):
            row = flat[bounds[i] : bounds[i + 1]]
            k = split[i]
            neighbors.append(row[k:] + row[:k])
        self.neighbors = neighbors
        self._sets: list[set[int] | None] = [None] * n
        self._dist: np.ndarray | None = None
        self._dist_rows: dict[int, list[int]] = {}
        self._dist_bound = -1
        self._dist_complete = False
        #: hop-field sweeps run (each is a float32 matmul per BFS level)
        self.bfs_builds = 0
        #: top-level path enumerations served by this snapshot
        self.queries = 0
        #: Yen spur searches skipped by the hop-field / beat bounds — work
        #: the pruning provably saved without changing any output
        self.deviations_pruned = 0
        #: seconds spent building this snapshot and its hop-field sweeps —
        #: the fixed per-epoch cost, apart from path enumeration
        self.build_s = perf_counter() - start

    def __len__(self) -> int:
        return len(self.node_ids)

    def neighbor_set(self, i: int) -> set[int]:
        """Node index ``i``'s neighbours as a set, built on first use (an
        epoch's queries touch a few nodes' sets, not all of them)."""
        found = self._sets[i]
        if found is None:
            found = self._sets[i] = set(self.neighbors[i])
        return found

    # -- hop-distance fields ---------------------------------------------------

    def hop_fields(self, bound: int | None = None) -> list[list[int]]:
        """All-pairs BFS hop distances, ``rows[target][source]``.

        Computed per snapshot as a vectorised level sweep: every node's BFS
        frontier at once, advanced one level by a float32 0/1 adjacency
        product (a BLAS ``sgemm``; each entry counts at most n ones, so it is
        exact) thresholded at ``> 0`` — until no node is newly reached, or
        until ``bound`` levels, since consumers pruning against ``max_hops``
        treat every distance beyond it as unreachable anyway.  Pairs beyond
        the sweep hold :data:`UNREACHABLE`.  The field is cached; a later
        call with a larger bound re-runs the sweep to the new bound.  The
        graph is undirected, so rows double as distance fields *from* every
        source.
        """
        return self._field(bound).tolist()

    def hop_distance(self, source: int, target: int) -> int:
        """BFS hop distance between two node ids (:data:`UNREACHABLE` if none)."""
        return int(self._field(None)[self.index[target], self.index[source]])

    def _hop_row(self, target: int, bound: int) -> list[int]:
        """One row of :meth:`hop_fields` as a list, converted on first use:
        an epoch's queries read a few targets' rows, not all of them."""
        field = self._field(bound)
        row = self._dist_rows.get(target)
        if row is None:
            row = self._dist_rows[target] = field[target].tolist()
        return row

    def _field(self, bound: int | None) -> np.ndarray:
        if self._dist is None or (
            not self._dist_complete
            and (bound is None or bound > self._dist_bound)
        ):
            start = perf_counter()
            self.bfs_builds += 1
            n = len(self.node_ids)
            adj = self.adjacency.astype(np.float32)
            dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
            np.fill_diagonal(dist, 0)
            reached = np.eye(n, dtype=bool)
            frontier = reached
            hops = 0
            while frontier.any():
                if bound is not None and hops >= bound:
                    break
                hops += 1
                frontier = (frontier.astype(np.float32) @ adj > 0) & ~reached
                dist[frontier] = hops
                reached |= frontier
            else:
                self._dist_complete = True
            self._dist_bound = hops
            self._dist = dist
            self._dist_rows = {}
            self.build_s += perf_counter() - start
        return self._dist

    # -- public queries --------------------------------------------------------

    def intermediate_paths(
        self,
        source: int,
        destination: int,
        max_paths: int,
        max_hops: int,
        extra_edges: Sequence[tuple[int, int]] = (),
    ) -> list[tuple[int, ...]]:
        """Up to ``max_paths`` shortest simple routes as intermediate tuples.

        Optionally with query-time extra edges: direct-neighbour routes are
        skipped, enumeration stops past ``max_hops``, and endpoints outside
        the snapshot yield ``[]``.
        """
        if max_paths < 1:
            return []
        paths = self._simple_paths(
            source,
            destination,
            max_hops,
            extra_edges,
            max_paths,
            collect_short=False,
        )
        if self.identity_ids:
            return [tuple(p[1:-1]) for p in paths]
        ids = self.node_ids
        return [tuple(ids[i] for i in p[1:-1]) for p in paths]

    def simple_paths(
        self,
        source: int,
        destination: int,
        max_hops: int,
        limit: int | None = None,
        extra_edges: Sequence[tuple[int, int]] = (),
    ) -> list[list[int]]:
        """Full node-id paths in ``nx.shortest_simple_paths`` order.

        The raw enumeration (used by the equivalence suite): every simple
        path of at most ``max_hops`` hops, shortest first, networkx tie
        order, truncated to ``limit`` when given.
        """
        want = (1 << 30) if limit is None else limit
        if want < 1:
            return []
        paths = self._simple_paths(
            source, destination, max_hops, extra_edges, want, True
        )
        ids = self.node_ids
        return [[ids[i] for i in p] for p in paths]

    # -- core ------------------------------------------------------------------

    def _simple_paths(
        self,
        source: int,
        destination: int,
        max_hops: int,
        extra_edges: Sequence[tuple[int, int]],
        want: int,
        collect_short: bool,
    ) -> list[list[int]]:
        self.queries += 1
        out: list[list[int]] = []
        n = len(self.node_ids)
        if self.identity_ids:
            if not (0 <= source < n and 0 <= destination < n):
                return out
            s, t = source, destination
        else:
            index = self.index
            if source not in index or destination not in index:
                return out
            s, t = index[source], index[destination]
        xadj: dict[int, list[int]] | None = None
        if extra_edges:
            index = self.index
            for a_id, b_id in extra_edges:
                a, b = index.get(a_id), index.get(b_id)
                if a is None or b is None:
                    continue  # leaves the snapshot's graph: dropped
                if xadj is None:
                    xadj = {}
                xadj.setdefault(a, []).append(b)
                xadj.setdefault(b, []).append(a)
        max_len = max_hops + 1  # node count of a max_hops-hop path
        dist_to_t: list[int] | None = None
        if xadj is None:
            # sound lower bound: ignoring nodes/edges only lengthens routes
            dist_to_t = self._hop_row(t, max_hops)
            if dist_to_t[s] > max_hops:
                return out
        shortest = self._shortest
        list_a: list[list[int]] = []
        # heap entries: (cost, tiebreak counter, path, dedupe key, deviation
        # index) — cost and counter replicate networkx's PathBuffer ordering
        heap: list[tuple[int, int, list[int], tuple[int, ...], int]] = []
        buffered: set[tuple[int, ...]] = set()
        counter = 0
        prev: list[int] | None = None
        prev_dev = 1
        neighbors = self.neighbors
        while True:
            if prev is None:
                # closed-form distance-1/2 shortcuts: with no filters the
                # bidirectional search provably returns the direct edge /
                # first common neighbour in adjacency order — skip the BFS
                d0 = dist_to_t[s] if dist_to_t is not None else 0
                if d0 == 1:
                    path = [s, t]
                elif d0 == 2:
                    s_nbrs = self.neighbor_set(s)
                    path = None
                    for w in neighbors[t]:
                        if w in s_nbrs:
                            path = [s, w, t]
                            break
                else:
                    path = shortest(s, t, xadj, None, None, n)
                if path is not None and len(path) <= max_len:
                    key = tuple(path)
                    heappush(heap, (len(path), counter, path, key, 1))
                    buffered.add(key)
                    counter += 1
            else:
                blocked = bytearray(n)  # the round's ignored spur heads
                ig_edges: set[int] = set()
                sharers = list_a  # paths sharing the current root prefix
                # cost such that `need` buffered candidates pop at or before
                # it: a spur whose best possible cost is no better can never
                # surface within the remaining pops (see skip rule below)
                need = want - len(out)
                beat = -1  # recomputed lazily; pushes only strengthen it
                beat_stale = True
                for i in range(1, len(prev)):
                    if beat_stale:
                        if need <= len(heap):
                            beat = sorted(e[0] for e in heap)[need - 1]
                        else:
                            beat = -1
                        beat_stale = False
                    if -1 < beat <= i + 2:
                        # every remaining floor is at least i + 2 (spur heads
                        # are never the target, so dist >= 1): the whole rest
                        # of the round is unobservable — drop it, ignore
                        # bookkeeping included, since nothing reads it now
                        self.deviations_pruned += len(prev) - i
                        break
                    head = prev[i - 1]
                    sharers = [p for p in sharers if p[i - 1] == head]
                    for p in sharers:
                        a, b = p[i - 1], p[i]
                        ig_edges.add(a * n + b)
                        ig_edges.add(b * n + a)
                    # Three output-identical reasons to skip the spur search
                    # (the ignore bookkeeping always proceeds):
                    # * Lawler's rule — positions before prev's own
                    #   deviation point re-run a search an earlier pop of
                    #   the same prefix class already ran; its result is
                    #   still buffered, so the duplicate push would be
                    #   dropped without even consuming a tiebreak counter.
                    # * hop-field bound — no spur from here finishes within
                    #   max_hops, so any result would be discarded unpushed.
                    # * beat bound — the spur's result costs at least
                    #   i + dist(head, t) + 1; if `need` buffered candidates
                    #   already cost no more, enumeration ends before the
                    #   result could ever pop (pushed-earlier entries win
                    #   cost ties), so the candidate is unobservable.
                    if i >= prev_dev:
                        if dist_to_t is None:
                            floor = -1  # extra edges: no sound lower bound
                            d = 0
                        else:
                            d = dist_to_t[head]
                            floor = i + d + 1
                            if floor > max_len + 1:
                                self.deviations_pruned += 1
                                blocked[head] = 1
                                continue
                        if -1 < beat <= floor:
                            self.deviations_pruned += 1
                            blocked[head] = 1
                            continue
                        # the distance-1/2 closed forms, filter-aware: fall
                        # through to the real search when an ignored edge
                        # (or blocked node) breaks the shortcut's premise
                        spur = None
                        direct = False
                        if d == 1:
                            if head * n + t not in ig_edges:
                                spur = [head, t]
                                direct = True
                        elif d == 2:
                            hn = head * n
                            tn = t * n
                            level = {
                                w
                                for w in neighbors[head]
                                if not blocked[w] and hn + w not in ig_edges
                            }
                            for w in neighbors[t]:
                                if (
                                    w in level
                                    and not blocked[w]
                                    and tn + w not in ig_edges
                                ):
                                    spur = [head, w, t]
                                    direct = True
                                    break
                        if not direct:
                            spur = shortest(head, t, xadj, blocked, ig_edges, n)
                        if spur is not None:
                            full = prev[: i - 1] + spur
                            if len(full) <= max_len:
                                key = tuple(full)
                                if key not in buffered:
                                    heappush(
                                        heap,
                                        (i + len(spur), counter, full, key, i),
                                    )
                                    buffered.add(key)
                                    counter += 1
                                    beat_stale = True
                    blocked[head] = 1
            if not heap:
                break
            _, _, path, key, prev_dev = heappop(heap)
            buffered.discard(key)
            list_a.append(path)
            prev = path
            if collect_short or len(path) >= 3:
                out.append(path)
                if len(out) == want:
                    break
        return out

    def _shortest(
        self,
        s: int,
        t: int,
        xadj: dict[int, list[int]] | None,
        blocked: bytearray | None,
        ig_edges: set[int] | None,
        n: int,
    ) -> list[int] | None:
        """Shortest path as int indices — port of networkx's
        ``_bidirectional_pred_succ`` (undirected), ``None`` when no path.

        The alternating smallest-fringe expansion, in-loop meet check and
        filter stack (ignored nodes, then ignored edges — both
        order-preserving predicates over the recorded adjacency order) are
        kept exactly, so the returned path matches networkx even among
        equal-length alternatives.  ``blocked`` is the ignored-node set as a
        byte mask; ``ig_edges`` holds both orientations of every ignored
        edge encoded ``u * n + v``, so one membership test replaces two.
        """
        if blocked is not None and (blocked[s] or blocked[t]):
            return None
        if s == t:
            return [s]
        neighbors = self.neighbors
        # the filter set is constant for the whole search: pick one of three
        # specialised discovery loops (plain / ignores-only / extra edges)
        # once, instead of re-testing per neighbour
        plain = xadj is None
        # -2 unseen, -1 chain terminator, else predecessor/successor index
        pred = [-2] * n
        succ = [-2] * n
        pred[s] = -1
        succ[t] = -1
        forward = [s]
        reverse = [t]
        meet = -1
        while forward and reverse:
            if len(forward) <= len(reverse):
                this_level, forward = forward, []
                fringe, seen, other = forward, pred, succ
            else:
                this_level, reverse = reverse, []
                fringe, seen, other = reverse, succ, pred
            for v in this_level:
                if plain:
                    nbrs = neighbors[v]
                    if ig_edges is None:  # the unfiltered initial search
                        for w in nbrs:
                            if seen[w] == -2:
                                fringe.append(w)
                                seen[w] = v
                            if other[w] != -2:
                                meet = w
                                break
                    else:  # spur search: ignored spur heads + root edges
                        vn = v * n
                        for w in nbrs:
                            if blocked[w] or vn + w in ig_edges:
                                continue
                            if seen[w] == -2:
                                fringe.append(w)
                                seen[w] = v
                            if other[w] != -2:
                                meet = w
                                break
                else:  # query-time extra edges
                    nbrs = neighbors[v]
                    if v in xadj:
                        nbrs = nbrs + xadj[v]
                    vn = v * n
                    for w in nbrs:
                        if blocked is not None and blocked[w]:
                            continue
                        if ig_edges is not None and vn + w in ig_edges:
                            continue
                        if seen[w] == -2:
                            fringe.append(w)
                            seen[w] = v
                        if other[w] != -2:
                            meet = w
                            break
                if meet >= 0:
                    break
            if meet >= 0:
                break
        if meet < 0:
            return None
        # stitch the two half-paths together at the meet node
        path = []
        w = meet
        while w != -1:
            path.append(w)
            w = succ[w]
        head = []
        w = pred[meet]
        while w != -1:
            head.append(w)
            w = pred[w]
        head.reverse()
        return head + path


def reachable(
    adjacency: np.ndarray, start: np.ndarray, allowed: np.ndarray | None = None
) -> np.ndarray:
    """Bool mask of the nodes reachable from the ``start`` mask.

    A level-synchronous BFS over the ``(n, n)`` bool adjacency: each level
    is one row gather and an ``any`` over the frontier's rows.  With
    ``allowed``, only allowed nodes are entered (the start nodes are always
    in the result), which is the component read of an induced subgraph.
    """
    seen = np.array(start, dtype=bool)
    frontier = seen
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        if allowed is not None:
            frontier &= allowed
        seen |= frontier
    return seen


def is_connected(adjacency: np.ndarray) -> bool:
    """Whether the graph of a bool adjacency matrix is one component."""
    n = adjacency.shape[0]
    if n == 0:
        return False
    start = np.zeros(n, dtype=bool)
    start[0] = True
    return bool(reachable(adjacency, start).all())
