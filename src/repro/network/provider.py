"""Route-provider layer: cached routes over an epoch-versioned topology.

This module is the middle layer of the oracle stack's three-layer split:

* **topology provider** (bottom) — anything matching
  :class:`TopologyProvider`: an epoch-versioned source of adjacency
  snapshots and route computations.  ``repro.network.topology
  .GeometricTopology`` (static, epoch frozen at 0 unless explicitly
  invalidated) and ``repro.mobility.dynamic.DynamicTopology`` (epoch
  incremented whenever the edge set changes) both satisfy it.
* **route provider** (this module) — :class:`RouteProvider` /
  :class:`StaticRouteProvider`: per-(source, destination) route caches with
  a pluggable :class:`CachePolicy` deciding how stale a cached route may be
  served.
* **draw planner** (top) — :mod:`repro.paths.planner` /
  :mod:`repro.paths.vector`: destination rejection sampling and batched or
  vectorized tournament planning over the provider's routes.

Cache policies
--------------
``exact`` (the default) serves a cached route only while the topology epoch
it was computed under is current — byte-for-byte the historical behavior, so
every committed pinned-seed trajectory is unchanged.  ``approx`` serves a
cached route while the topology has advanced at most ``drift_budget`` epochs
since the route was computed, then **revalidates lazily**: a
stale-beyond-budget entry first gets a cheap edge-existence recheck against
the live graph — surviving routes are re-stamped and served (they exist on
the *current* topology, merely possibly under-offering alternatives), and a
full route search runs only when every cached route actually broke.
Serving slightly-stale routes under a drift bound is the standard answer to
per-step route recomputation in dynamic-network GA work (arXiv:1107.1943);
the resulting trajectories are *statistically equivalent*, not
bit-identical, and are held to that claim by
``tests/test_engine_statistical.py`` through
:mod:`repro.analysis.equivalence` — exactly the contract the fused engine
already lives under.  A ``drift_budget`` of 0 disables both the staleness
grace and revalidation, making ``approx`` bit-identical to ``exact`` by
construction — pinned by the drift-budget boundary tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Protocol, Sequence, runtime_checkable

__all__ = [
    "ROUTE_CACHE_POLICIES",
    "CachePolicy",
    "ExactPolicy",
    "ApproxPolicy",
    "make_cache_policy",
    "TopologyProvider",
    "RouteProvider",
    "StaticRouteProvider",
]

#: Recognised route-cache policy names (the ``--route-cache`` choices).
ROUTE_CACHE_POLICIES = ("exact", "approx")


@runtime_checkable
class TopologyProvider(Protocol):
    """The bottom layer: epoch-versioned adjacency + route computation.

    ``epoch`` must change whenever the edge set changes (and may stay put
    across position drift that leaves edges intact); ``candidate_paths``
    must be a pure function of the current epoch's graph (plus, for dynamic
    topologies, the node positions behind virtual/boost edges — which is
    exactly why those routes are never cached).
    """

    epoch: int

    def candidate_paths(
        self, source: int, destination: int, max_paths: int, max_hops: int
    ) -> list[tuple[int, ...]]: ...


@dataclass(frozen=True)
class CachePolicy:
    """How stale a cached route may be, in topology epochs.

    ``budget`` is the number of epoch advances a cached entry survives: an
    entry computed at epoch ``e`` is served while
    ``current_epoch - e <= budget``.  The provider folds this into a single
    integer freshness floor, so policy dispatch costs nothing per access.
    """

    name: str
    budget: int

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"drift budget must be >= 0, got {self.budget}")


class ExactPolicy(CachePolicy):
    """Serve cached routes only for the epoch they were computed under."""

    def __init__(self) -> None:
        super().__init__(name="exact", budget=0)


class ApproxPolicy(CachePolicy):
    """Serve cached routes while topology drift stays inside the budget."""

    def __init__(self, drift_budget: int = 8) -> None:
        super().__init__(name="approx", budget=drift_budget)


def make_cache_policy(name: str, drift_budget: int = 8) -> CachePolicy:
    """Build a cache policy from its ``--route-cache`` selector name."""
    if name == "exact":
        return ExactPolicy()
    if name == "approx":
        return ApproxPolicy(drift_budget)
    raise ValueError(
        f"unknown route-cache policy {name!r}"
        f" (expected one of {ROUTE_CACHE_POLICIES})"
    )


class RouteProvider:
    """Routes over a *dynamic* topology, computed on the scope subgraph.

    The provider owns everything :class:`repro.mobility.MobilePathOracle`
    used to fold into its draw path: the participant-scope tracking, the
    per-(source, destination) route cache with its epoch stamps, the
    cache-policy freshness check, and the never-cache rules for
    position-dependent routes (churned-out sources, emergency power boosts).
    The oracle keeps only the draw planning and the topology clock.

    ``sync()`` must be called after any ``topology.step()`` the caller
    issues (the oracle does); it refreshes the integer freshness floor so
    the per-access staleness check is a single comparison.
    """

    __slots__ = (
        "topology",
        "max_paths",
        "max_hops",
        "policy",
        "_cache",
        "_min_epoch",
        "_revalidate",
        "_scope_obj",
        "_scope_snapshot",
        "_scope",
        "cache_hits",
        "cache_misses",
        "stale_hits",
        "revalidations",
        "search_s",
        "route_computes",
        "empty_serves",
        "drift_age_counts",
    )

    def __init__(
        self,
        topology,
        max_paths: int,
        max_hops: int,
        policy: CachePolicy | None = None,
    ):
        self.topology = topology
        self.max_paths = max_paths
        self.max_hops = max_hops
        self.policy = policy if policy is not None else ExactPolicy()
        # (source, destination) -> (paths, epoch the routes were computed at)
        self._cache: dict[tuple[int, int], tuple[list[tuple[int, ...]], int]] = {}
        self._min_epoch = topology.epoch - self.policy.budget
        # lazy revalidation is the approx policy's second lever: an entry
        # *past* the budget gets a cheap edge-existence check against the
        # current graph and is re-stamped if its routes all survived, paying
        # a full route search only when the topology really broke them.  A
        # zero budget disables it, which is what makes approx(0) === exact.
        self._revalidate = self.policy.budget > 0
        self._scope_obj: Sequence[int] | None = None  # identity of last seen
        self._scope_snapshot: list[int] = []  # its contents at that time
        self._scope: frozenset[int] = frozenset()
        self.cache_hits = 0
        self.cache_misses = 0
        #: hits served from an entry older than the current epoch — the
        #: approximation actually biting (always 0 under the exact policy)
        self.stale_hits = 0
        #: entries past the budget that survived the cheap edge-existence
        #: recheck and were re-stamped instead of recomputed
        self.revalidations = 0
        #: cumulative wall seconds spent in topology route search — the
        #: "route search" row of the per-layer profile breakdown
        self.search_s = 0.0
        #: full route searches actually run (a miss can be served without
        #: one only in the unreachable-pair degenerate case, so this tracks
        #: cache_misses; kept separate so the reconciliation is explicit)
        self.route_computes = 0
        #: serves that returned no route at all — each one is a rejected
        #: destination in the planner's rejection-sampling loop
        self.empty_serves = 0
        #: epoch-age distribution of stale serves and revalidations,
        #: ``{age: occurrences}`` — how hard the drift budget is working
        self.drift_age_counts: dict[int, int] = {}

    @property
    def scope(self) -> frozenset[int]:
        """The participant set routes are currently restricted to."""
        return self._scope

    def sync(self) -> None:
        """Refresh the freshness floor after the topology may have stepped."""
        self._min_epoch = self.topology.epoch - self.policy.budget

    def set_policy(
        self, policy: CachePolicy, *, revalidate: bool | None = None
    ) -> CachePolicy:
        """Swap the cache policy in place; returns the previous one.

        Re-derives the freshness floor and the lazy-revalidation flag
        (overridable via ``revalidate``), so the swap takes effect on the
        very next ``routes()`` call.  The route cache itself is kept:
        entries outside the new policy's budget simply stop being served
        as-is — with ``revalidate`` they instead get the cheap
        edge-existence recheck and are re-stamped when their routes
        survived.  ``budget=0`` plus ``revalidate=True`` is how the fused
        engine shares route tables across a generation's tournament stack:
        every served route is verified to exist on the *current* graph, and
        only pairs whose cached routes all broke pay a full search.  The
        caller restores the previous policy afterwards, so the swap is
        scoped to the planning of one ``FusedEngine.run_stack`` call.
        """
        previous = self.policy
        self.policy = policy
        self._revalidate = policy.budget > 0 if revalidate is None else revalidate
        self.sync()
        return previous

    def rescope(self, participants: Sequence[int]) -> None:
        """Track the participant set routes are restricted to.

        The identity check makes the common case cheap: engines pass the
        same sequence object for every draw of a tournament.  Identity alone
        is not trusted — a caller that mutates the same list in place (node
        churn between rounds) would otherwise keep being served stale routes
        for departed nodes — so it is backed by an exact elementwise
        comparison against a snapshot of the last-seen contents (a C-level
        list compare, O(n) and collision-proof, unlike a hash or sum
        fingerprint).
        """
        if participants is self._scope_obj:
            # allocation-free fast path: engines pass the same list object
            # every draw, so a C-level elementwise compare settles it
            if isinstance(participants, list):
                if self._scope_snapshot == participants:
                    return
            elif self._scope_snapshot == list(participants):
                return
        self._scope_obj = participants
        self._scope_snapshot = list(participants)
        scope = frozenset(self._scope_snapshot)
        if scope != self._scope:
            self._scope = scope
            self._cache.clear()

    def routes(self, source: int, destination: int) -> list[tuple[int, ...]]:
        """Candidate routes for the pair, served per the cache policy."""
        topology = self.topology
        if not topology.is_active(source):
            # a churned-out source routes over position-dependent virtual
            # edges that can drift without an epoch change: never cache
            self.cache_misses += 1
            paths = self._compute(source, destination)
            if not paths:
                self.empty_serves += 1
            return paths
        key = (source, destination)
        epoch = topology.epoch
        entry = self._cache.get(key)
        if entry is not None:
            if entry[1] >= self._min_epoch:
                self.cache_hits += 1
                if entry[1] < epoch:
                    self.stale_hits += 1
                    age = epoch - entry[1]
                    ages = self.drift_age_counts
                    ages[age] = ages.get(age, 0) + 1
                if not entry[0]:
                    self.empty_serves += 1
                return entry[0]
            if self._revalidate and entry[0]:
                survivors = self._surviving(source, destination, entry[0])
                if survivors:
                    # the surviving routes exist on the *current* graph: the
                    # entry is current-consistent again, merely under-offering
                    # alternatives that appeared (or broke) since — the
                    # tolerated approximation.  Re-stamped, so it serves
                    # another budget's worth of draws before the next check.
                    self._cache[key] = (survivors, epoch)
                    self.cache_hits += 1
                    self.revalidations += 1
                    age = epoch - entry[1]
                    ages = self.drift_age_counts
                    ages[age] = ages.get(age, 0) + 1
                    return survivors
        self.cache_misses += 1
        boosts_before = topology.boost_count
        paths = self._compute(source, destination)
        if topology.boost_count == boosts_before:
            # boosted routes ride on a position-dependent nearest-peer link
            # that can drift without an epoch change: only cache unboosted
            self._cache[key] = (paths, epoch)
        if not paths:
            self.empty_serves += 1
        return paths

    def _surviving(
        self,
        source: int,
        destination: int,
        paths: list[tuple[int, ...]],
    ) -> list[tuple[int, ...]]:
        """The cached routes that still exist edge-for-edge, order kept.

        Pure adjacency lookups on the live graph (~100 ns per edge), no
        search.  Edges only ever join active nodes, so churned-out
        intermediates and destinations fail the check automatically.  Empty
        entries are never revalidated (the caller guards): "no route" must
        be recomputed once stale, or a transiently-partitioned pair would
        stay unroutable forever.
        """
        graph = self.topology.graph
        # the raw dict-of-dicts: ``in`` on nx's AtlasView is a Python-level
        # Mapping call, ~5x the plain dict lookup this hot check needs
        adj = getattr(graph, "_adj", None) or graph.adj
        survivors = []
        for path in paths:
            prev = source
            for node in path:
                if node not in adj[prev]:
                    break
                prev = node
            else:
                if destination in adj[prev]:
                    survivors.append(path)
        if len(survivors) == len(paths):
            return paths  # keep the original object (vector-sampler dedup)
        return survivors

    def _compute(self, source: int, destination: int) -> list[tuple[int, ...]]:
        start = perf_counter()
        paths = self.topology.candidate_paths(
            source, destination, self.max_paths, self.max_hops, self._scope
        )
        self.search_s += perf_counter() - start
        self.route_computes += 1
        return paths

    @property
    def cache_info(self) -> tuple[int, int]:
        """(hits, misses) of the per-pair route cache."""
        return self.cache_hits, self.cache_misses


class StaticRouteProvider:
    """Routes over a *static* topology: full-graph routes filtered to scope.

    Unlike :class:`RouteProvider` this does not search the scope-induced
    subgraph — the historical (and pinned-bit-identical) semantics of the
    static oracle are "routes exist on the full graph; a route is usable if
    every intermediate is a participant".  The base per-pair routes are
    cached once per epoch (a static topology's epoch moves only via
    ``invalidate_routes``); on top sits a scope-filtered table keyed by the
    current participant set, shared by the sequential and batched draw
    paths.
    """

    __slots__ = (
        "topology",
        "max_paths",
        "max_hops",
        "_base",
        "_base_epoch",
        "_scope",
        "_scoped",
        "cache_hits",
        "cache_misses",
        "search_s",
        "route_computes",
        "empty_serves",
    )

    def __init__(self, topology, max_paths: int, max_hops: int):
        self.topology = topology
        self.max_paths = max_paths
        self.max_hops = max_hops
        self._base: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self._base_epoch = getattr(topology, "epoch", 0)
        self._scope: frozenset[int] | None = None
        self._scoped: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.search_s = 0.0
        self.route_computes = 0
        self.empty_serves = 0

    @property
    def scope(self) -> frozenset[int] | None:
        """The participant set the scoped table is filtered against."""
        return self._scope

    def sync(self) -> None:
        """Drop everything if the topology was explicitly invalidated."""
        epoch = getattr(self.topology, "epoch", 0)
        if epoch != self._base_epoch:
            self._base_epoch = epoch
            self._base.clear()
            self._scoped.clear()

    def rescope(self, participants: Sequence[int]) -> None:
        scope = frozenset(participants)
        if scope != self._scope:
            self._scope = scope
            self._scoped.clear()

    def base_routes(self, source: int, destination: int) -> list[tuple[int, ...]]:
        """Full-graph routes for the pair (no scope filter)."""
        key = (source, destination)
        paths = self._base.get(key)
        if paths is None:
            self.cache_misses += 1
            paths = self._compute(source, destination)
            self._base[key] = paths
        else:
            self.cache_hits += 1
        return paths

    def routes(self, source: int, destination: int) -> list[tuple[int, ...]]:
        """Scope-filtered routes for the pair (requires a prior rescope)."""
        active = self._scope
        key = (source, destination)
        paths = self._scoped.get(key)
        if paths is None:
            base = self.base_routes(source, destination)
            paths = [p for p in base if all(node in active for node in p)]
            self._scoped[key] = paths
        else:
            # keep cache_info meaningful for scoped-table hits too
            self.cache_hits += 1
        if not paths:
            self.empty_serves += 1
        return paths

    def _compute(self, source: int, destination: int) -> list[tuple[int, ...]]:
        start = perf_counter()
        paths = self.topology.candidate_paths(
            source, destination, self.max_paths, self.max_hops
        )
        self.search_s += perf_counter() - start
        self.route_computes += 1
        return paths

    @property
    def cache_info(self) -> tuple[int, int]:
        """(hits, misses) across the base and scoped route tables."""
        return self.cache_hits, self.cache_misses
