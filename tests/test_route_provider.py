"""Tests for the route-provider layer (cache policies, providers).

The drift-budget boundary case is acceptance-critical: ``approx`` with a
budget of 0 must be bit-identical to ``exact`` — same served routes, same
RNG consumption, same trajectories — because the freshness floor degenerates
to "current epoch only" and lazy revalidation is disabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.mobility import ROUTE_CACHE_POLICIES as CONFIG_POLICIES
from repro.game.stats import TournamentStats
from repro.mobility import DynamicTopology, MobilePathOracle, RandomWaypoint
from repro.network.provider import (
    ROUTE_CACHE_POLICIES,
    ApproxPolicy,
    CachePolicy,
    ExactPolicy,
    RouteProvider,
    StaticRouteProvider,
    TopologyProvider,
    make_cache_policy,
)
from repro.network.topology import GeometricTopology, TopologyPathOracle
from repro.sim import BIT_IDENTICAL_ENGINES, make_engine

N = 20
RADIO = 0.45
IDS = list(range(N))


def make_topology(seed=0, speed=(0.01, 0.06), tolerance=0.0):
    model = RandomWaypoint(*speed, pause_time=0.0)
    return DynamicTopology(
        IDS, RADIO, model, np.random.default_rng(seed), tolerance=tolerance
    )


def make_oracle(seed=0, **kwargs) -> MobilePathOracle:
    topo = make_topology(seed)
    return MobilePathOracle(topo, np.random.default_rng(seed + 1), **kwargs)


class TestCachePolicies:
    def test_registry_names(self):
        assert ROUTE_CACHE_POLICIES == ("exact", "approx")

    def test_config_mirror_stays_in_lockstep(self):
        """config.mobility mirrors the provider registry (import-cycle
        avoidance); this test is the lockstep guarantee."""
        assert CONFIG_POLICIES == ROUTE_CACHE_POLICIES

    def test_make_cache_policy(self):
        exact = make_cache_policy("exact")
        assert isinstance(exact, ExactPolicy)
        assert exact.budget == 0
        approx = make_cache_policy("approx", drift_budget=5)
        assert isinstance(approx, ApproxPolicy)
        assert approx.budget == 5

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown route-cache policy"):
            make_cache_policy("sloppy")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="drift budget"):
            ApproxPolicy(-1)
        with pytest.raises(ValueError, match="drift budget"):
            CachePolicy(name="custom", budget=-3)


class TestTopologyProviderProtocol:
    def test_both_topologies_satisfy_the_protocol(self):
        static = GeometricTopology(IDS, RADIO, np.random.default_rng(0))
        dynamic = make_topology()
        for topo in (static, dynamic):
            assert isinstance(topo, TopologyProvider)
            assert isinstance(topo.epoch, int)

    def test_static_epoch_moves_only_on_invalidation(self):
        topo = GeometricTopology(IDS, RADIO, np.random.default_rng(0))
        assert topo.epoch == 0
        topo.invalidate_routes()
        assert topo.epoch == 1

    def test_static_provider_drops_caches_on_invalidation(self):
        topo = GeometricTopology(IDS, RADIO, np.random.default_rng(0))
        provider = StaticRouteProvider(topo, 3, 10)
        provider.rescope(IDS)
        provider.routes(0, IDS[-1])
        assert provider.cache_misses > 0
        topo.adjacency[0, -1] = topo.adjacency[-1, 0] = True
        topo.invalidate_routes()
        provider.sync()
        misses = provider.cache_misses
        provider.rescope(IDS)
        provider.routes(0, IDS[-1])
        assert provider.cache_misses > misses  # recomputed, not served stale


class TestRouteProviderPolicies:
    def _provider(self, topo, policy):
        provider = RouteProvider(topo, 3, 10, policy)
        provider.rescope(IDS)
        provider.sync()
        return provider

    def _force_epoch_change(self, topo):
        epoch = topo.epoch
        for _ in range(200):
            topo.step()
            if topo.epoch != epoch:
                return
        raise AssertionError("topology never changed its edge set")

    def test_exact_recomputes_after_epoch_change(self):
        topo = make_topology()
        provider = self._provider(topo, ExactPolicy())
        provider.routes(0, 5)
        misses = provider.cache_misses
        provider.routes(0, 5)
        assert provider.cache_misses == misses  # in-epoch hit
        self._force_epoch_change(topo)
        provider.sync()
        provider.routes(0, 5)
        assert provider.cache_misses == misses + 1
        assert provider.stale_hits == 0

    def test_approx_serves_stale_inside_budget(self):
        topo = make_topology()
        provider = self._provider(topo, ApproxPolicy(drift_budget=10**6))
        first = provider.routes(0, 5)
        misses = provider.cache_misses
        self._force_epoch_change(topo)
        provider.sync()
        assert provider.routes(0, 5) == first  # identical stale object
        assert provider.cache_misses == misses
        assert provider.stale_hits == 1

    def test_approx_budget_counts_epochs(self):
        topo = make_topology()
        provider = self._provider(topo, ApproxPolicy(drift_budget=1))
        provider.routes(0, 5)
        misses = provider.cache_misses
        self._force_epoch_change(topo)
        provider.sync()
        provider.routes(0, 5)
        assert provider.cache_misses == misses  # age 1 <= budget 1
        self._force_epoch_change(topo)
        self._force_epoch_change(topo)
        provider.sync()
        provider.routes(0, 5)
        # age past budget: either lazily revalidated (cheap, re-stamped) or
        # recomputed — never served blindly
        assert provider.cache_misses + provider.revalidations == misses + 1

    def test_scope_change_clears_cache(self):
        topo = make_topology()
        provider = self._provider(topo, ApproxPolicy(5))
        provider.routes(0, 5)
        misses = provider.cache_misses
        provider.rescope(IDS[: N // 2])
        provider.routes(0, 5)
        assert provider.cache_misses == misses + 1

    def test_revalidation_restamps_surviving_routes(self):
        """A stale-past-budget entry whose routes all survived is re-stamped
        by the cheap edge recheck instead of recomputed."""
        topo = make_topology(speed=(0.0, 0.0))  # nobody moves...
        provider = self._provider(topo, ApproxPolicy(drift_budget=0))
        # budget 0 disables revalidation (the exact-equivalence boundary)
        assert provider._revalidate is False
        provider = self._provider(topo, ApproxPolicy(drift_budget=1))
        first = provider.routes(0, 5)
        assert first
        misses = provider.cache_misses
        # an artificial epoch bump with the graph untouched: every cached
        # route survives, so revalidation must win over recomputation
        topo.epoch += 2
        provider.sync()
        assert provider.routes(0, 5) == first
        assert provider.revalidations == 1
        assert provider.cache_misses == misses
        # re-stamped: the follow-up access is a plain fresh hit
        hits = provider.cache_hits
        provider.routes(0, 5)
        assert provider.cache_hits == hits + 1
        assert provider.revalidations == 1

    def test_revalidation_drops_broken_routes(self):
        topo = make_topology(speed=(0.0, 0.0))
        provider = self._provider(topo, ApproxPolicy(drift_budget=1))
        first = provider.routes(0, 5)
        assert first
        # break the first route's first edge behind the provider's back
        intermediate = first[0][0]
        topo.adjacency[0, intermediate] = topo.adjacency[intermediate, 0] = False
        topo.epoch += 2
        provider.sync()
        served = provider.routes(0, 5)
        for path in served:
            assert path != first[0] or 0 in topo.neighbors(intermediate)

    def test_search_time_is_accounted(self):
        topo = make_topology()
        provider = self._provider(topo, ExactPolicy())
        provider.routes(0, 5)
        assert provider.search_s > 0.0


class TestDriftBudgetBoundary:
    """budget 0 must make ``approx`` bit-identical to ``exact``."""

    def _draw_stream(self, route_cache, drift_budget, draws=300):
        oracle = make_oracle(
            seed=3,
            step_every="round",
            route_cache=route_cache,
            drift_budget=drift_budget,
        )
        setups = [oracle.draw(i % N, IDS) for i in range(draws)]
        return setups, oracle.rng.bit_generator.state, oracle.topology.epoch

    def test_budget_zero_bit_identical_to_exact(self):
        exact_setups, exact_state, exact_epoch = self._draw_stream("exact", 0)
        approx_setups, approx_state, approx_epoch = self._draw_stream("approx", 0)
        assert exact_setups == approx_setups
        assert exact_state == approx_state
        assert exact_epoch == approx_epoch

    def test_nonzero_budget_actually_diverges_routes(self):
        """Sanity for the boundary test: with a real budget the policies do
        serve different routes eventually (else the boundary test proves
        nothing)."""
        exact_setups, _, _ = self._draw_stream("exact", 0)
        approx_setups, _, _ = self._draw_stream("approx", 10**6)
        assert exact_setups != approx_setups

    @pytest.mark.parametrize("engine_name", BIT_IDENTICAL_ENGINES)
    def test_budget_zero_engine_trajectories_match_exact(self, engine_name):
        stats = {}
        for route_cache in ("exact", "approx"):
            oracle = make_oracle(
                seed=7, route_cache=route_cache, drift_budget=0
            )
            engine = make_engine(engine_name, N, 0)
            rng = np.random.default_rng(13)
            from repro.core.strategy import Strategy

            engine.set_strategies([Strategy.random(rng) for _ in range(N)])
            s = TournamentStats()
            engine.run_tournament(IDS, 8, oracle, s, None, None)
            stats[route_cache] = (s.to_dict(), engine.fitness().tolist())
        assert stats["exact"] == stats["approx"]


class TestStaticProviderModes:
    def test_scoped_routes_filter_to_participants(self):
        topo = GeometricTopology(IDS, RADIO, np.random.default_rng(2))
        provider = StaticRouteProvider(topo, 3, 10)
        scope = IDS[::2]
        provider.rescope(scope)
        active = set(scope)
        for destination in scope[1:]:
            for path in provider.routes(0, destination):
                assert set(path) <= active

    def test_cache_option_is_gone(self):
        """The static provider always caches; there is no uncached mode."""
        topo = GeometricTopology(IDS, RADIO, np.random.default_rng(2))
        with pytest.raises(TypeError, match="cache"):
            StaticRouteProvider(topo, 3, 10, cache=False)

    def test_repeated_routes_are_served_from_cache(self):
        topo = GeometricTopology(IDS, RADIO, np.random.default_rng(2))
        provider = StaticRouteProvider(topo, 3, 10)
        provider.rescope(IDS)
        a = provider.routes(0, 5)
        hits, misses = provider.cache_info
        computes = provider.route_computes
        b = provider.routes(0, 5)
        assert a == b
        assert provider.cache_info == (hits + 1, misses)
        assert provider.route_computes == computes

    def test_rescope_refilters_from_the_base_table(self):
        """A narrower scope refilters the cached full-graph routes: no new
        topology search, and every served route stays inside the scope."""
        topo = GeometricTopology(IDS, RADIO, np.random.default_rng(2))
        provider = StaticRouteProvider(topo, 3, 10)
        provider.rescope(IDS)
        full = {d: provider.routes(0, d) for d in IDS[1:]}
        computes = provider.route_computes
        scope = IDS[::2]
        provider.rescope(scope)
        for destination in scope[1:]:
            narrow = provider.routes(0, destination)
            assert narrow == [
                p for p in full[destination] if set(p) <= set(scope)
            ]
        assert provider.route_computes == computes

    def test_oracle_uses_provider(self):
        topo = GeometricTopology(IDS, RADIO, np.random.default_rng(2))
        oracle = TopologyPathOracle(topo, np.random.default_rng(3))
        assert isinstance(oracle.provider, StaticRouteProvider)
        oracle.draw(0, IDS)
        assert oracle.cache_info == oracle.provider.cache_info
