"""Tests for the route-provider layer (cache policies, the provider).

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
    make_cache_policy,
)
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

    def test_approx_recomputes_no_route_after_its_epoch(self):
        """A cached "no route" is served only in its own epoch: under
        ``ApproxPolicy(8)`` a pair with no route at epoch e gains one at
        e + 1, when its components merge."""

        class Jump:  # nodes 0 and 1 sit apart, then join the chain
            def reset(self, n_nodes, rng):
                xy = [(0.05, 0.05), (0.15, 0.05)]
                return np.array(xy + [(0.5 + 0.1 * k, 0.5) for k in range(6)])

            def step(self, positions, dt, rng):
                joined = np.array(positions, copy=True)
                joined[:2] = [(0.5, 0.6), (0.6, 0.6)]
                return joined

        topo = DynamicTopology(
            list(range(8)),
            0.12,
            Jump(),
            np.random.default_rng(0),
            require_connected_start=False,
        )
        provider = RouteProvider(topo, 3, 10, ApproxPolicy(8))
        provider.rescope(range(8))
        provider.sync()
        assert provider.routes(0, 4) == []
        assert topo.step() and topo.epoch == 1
        provider.sync()
        assert provider.routes(0, 4)
        assert provider.stale_hits == 0
        assert provider.route_computes == 2

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
