"""Tests for the mobility factory and the emergency nearest-peer attach.

``mobility/factory.py`` is the wiring layer between :class:`MobilityConfig`
and the oracle stack; the emergency power boost (an isolated source raising
transmit power until its nearest participating peer hears it) is the
mobile oracle's last-resort routability guarantee.  Both were previously
exercised only incidentally.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.mobility import MobilityConfig
from repro.mobility import (
    DynamicTopology,
    GaussMarkov,
    MobilePathOracle,
    NodeChurn,
    RandomWaypoint,
    build_model,
    build_oracle,
    build_topology,
)
from repro.network.provider import ApproxPolicy, ExactPolicy

IDS = list(range(16))


class TestBuildModel:
    def test_waypoint(self):
        config = MobilityConfig(
            model="waypoint", speed_min=0.01, speed_max=0.05, pause_time=3.0
        )
        model = build_model(config)
        assert isinstance(model, RandomWaypoint)
        assert model.speed_min == 0.01
        assert model.speed_max == 0.05
        assert model.pause_time == 3.0

    def test_gauss_markov(self):
        config = MobilityConfig(
            model="gauss-markov",
            mean_speed=0.02,
            alpha=0.7,
            speed_sigma=0.004,
            direction_sigma=0.5,
        )
        model = build_model(config)
        assert isinstance(model, GaussMarkov)
        assert model.mean_speed == 0.02
        assert model.alpha == 0.7

    def test_churn_wraps_base_model(self):
        config = MobilityConfig(
            model="waypoint", churn_leave=0.1, churn_return=0.4
        )
        model = build_model(config)
        assert isinstance(model, NodeChurn)
        assert isinstance(model.model, RandomWaypoint)
        assert model.leave_prob == 0.1
        assert model.return_prob == 0.4

    def test_none_model_rejected(self):
        with pytest.raises(ValueError, match="RandomPathOracle"):
            build_model(MobilityConfig())


class TestBuildTopologyAndOracle:
    def test_build_topology_passes_range_and_tolerance(self):
        config = MobilityConfig(
            model="waypoint", radio_range=0.5, tolerance=0.03
        )
        topo = build_topology(config, IDS, np.random.default_rng(0))
        assert isinstance(topo, DynamicTopology)
        assert topo.radio_range == 0.5
        assert topo.tolerance == 0.03
        assert topo.node_ids == IDS

    def test_build_oracle_wires_route_cache_exact_default(self):
        config = MobilityConfig(model="waypoint", radio_range=0.5)
        oracle = build_oracle(config, IDS, np.random.default_rng(0))
        assert isinstance(oracle, MobilePathOracle)
        assert oracle.provider.policy.name == "exact"
        assert isinstance(oracle.provider.policy, ExactPolicy)
        assert oracle.provider.policy.budget == 0

    def test_build_oracle_wires_approx_policy_and_budget(self):
        config = MobilityConfig(
            model="waypoint",
            radio_range=0.5,
            route_cache="approx",
            drift_budget=17,
        )
        oracle = build_oracle(config, IDS, np.random.default_rng(0))
        assert oracle.provider.policy.name == "approx"
        assert isinstance(oracle.provider.policy, ApproxPolicy)
        assert oracle.provider.policy.budget == 17

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="route_cache"):
            MobilityConfig(model="waypoint", route_cache="fuzzy")

    def test_config_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="drift_budget"):
            MobilityConfig(model="waypoint", drift_budget=-1)

    def test_config_round_trips_new_fields(self):
        config = MobilityConfig(
            model="waypoint", route_cache="approx", drift_budget=3
        )
        clone = MobilityConfig.from_dict(config.to_dict())
        assert clone == config


def isolated_scope_oracle(seed=11):
    """An oracle plus a scope in which node 0 has no in-range peer.

    The scope keeps node 0 (the source) and only nodes outside its radio
    neighbourhood, so any route from 0 must ride the emergency power boost
    (virtual nearest-peer attach).
    """
    model = RandomWaypoint(0.0, 0.0)  # stationary: the scope stays isolated
    topo = DynamicTopology(
        IDS, 0.45, model, np.random.default_rng(seed)
    )
    neighbours = set(topo.neighbors(0))
    scope = [n for n in IDS if n not in neighbours]
    oracle = MobilePathOracle(topo, np.random.default_rng(seed + 1))
    return oracle, scope, neighbours


class TestEmergencyNearestPeerAttach:
    def test_draw_succeeds_for_isolated_source(self):
        oracle, scope, _ = isolated_scope_oracle()
        assert len(scope) >= 3, "scope too small to route in"
        topo = oracle.topology
        setup = oracle.draw(0, scope)
        assert topo.boost_count > 0
        assert setup.source == 0
        assert setup.destination in scope
        for path in setup.paths:
            assert set(path) <= set(scope)

    def test_boost_attaches_the_nearest_in_scope_peer(self):
        oracle, scope, _ = isolated_scope_oracle()
        topo = oracle.topology
        positions = topo.position_array()
        d2 = np.sum((positions - positions[0]) ** 2, axis=1)
        in_scope = [n for n in scope if n != 0]
        nearest = min(in_scope, key=lambda n: d2[n])
        assert topo._nearest_peer(0, frozenset(scope)) == nearest
        # every boosted route leaves the source through that peer
        for destination in in_scope:
            paths = topo.candidate_paths(0, destination, 3, 10, frozenset(scope))
            for path in paths:
                first_hop = path[0] if path else destination
                assert first_hop == nearest or destination == nearest

    def test_nearest_peer_respects_scope(self):
        oracle, scope, neighbours = isolated_scope_oracle()
        topo = oracle.topology
        # unrestricted, the nearest peer is a radio neighbour; in scope it
        # cannot be (they are all excluded)
        unrestricted = topo._nearest_peer(0, None)
        assert unrestricted in neighbours
        scoped = topo._nearest_peer(0, frozenset(scope))
        assert scoped not in neighbours

    def test_boosted_routes_never_cached(self):
        oracle, scope, _ = isolated_scope_oracle()
        for _ in range(10):
            oracle.draw(0, scope)
        assert all(pair[0] != 0 for pair in oracle.provider._cache)

    def test_unroutable_when_no_peer_in_scope(self):
        oracle, _, _ = isolated_scope_oracle()
        neighbour_free = [0]
        with pytest.raises(ValueError, match="destination"):
            oracle.draw(0, neighbour_free)
