"""Unit tests for the geometric-topology extension."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.strategy import Strategy
from repro.game.stats import TournamentStats
from repro.network.topology import (
    GeometricTopology,
    TopologyPathOracle,
    shortest_intermediate_paths,
)
from repro.sim.reference import ReferenceEngine


def topology(n=25, radio=0.4, seed=0, **kwargs):
    return GeometricTopology(
        list(range(n)), radio, np.random.default_rng(seed), **kwargs
    )


class TestGeometricTopology:
    def test_connected_by_construction(self):
        import networkx as nx

        topo = topology()
        assert nx.is_connected(topo.graph)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            GeometricTopology([0, 1, 2], 0.0, rng)
        with pytest.raises(ValueError):
            GeometricTopology([0, 1], 0.5, rng)

    def test_sparse_placement_fails_loudly(self):
        with pytest.raises(RuntimeError, match="radio_range"):
            GeometricTopology(
                list(range(40)),
                0.02,
                np.random.default_rng(1),
                max_placement_attempts=3,
            )

    def test_edges_respect_radio_range(self):
        topo = topology()
        for a, b in topo.graph.edges:
            (xa, ya), (xb, yb) = topo.positions[a], topo.positions[b]
            assert (xa - xb) ** 2 + (ya - yb) ** 2 <= topo.radio_range**2 + 1e-12

    def test_degree_stats(self):
        mean, lo, hi = topology().degree_stats()
        assert lo >= 1 and hi >= mean >= lo

    def test_candidate_paths_exclude_endpoints(self):
        topo = topology()
        paths = topo.candidate_paths(0, 5, max_paths=3, max_hops=10)
        for p in paths:
            assert 0 not in p and 5 not in p

    def test_direct_neighbours_skipped(self):
        topo = topology(radio=1.414)  # (nearly) complete graph
        # every pair is adjacent; only >= 2-hop simple routes qualify
        paths = topo.candidate_paths(0, 1, max_paths=2, max_hops=10)
        for p in paths:
            assert len(p) >= 1

    def test_max_paths_respected(self):
        topo = topology()
        assert len(topo.candidate_paths(0, 10, max_paths=2, max_hops=10)) <= 2

    def test_disconnected_topology_allowed_when_not_required(self):
        """require_connected=False accepts whatever placement comes out."""
        topo = topology(n=40, radio=0.08, seed=1, require_connected=False)
        assert not nx.is_connected(topo.graph)

    def test_no_route_between_components(self):
        topo = topology(n=40, radio=0.08, seed=1, require_connected=False)
        components = list(nx.connected_components(topo.graph))
        assert len(components) >= 2
        a = next(iter(components[0]))
        b = next(iter(components[1]))
        assert topo.candidate_paths(a, b, max_paths=3, max_hops=10) == []


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


class TestTopologyPathOracle:
    def test_draw_produces_valid_setup(self):
        topo = topology()
        oracle = TopologyPathOracle(topo, np.random.default_rng(2))
        setup = oracle.draw(0, list(range(25)))
        assert setup.source == 0
        assert setup.destination != 0
        assert setup.paths

    def test_draw_exhausts_max_draws_on_unroutable_source(self):
        """Two adjacent participants leave no >=2-hop route: every candidate
        path is filtered out and the oracle fails loudly after max_draws."""
        topo = topology()
        oracle = TopologyPathOracle(topo, np.random.default_rng(5), max_draws=8)
        neighbour = next(iter(topo.graph[0]))
        with pytest.raises(RuntimeError, match="after 8 draws"):
            oracle.draw(0, [0, neighbour])

    def test_draw_fails_across_disconnected_components(self):
        topo = topology(n=40, radio=0.08, seed=1, require_connected=False)
        components = sorted(nx.connected_components(topo.graph), key=len)
        source = next(iter(components[0]))  # smallest (often isolated) node
        others = [n for n in topo.node_ids if n not in components[0]]
        oracle = TopologyPathOracle(topo, np.random.default_rng(6), max_draws=16)
        with pytest.raises(RuntimeError, match="no routable destination"):
            oracle.draw(source, [source] + others[:5])

    def test_cache_avoids_recomputation(self):
        topo = topology()
        calls = []
        original = topo.candidate_paths
        topo.candidate_paths = lambda *a, **k: calls.append(a) or original(*a, **k)
        oracle = TopologyPathOracle(topo, np.random.default_rng(7))
        participants = list(range(25))
        for _ in range(50):
            oracle.draw(0, participants)
        # at most one topology computation per (source, destination) pair
        assert len(calls) == len(set(calls))

    def test_cache_option_is_gone(self):
        """Routes are always cached; there is no uncached mode."""
        with pytest.raises(TypeError, match="cache"):
            TopologyPathOracle(topology(), np.random.default_rng(7), cache=False)

    def test_warm_cache_draws_match_cold_oracle(self):
        """The route cache never changes a draw: an oracle whose table is
        filled before it draws matches a fresh one on the same seed."""
        participants = list(range(25))
        warm = TopologyPathOracle(topology(), np.random.default_rng(8))
        for source in participants:
            for destination in participants:
                if source != destination:
                    warm.provider.base_routes(source, destination)
        cold = TopologyPathOracle(topology(), np.random.default_rng(8))
        draws = [
            [oracle.draw(s, participants) for s in participants for _ in range(4)]
            for oracle in (warm, cold)
        ]
        assert draws[0] == draws[1]
        assert warm.provider.route_computes == 25 * 24

    def test_paths_filtered_to_active_participants(self):
        topo = topology()
        oracle = TopologyPathOracle(topo, np.random.default_rng(3))
        active = list(range(0, 25, 1))
        setup = oracle.draw(0, active)
        for path in setup.paths:
            assert all(node in active for node in path)

    def test_engine_runs_on_topology_oracle(self):
        """The extension plugs into the standard engine unchanged."""
        topo = topology()
        oracle = TopologyPathOracle(topo, np.random.default_rng(4))
        engine = ReferenceEngine(25, 0)
        engine.set_strategies([Strategy.all_forward() for _ in range(25)])
        stats = TournamentStats()
        engine.run_tournament(list(range(25)), 3, oracle, stats, None, None)
        assert stats.nn_originated == 75
        assert stats.cooperation_level == 1.0


class TestTopologyDrawTournament:
    """The batched draw path must be stream-identical to per-game draws."""

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_stream_identical_to_sequential_draws(self, seed):
        participants = list(range(25))
        sources = participants * 3  # three rounds
        batched = TopologyPathOracle(topology(), np.random.default_rng(seed))
        sequential = TopologyPathOracle(topology(), np.random.default_rng(seed))
        plan = batched.draw_tournament(sources, participants)
        assert len(plan) == len(sources)
        for game, source in zip(plan, sources):
            setup = sequential.draw(source, participants)
            got_source, got_dest, got_paths = game
            assert got_source == setup.source == source
            assert got_dest == setup.destination
            assert tuple(tuple(p) for p in got_paths) == setup.paths
        # including the generator state: interleaving the two modes across
        # engines can never skew a shared stream
        assert (
            batched.rng.bit_generator.state
            == sequential.rng.bit_generator.state
        )

    def test_rejection_redraws_consume_identically(self):
        """Restricted scopes force redraws; both modes must burn the same
        number of destination draws on them."""
        scope = list(range(0, 25, 2))  # sparse scope: rejections likely
        a = TopologyPathOracle(topology(), np.random.default_rng(3))
        b = TopologyPathOracle(topology(), np.random.default_rng(3))
        plan = a.draw_tournament(scope * 4, scope)
        for game, source in zip(plan, scope * 4):
            setup = b.draw(source, scope)
            assert (game[0], game[1]) == (setup.source, setup.destination)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_repeated_pairs_served_from_route_table(self):
        """A tournament's repeated (source, destination) pairs are computed
        once and then served from the provider's tables."""
        topo = topology()
        calls = []
        original = topo.candidate_paths
        topo.candidate_paths = lambda *a, **k: calls.append(a) or original(*a, **k)
        oracle = TopologyPathOracle(topo, np.random.default_rng(7))
        participants = list(range(25))
        oracle.draw_tournament(participants * 4, participants)
        assert len(calls) == len(set(calls))
        assert oracle.cache_hits > 0

    def test_scope_change_refilters_route_table(self):
        oracle = TopologyPathOracle(topology(), np.random.default_rng(11))
        full = list(range(25))
        plan_full = oracle.draw_tournament(full, full)
        narrow = full[:13]
        plan_narrow = oracle.draw_tournament(narrow, narrow)
        active = set(narrow)
        for _, destination, paths in plan_narrow:
            assert destination in active
            for path in paths:
                assert all(node in active for node in path)
        assert len(plan_full) == 25 and len(plan_narrow) == 13

    def test_batch_engine_runs_on_topology_oracle(self):
        from repro.sim import make_engine

        topo = topology()
        oracle = TopologyPathOracle(topo, np.random.default_rng(4))
        engine = make_engine("batch", 25, 0)
        engine.set_strategies([Strategy.all_forward() for _ in range(25)])
        stats = TournamentStats()
        engine.run_tournament(list(range(25)), 3, oracle, stats, None, None)
        assert stats.nn_originated == 75
        assert stats.cooperation_level == 1.0
