"""Tests for MobilePathOracle: caching, clocking, engine integration.

The acceptance-critical properties live here: both engines complete a
smoke-scale GA run through the mobile oracle with bit-identical results,
and identical seeds give identical experiments.  The static network is the
same oracle at speed 0, so the draw, stream-identity and engine cases run
on both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.mobility import MobilityConfig
from repro.config.presets import environment_with_csn
from repro.core.strategy import Strategy
from repro.experiments.cases import EvaluationCase
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication
from repro.game.stats import TournamentStats
from repro.mobility import (
    DynamicTopology,
    MobilePathOracle,
    RandomWaypoint,
    build_oracle,
)
from repro.sim import make_engine
from repro.tournament.evaluation import evaluate_generation

N = 20
RADIO = 0.45
IDS = list(range(N))

#: waypoint speed ranges: the default moving network and the static one
SPEEDS = {"moving": (0.01, 0.06), "speed0": (0.0, 0.0)}


def make_oracle(speed=(0.01, 0.06), seed=0, **kwargs) -> MobilePathOracle:
    model = RandomWaypoint(*speed, pause_time=1.0)
    topo = DynamicTopology(IDS, RADIO, model, np.random.default_rng(seed))
    return MobilePathOracle(topo, np.random.default_rng(seed + 1), **kwargs)


class TestDraw:
    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    def test_valid_setup(self, speed):
        oracle = make_oracle(SPEEDS[speed])
        setup = oracle.draw(0, IDS)
        assert setup.source == 0
        assert setup.destination in IDS and setup.destination != 0
        assert setup.paths

    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    def test_paths_restricted_to_participants(self, speed):
        oracle = make_oracle(SPEEDS[speed])
        scope = IDS[::2]
        for _ in range(30):
            setup = oracle.draw(0, scope)
            assert setup.destination in scope
            for path in setup.paths:
                assert set(path) <= set(scope)

    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    def test_unroutable_raises_descriptively(self, speed):
        oracle = make_oracle(SPEEDS[speed], max_draws=8)
        # two adjacent participants only: every route needs an intermediate,
        # none is in scope, and the emergency boost cannot mint one either
        neighbour = oracle.topology.neighbors(0)[0]
        with pytest.raises(RuntimeError, match="no routable destination"):
            oracle.draw(0, [0, neighbour])
        # every draw was rejected before the rescue failed too
        assert oracle.provider.empty_serves >= oracle.max_draws

    def test_step_every_validation(self):
        with pytest.raises(ValueError):
            make_oracle(step_every="sometimes")
        with pytest.raises(ValueError):
            make_oracle(step_every=0)


class TestCaching:
    def test_static_phase_serves_from_cache(self):
        oracle = make_oracle(speed=(0.0, 0.0), step_every=10**9)
        oracle.draw(0, IDS)
        # repeat queries for a pair computed in the first draw: all hits
        source, destination = next(iter(oracle.provider._cache))
        _, misses = oracle.provider.cache_info
        first = oracle.provider.routes(source, destination)
        assert oracle.provider.routes(source, destination) == first
        hits2, misses2 = oracle.provider.cache_info
        assert misses2 == misses
        assert hits2 >= 2

    def test_static_phase_misses_bounded_by_pair_count(self):
        oracle = make_oracle(speed=(0.0, 0.0), step_every=10**9)
        for _ in range(40):
            for source in IDS:
                oracle.draw(source, IDS)
        hits, misses = oracle.provider.cache_info
        assert misses <= N * (N - 1)
        assert hits > misses  # the static network is overwhelmingly cached

    def test_speed0_network_routes_each_pair_once(self):
        """The static network: over 5 tournaments of 3 rounds the topology
        steps between rounds, but its epoch stays 0, so the exact cache
        never expires and every distinct drawn pair is searched once."""
        oracle = build_oracle(
            MobilityConfig(
                model="waypoint", speed_min=0.0, speed_max=0.0, radio_range=RADIO
            ),
            IDS,
            np.random.default_rng(3),
        )
        topo = oracle.topology
        drawn = []
        candidate_paths = topo.candidate_paths

        def search(source, destination, *rest):
            drawn.append((source, destination))
            return candidate_paths(source, destination, *rest)

        topo.candidate_paths = search
        for _ in range(5):
            oracle.draw_tournament(IDS * 3, IDS)
            oracle.on_tournament_end()
        assert topo.epoch == 0
        assert topo.steps == 5 * 3 - 1  # between every two of the 15 rounds
        assert oracle.provider.route_computes == len(set(drawn)) == len(drawn)
        assert oracle.provider.cache_hits > 0  # repeated pairs served cached

    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    def test_warm_cache_draws_match_cold_oracle(self, speed):
        """The route cache never changes a draw: an oracle whose cache is
        filled before it draws matches a fresh one on the same seed."""
        warm = make_oracle(SPEEDS[speed], seed=8)
        warm.provider.rescope(IDS)
        for source in IDS:
            for destination in IDS:
                if source != destination:
                    warm.provider.routes(source, destination)
        assert warm.provider.route_computes == N * (N - 1)
        cold = make_oracle(SPEEDS[speed], seed=8)
        draws = [
            [oracle.draw(s, IDS) for s in IDS for _ in range(4)]
            for oracle in (warm, cold)
        ]
        assert draws[0] == draws[1]

    def test_epoch_change_invalidates(self):
        oracle = make_oracle(speed=(0.05, 0.1), step_every=10**9)
        for source in IDS:
            oracle.draw(source, IDS)
        _, misses1 = oracle.provider.cache_info
        epoch = oracle.topology.epoch
        oracle.advance_epoch()
        assert oracle.topology.epoch > epoch
        for source in IDS:
            oracle.draw(source, IDS)
        _, misses2 = oracle.provider.cache_info
        assert misses2 > misses1

    def test_participant_change_invalidates(self):
        oracle = make_oracle(speed=(0.0, 0.0), step_every=10**9)
        oracle.draw(0, IDS)
        _, misses1 = oracle.provider.cache_info
        oracle.draw(0, IDS[:15])  # smaller scope: cached routes unusable
        _, misses2 = oracle.provider.cache_info
        assert misses2 > misses1

    def test_boosted_routes_are_not_cached(self):
        """Routes minted through the emergency nearest-peer attach depend on
        positions that can drift without an epoch change: never cache them."""
        oracle = make_oracle(speed=(0.0, 0.0), step_every=10**9)
        topo = oracle.topology
        neighbours = set(topo.neighbors(0))
        scope = [n for n in IDS if n not in neighbours]
        assert 0 in scope
        oracle.provider.rescope(scope)
        destination = next(d for d in scope if d != 0)
        first = oracle.provider.routes(0, destination)
        if not first:  # isolated destination: pick one the boost can reach
            destination = next(
                d for d in scope if d != 0 and oracle.provider.routes(0, d)
            )
        assert topo.boost_count > 0
        assert (0, destination) not in oracle.provider._cache

    def test_same_participant_object_is_free(self):
        oracle = make_oracle(speed=(0.0, 0.0), step_every=10**9)
        participants = list(IDS)
        oracle.draw(0, participants)
        scope = oracle.provider.scope
        oracle.draw(1, participants)
        assert oracle.provider.scope is scope

    def test_in_place_churn_of_same_list_is_detected(self):
        """Regression: mutating the *same* participants list in place (node
        churn between rounds) used to slip past the identity check, serving
        stale cached routes for departed nodes."""
        oracle = make_oracle(speed=(0.0, 0.0), step_every=10**9)
        participants = list(IDS)
        oracle.draw(0, participants)
        cached_pairs = set(oracle.provider._cache)
        assert cached_pairs  # the draw populated the cache
        departed = participants[-1]
        participants.remove(departed)  # same list object, node churned out
        for _ in range(60):
            setup = oracle.draw(0, participants)
            assert setup.destination != departed
            for path in setup.paths:
                assert departed not in path
        assert departed not in oracle.provider.scope

    def test_in_place_swap_same_length_and_sum_is_detected(self):
        """The detection is an exact contents comparison, so even a
        sum- and length-preserving in-place swap (the case a hash or sum
        fingerprint would miss) rescopes."""
        oracle = make_oracle(speed=(0.0, 0.0), step_every=10**9)
        participants = list(IDS[:15])
        oracle.draw(0, participants)
        scope_before = oracle.provider.scope
        # replace the pair (13, 14) with (11, 16): same list length, same
        # id sum — undetectable by a (len, sum) fingerprint
        participants.remove(13)
        participants.remove(14)
        participants.extend([11, 16])
        oracle.draw(0, participants)
        assert oracle.provider.scope != scope_before
        assert 16 in oracle.provider.scope
        assert 14 not in oracle.provider.scope


class TestDrawTournament:
    """The batched draw path must be stream-identical to per-game draws —
    including the draw-count-clocked topology stepping, which shares the
    random stream with the draws themselves."""

    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    @pytest.mark.parametrize("scope", ["full", "sparse"])
    @pytest.mark.parametrize("step_every", ["round", "tournament", 7])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_stream_identical_to_sequential_draws(
        self, step_every, seed, scope, speed
    ):
        """A sparse scope forces rejection redraws: both modes must burn
        the same destination draws on them."""
        batched = make_oracle(SPEEDS[speed], seed=seed, step_every=step_every)
        sequential = make_oracle(SPEEDS[speed], seed=seed, step_every=step_every)
        participants = list(IDS) if scope == "full" else IDS[::2]
        sources = participants * 3  # three rounds
        plan = batched.draw_tournament(sources, participants)
        assert len(plan) == len(sources)
        for game, source in zip(plan, sources):
            setup = sequential.draw(source, participants)
            got_source, got_dest, got_paths = game
            assert got_source == setup.source == source
            assert got_dest == setup.destination
            assert tuple(tuple(p) for p in got_paths) == setup.paths
        # the topology trajectory and the shared generator both match: the
        # batched plan stepped the network at exactly the same draw counts
        assert batched.topology.epoch == sequential.topology.epoch
        assert np.array_equal(
            batched.topology.position_array(),
            sequential.topology.position_array(),
        )
        assert (
            batched.rng.bit_generator.state
            == sequential.rng.bit_generator.state
        )

    def test_round_clock_steps_between_planned_rounds(self):
        oracle = make_oracle(step_every="round")
        calls = []
        original = oracle.topology.step
        oracle.topology.step = lambda: calls.append(1) or original()
        oracle.draw_tournament(list(IDS) * 3, IDS)
        assert len(calls) == 2  # steps happen *between* rounds

    def test_plan_games_uses_batched_path(self):
        from repro.paths.oracle import plan_games

        a = make_oracle(seed=3)
        b = make_oracle(seed=3)
        plan = plan_games(a, IDS, IDS)
        expected = b.draw_tournament(IDS, IDS)
        assert plan == expected


class TestClocking:
    def test_round_mode_steps_once_per_round(self):
        oracle = make_oracle(step_every="round")
        calls = []
        original = oracle.topology.step
        oracle.topology.step = lambda: calls.append(1) or original()
        for _ in range(3):  # three "rounds" of one draw per participant
            for source in IDS:
                oracle.draw(source, IDS)
        assert len(calls) == 2  # steps happen *between* rounds

    def test_integer_mode_steps_every_n_draws(self):
        oracle = make_oracle(step_every=7)
        calls = []
        original = oracle.topology.step
        oracle.topology.step = lambda: calls.append(1) or original()
        for i in range(22):
            oracle.draw(i % N, IDS)
        assert len(calls) == 3  # after draws 7, 14 and 21

    def test_tournament_mode_only_steps_via_hook(self):
        oracle = make_oracle(step_every="tournament")
        calls = []
        original = oracle.topology.step
        oracle.topology.step = lambda: calls.append(1) or original()
        for source in IDS:
            oracle.draw(source, IDS)
        assert not calls
        oracle.on_tournament_end()
        assert len(calls) == 1

    def test_round_mode_hook_is_inert(self):
        oracle = make_oracle(step_every="round")
        epoch = oracle.topology.epoch
        oracle.on_tournament_end()
        assert oracle.topology.epoch == epoch

    def test_evaluation_loop_drives_tournament_clock(self):
        oracle = make_oracle(step_every="tournament")
        calls = []
        original = oracle.topology.step
        oracle.topology.step = lambda: calls.append(1) or original()
        engine = make_engine("batch", N, 0)
        engine.set_strategies([Strategy.all_forward() for _ in range(N)])
        env = environment_with_csn(0, tournament_size=10)
        evaluate_generation(
            engine,
            (env,),
            rounds=2,
            plays_per_environment=1,
            oracle=oracle,
            rng=np.random.default_rng(0),
        )
        assert len(calls) == 2  # N=20 players, 10 seats -> two tournaments


class TestEngineIntegration:
    @pytest.mark.parametrize("speed", sorted(SPEEDS))
    def test_engines_bit_identical_on_mobile_oracle(self, speed):
        stats = {}
        for engine_name in ("batch", "reference"):
            oracle = make_oracle(SPEEDS[speed], seed=9)
            engine = make_engine(engine_name, N, 0)
            rng = np.random.default_rng(13)
            engine.set_strategies([Strategy.random(rng) for _ in range(N)])
            s = TournamentStats()
            engine.run_tournament(IDS, 10, oracle, s, None, None)
            stats[engine_name] = (s.to_dict(), engine.fitness().tolist())
        assert stats["batch"] == stats["reference"]


SMALL_CASE = EvaluationCase(
    name="mobile_small",
    description="small mobile case for fast GA tests",
    environments=(environment_with_csn(3, tournament_size=12),),
    path_mode="shorter",
    mobility="waypoint",
)


def small_config(engine: str) -> ExperimentConfig:
    from repro.config.parameters import GAConfig, SimulationConfig

    return ExperimentConfig(
        case=SMALL_CASE,
        generations=2,
        replications=1,
        engine=engine,
        ga=GAConfig(population_size=24),
        sim=SimulationConfig(
            rounds=4,
            mobility=MobilityConfig(model="waypoint", radio_range=0.45),
        ),
    )


class TestGARuns:
    def test_replication_deterministic_for_identical_seeds(self):
        a = run_replication(small_config("batch"), 0)
        b = run_replication(small_config("batch"), 0)
        assert a.final_population == b.final_population
        assert a.history.to_dict() == b.history.to_dict()
        assert a.final_overall.to_dict() == b.final_overall.to_dict()

    def test_small_ga_run_engines_equivalent(self):
        results = {
            e: run_replication(small_config(e), 0) for e in ("batch", "reference")
        }
        b, r = results["batch"], results["reference"]
        assert b.final_population == r.final_population
        assert b.history.to_dict() == r.history.to_dict()

    @pytest.mark.parametrize("engine", ["batch", "reference"])
    def test_smoke_scale_mobile_case_completes(self, engine):
        """Acceptance: a full smoke-scale GA run with RandomWaypoint mobility
        completes on both engines through MobilePathOracle."""
        config = ExperimentConfig.for_case(
            "mobile_waypoint", scale="smoke", engine=engine
        )
        assert config.sim.mobility.model == "waypoint"
        result = run_replication(config, 0)
        assert len(result.final_population) == config.ga.population_size
        assert 0.0 <= result.final_overall.cooperation_level <= 1.0


class TestFactory:
    def test_build_oracle_wires_config(self):
        config = MobilityConfig(
            model="waypoint", radio_range=0.5, max_paths=2, max_hops=6, step_every=5
        )
        oracle = build_oracle(config, IDS, np.random.default_rng(0))
        assert oracle.max_paths == 2
        assert oracle.max_hops == 6
        assert oracle.step_every == 5
        assert oracle.topology.radio_range == 0.5

    def test_build_oracle_rejects_none_model(self):
        with pytest.raises(ValueError, match="RandomPathOracle"):
            build_oracle(MobilityConfig(), IDS, np.random.default_rng(0))


class FixedPositions:
    """A mobility model that never moves its nodes, or that jumps them to
    ``then`` on its first step."""

    def __init__(self, xy, then=None):
        self.xy = np.asarray(xy, dtype=float)
        self.then = self.xy if then is None else np.asarray(then, dtype=float)

    def reset(self, n_nodes, rng):
        return self.xy.copy()

    def step(self, positions, dt, rng):
        return self.then.copy()


#: nodes 0 and 1 form a two-node component in the corner; 2..7 a chain far
#: away, with 2 nearest the pair.  Node 0 has a neighbour, so it gets no
#: power boost, and no destination offers it a route with an intermediate.
TWO_NODE_XY = [(0.05, 0.05), (0.15, 0.05)] + [(0.5 + 0.1 * k, 0.5) for k in range(6)]


def two_node_oracle(max_draws=16, xy=TWO_NODE_XY, then=None, **kwargs):
    topo = DynamicTopology(
        list(range(len(xy))),
        0.12,
        FixedPositions(xy, then),
        np.random.default_rng(0),
        require_connected_start=False,
    )
    return MobilePathOracle(
        topo, np.random.default_rng(1), max_draws=max_draws, **kwargs
    )


class TestRescue:
    """A source in a two-node component: every draw fails, and the rescue
    bridges it to the nearest participant outside the component (node 2),
    playing towards that peer's nearest neighbour (node 3)."""

    def test_sequential_sampler_is_rescued(self):
        oracle = two_node_oracle()
        setup = oracle.draw(0, list(range(8)))
        assert (setup.destination, setup.paths) == (3, ((2,),))
        assert oracle.topology.rescues == 1
        # the rescue fires after the last draw and draws nothing itself
        control = np.random.default_rng(1)
        for _ in range(oracle.max_draws):
            control.integers(7)
        assert oracle.rng.bit_generator.state == control.bit_generator.state

    def test_batched_sampler_is_rescued(self):
        oracle = two_node_oracle()
        plan = oracle.draw_tournament([0, 4], list(range(8)))
        assert plan[0] == (0, 3, [(2,)])
        assert plan[1][0] == 4
        assert oracle.topology.rescues == 1

    def test_vectorised_sampler_is_rescued(self):
        """The fused engine's plan arrays carry the draw loop's rescues."""
        from repro.paths.vector import plan_tournament_arrays

        oracle = two_node_oracle()
        plan = plan_tournament_arrays(oracle, [0, 4, 0], list(range(8)))
        assert plan.dst.tolist()[0::2] == [3, 3]
        assert plan.paths_of(0) == [[2]] and plan.paths_of(2) == [[2]]
        assert oracle.topology.rescues == 2

    def test_rescue_is_counted_in_telemetry(self):
        from repro.telemetry.config import TelemetryConfig
        from repro.telemetry.harvest import harvest_oracle
        from repro.telemetry.runtime import telemetry_session

        oracle = two_node_oracle()
        oracle.draw(0, list(range(8)))
        with telemetry_session(TelemetryConfig(enabled=True, events=False)) as tel:
            harvest_oracle(tel, oracle)
            counters = tel.snapshot()["counters"]
        assert counters["mobility.rescues"] == 1

    def test_a_missed_destination_in_the_component_comes_first(self):
        """With a third node on the corner chain, node 0 can reach node 2
        through node 1; draws that all miss it are rescued by the live
        search of the component, not by a bridge."""
        xy = TWO_NODE_XY[:2] + [(0.25, 0.05)] + TWO_NODE_XY[2:]
        oracle = two_node_oracle(max_draws=2, xy=xy)
        participants = list(range(len(xy)))
        control = np.random.default_rng(1)
        missed = [participants[1:][int(control.integers(8))] for _ in range(2)]
        assert 2 not in missed  # both draws miss the one routable destination
        setup = oracle.draw(0, participants)
        assert (setup.destination, setup.paths) == (2, ((1,),))
        assert oracle.topology.rescues == 1

    def test_no_route_entries_expire_with_their_epoch(self):
        """Under ``approx`` a cached route is served for a drift budget, but
        a cached "no route" only in its own epoch: once the pair joins the
        chain, the next epoch recomputes it and the draw needs no rescue."""
        joined = [(0.5, 0.6), (0.6, 0.6)] + TWO_NODE_XY[2:]
        oracle = two_node_oracle(
            then=joined, route_cache="approx", drift_budget=8, step_every=10**9
        )
        participants = list(range(8))
        provider = oracle.provider
        provider.rescope(participants)
        assert not any(provider.routes(0, d) for d in participants[1:])
        oracle.advance_epoch()
        assert oracle.topology.epoch == 1
        assert any(provider.routes(0, d) for d in participants[1:])
        setup = oracle.draw(0, participants)
        assert setup.paths and oracle.topology.rescues == 0
        assert provider.stale_hits == 0

    def test_no_participant_outside_the_component_still_fails(self):
        oracle = two_node_oracle()
        with pytest.raises(RuntimeError, match="no routable destination"):
            oracle.draw(0, [0, 1])
        assert oracle.topology.rescues == 0


class CountingRng:
    """A generator proxy that counts the draw loop's ``integers`` calls:
    one per destination attempt, accepted or rejected."""

    def __init__(self, rng):
        self._rng = rng
        self.attempts = 0

    def integers(self, *args, **kwargs):
        self.attempts += 1
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestRejectedDraws:
    """``paths.rejected_draws`` counts every rejected destination draw, on
    the bit-identical and the fused engine alike: each engine plans routed
    games through the one draw loop, whose empty serves are its rejects."""

    @pytest.mark.parametrize("engine_name", ["batch", "fused"])
    def test_counted_on_every_engine(self, engine_name):
        from repro.telemetry.config import TelemetryConfig
        from repro.telemetry.harvest import harvest_oracle
        from repro.telemetry.runtime import telemetry_session

        n, rounds = 16, 4
        participants = list(range(n))
        # too sparse to stay connected: draws are rejected, sources rescued
        topo = DynamicTopology(
            participants,
            0.25,
            RandomWaypoint(0.025, 0.05, pause_time=0.0),
            np.random.default_rng(5),
            require_connected_start=False,
        )
        rng = CountingRng(np.random.default_rng(6))
        oracle = MobilePathOracle(topo, rng)
        engine = make_engine(engine_name, n, 0)
        engine.set_strategies(
            [Strategy.random(np.random.default_rng(k)) for k in range(n)]
        )
        stats = TournamentStats()
        if engine_name == "fused":
            engine.run_generation([participants], rounds, oracle, stats)
        else:
            engine.run_tournament(participants, rounds, oracle, stats, None, None)
        with telemetry_session(TelemetryConfig(enabled=True, events=False)) as tel:
            harvest_oracle(tel, oracle)
            counters = tel.snapshot()["counters"]
        # a game is one accepted draw, or max_draws rejected ones and a rescue
        accepted = n * rounds - topo.rescues
        assert topo.rescues > 0
        assert counters["paths.rejected_draws"] == rng.attempts - accepted
        assert counters["paths.rejected_draws"] == oracle.provider.empty_serves
        assert counters["paths.rejected_draws"] > 0
