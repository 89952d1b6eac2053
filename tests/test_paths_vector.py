"""Tests for the vectorized tournament sampler behind the fused engine.

The sampler's contract (``paths/vector.py``) is *distributional identity*
with the sequential :meth:`RandomPathOracle.draw`: same destination law,
same hop/path-count laws, same uniform ordered-subset law per path.  These
tests pin the structural guarantees exactly and the distributions
statistically (chi-squared-style bounds loose enough to never flake, tight
enough to catch a wrong law), plus the packing of every other oracle's own
draws: a routed plan must equal the per-game draws exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.paths.distributions import (
    DEFAULT_PATH_COUNTS,
    LONGER_PATHS,
    SHORTER_PATHS,
)
from repro.paths.oracle import GameSetup, RandomPathOracle, ScriptedPathOracle
from repro.paths.vector import (
    GamePlanArrays,
    plan_generation_arrays,
    plan_tournament_arrays,
)


def assert_ragged(plan):
    """The CSR invariants of a ragged plan: path rows tile the hop array
    in order, every path holds at least one real (non-negative) id."""
    assert plan.path_start.shape == (plan.path_len.size + 1,)
    assert plan.path_start[0] == 0
    assert plan.path_start[-1] == plan.hop_nodes.size
    assert np.array_equal(np.diff(plan.path_start), plan.path_len)
    assert (plan.path_len >= 1).all()
    assert (plan.hop_nodes >= 0).all()


def sample(n_rounds=40, seed=0, participants=None, hop_dist=SHORTER_PATHS):
    """One random tournament's plan: a one-seating generation."""
    participants = participants or list(range(20))
    oracle = RandomPathOracle(np.random.default_rng(seed), hop_dist)
    return plan_generation_arrays(oracle, [participants], n_rounds), participants


class TestStructure:
    def test_shapes_and_offsets_consistent(self):
        plan, participants = sample()
        assert plan.n_games == 40 * len(participants)
        assert plan.src.tolist() == participants * 40
        assert plan.game_path_start[0] == 0
        assert plan.game_path_start[-1] == plan.path_len.size
        assert np.array_equal(np.diff(plan.game_path_start), plan.n_paths)
        assert np.array_equal(
            plan.path_game, np.repeat(np.arange(plan.n_games), plan.n_paths)
        )
        assert_ragged(plan)
        # path_col counts candidates within each game from zero
        for g in (0, 7, plan.n_games - 1):
            lo, hi = plan.game_path_start[g], plan.game_path_start[g + 1]
            assert plan.path_col[lo:hi].tolist() == list(range(hi - lo))

    def test_paths_are_valid_games(self):
        plan, participants = sample(seed=3)
        pset = set(participants)
        for g in range(plan.n_games):
            src, dst = int(plan.src[g]), int(plan.dst[g])
            assert src != dst and dst in pset
            for path in plan.paths_of(g):
                assert len(path) >= 1
                assert len(set(path)) == len(path), "repeated intermediate"
                assert src not in path and dst not in path
                assert set(path) <= pset

    def test_hops_are_real_ids_only(self):
        plan, participants = sample(seed=5)
        assert_ragged(plan)
        assert set(plan.hop_nodes.tolist()) <= set(participants)
        assert plan.hop_nodes.size == int(plan.path_len.sum())

    def test_hop_clamp_small_pool(self):
        """A 4-participant pool clamps every path to the 2 available
        intermediates, exactly like the sequential generator."""
        plan, _ = sample(n_rounds=30, seed=2, participants=[3, 5, 9, 11])
        assert int(plan.path_len.max()) <= 2

    def test_too_small_pool_raises(self):
        oracle = RandomPathOracle(np.random.default_rng(0), SHORTER_PATHS)
        with pytest.raises(ValueError, match="at least 3 participants"):
            plan_generation_arrays(oracle, [[0, 1]], 1)


class TestDistributionalIdentity:
    """Empirical laws vs the sequential sampler, on matched sample sizes."""

    N_ROUNDS = 250  # 5000 games per sampler

    def law_summary(self, games):
        dests = {}
        hops = {}
        counts = {}
        first_nodes = {}
        for src, dst, paths in games:
            dests[(src, dst)] = dests.get((src, dst), 0) + 1
            k = len(paths[0])
            hops[k] = hops.get(k, 0) + 1
            counts[len(paths)] = counts.get(len(paths), 0) + 1
            node = paths[0][0]
            first_nodes[node] = first_nodes.get(node, 0) + 1
        return dests, hops, counts, first_nodes

    def test_laws_match_sequential_sampler(self):
        participants = list(range(12))
        plan, _ = sample(
            n_rounds=self.N_ROUNDS, seed=17, participants=participants
        )
        vec_games = [
            (int(plan.src[g]), int(plan.dst[g]), plan.paths_of(g))
            for g in range(plan.n_games)
        ]
        oracle = RandomPathOracle(np.random.default_rng(18), SHORTER_PATHS)
        seq_games = []
        for _ in range(self.N_ROUNDS):
            for src in participants:
                setup = oracle.draw(src, participants)
                seq_games.append((setup.source, setup.destination, setup.paths))
        v_dest, v_hops, v_counts, v_first = self.law_summary(vec_games)
        s_dest, s_hops, s_counts, s_first = self.law_summary(seq_games)
        n = len(vec_games)
        # hop-length law: per-category frequency within 3 sigma + slack
        for law_v, law_s in ((v_hops, s_hops), (v_counts, s_counts)):
            for key in set(law_v) | set(law_s):
                p_v = law_v.get(key, 0) / n
                p_s = law_s.get(key, 0) / n
                sigma = np.sqrt(max(p_s, 1 / n) * (1 - min(p_s, 0.99)) / n)
                assert abs(p_v - p_s) < 3.5 * np.sqrt(2) * sigma + 0.005, (
                    f"category {key}: {p_v:.4f} vs {p_s:.4f}"
                )
        # destination uniformity: every (src, dst) pair roughly equally likely
        expected = n / (len(participants) * (len(participants) - 1))
        for law in (v_dest, s_dest):
            observed = np.array(list(law.values()), dtype=float)
            assert len(law) == len(participants) * (len(participants) - 1)
            assert abs(observed.mean() - expected) < 1e-9
            assert observed.std() < 0.35 * expected
        # first-intermediate uniformity (proxy for the ordered-subset law)
        v_arr = np.array([v_first.get(p, 0) for p in participants], float)
        s_arr = np.array([s_first.get(p, 0) for p in participants], float)
        assert abs(v_arr.mean() - s_arr.mean()) < 1e-9
        assert np.abs(v_arr - v_arr.mean()).max() < 0.15 * v_arr.mean()
        assert np.abs(v_arr / n - s_arr / n).max() < 0.03

    def test_longer_paths_mode(self):
        plan, _ = sample(n_rounds=120, seed=23, hop_dist=LONGER_PATHS)
        lengths = plan.path_len
        # LONGER_PATHS puts 60% of mass on >= 5 hops (>= 4 intermediates)
        assert (lengths >= 4).mean() > 0.4
        assert int(lengths.max()) == 9  # 10 hops -> 9 intermediates

    def test_rng_divergence_is_expected(self):
        """Documents the contract: same seed, different stream layout than
        the sequential sampler — distributions match, trajectories don't."""
        participants = list(range(10))
        plan, _ = sample(n_rounds=2, seed=29, participants=participants)
        oracle = RandomPathOracle(np.random.default_rng(29), SHORTER_PATHS)
        seq = [oracle.draw(s, participants) for s in participants] + [
            oracle.draw(s, participants) for s in participants
        ]
        same = all(
            int(plan.dst[g]) == seq[g].destination for g in range(plan.n_games)
        )
        assert not same


class TestPlanFallback:
    def test_scripted_oracle_packs_exactly(self):
        setups = [
            GameSetup(source=0, destination=3, paths=((1, 2), (4,))),
            GameSetup(source=1, destination=4, paths=((2,),)),
            GameSetup(source=2, destination=0, paths=((3, 4, 1),)),
        ]
        oracle = ScriptedPathOracle(setups)
        plan = plan_tournament_arrays(oracle, [0, 1, 2], list(range(5)))
        assert isinstance(plan, GamePlanArrays)
        assert plan.n_games == 3
        assert plan.src.tolist() == [0, 1, 2]
        assert plan.dst.tolist() == [3, 4, 0]
        assert plan.n_paths.tolist() == [2, 1, 1]
        assert plan.paths_of(0) == [[1, 2], [4]]
        assert plan.paths_of(1) == [[2]]
        assert plan.paths_of(2) == [[3, 4, 1]]
        assert plan.max_paths == 2
        assert plan.path_len.tolist() == [2, 1, 1, 3]

    def test_empty_path_rejected(self):
        """A path segment of the flat hop layout holds at least one hop;
        a scripted path with no intermediate is refused at packing."""
        oracle = ScriptedPathOracle(
            [GameSetup(source=0, destination=3, paths=((1, 2), ()))]
        )
        with pytest.raises(ValueError, match="at least one intermediate"):
            plan_tournament_arrays(oracle, [0], list(range(5)))

    def test_source_outside_participants_uses_fallback(self):
        """A source not seated in the tournament is planned through the
        sequential path (the vectorized pool layout assumes seated
        sources); the draw still succeeds."""
        oracle = RandomPathOracle(np.random.default_rng(4), SHORTER_PATHS)
        plan = plan_tournament_arrays(oracle, [99, 99], list(range(8)))
        assert plan.n_games == 2
        assert plan.src.tolist() == [99, 99]
        for g in range(2):
            for path in plan.paths_of(g):
                assert 99 not in path


# -- routed plans (static and mobile networks) --------------------------------


def make_topology_oracle(seed=0, n=20, radio=0.45):
    """The static network: the routed oracle at speed 0."""
    from repro.mobility import MobilityConfig, build_oracle

    config = MobilityConfig(
        model="waypoint", speed_min=0.0, speed_max=0.0, radio_range=radio
    )
    return build_oracle(config, range(n), np.random.default_rng(seed))


def make_mobile_oracle(seed=0, n=20, radio=0.45, **kwargs):
    from repro.mobility import DynamicTopology, MobilePathOracle, RandomWaypoint

    model = RandomWaypoint(0.005, 0.02, pause_time=0.0)
    topo = DynamicTopology(
        list(range(n)), radio, model, np.random.default_rng(seed)
    )
    return MobilePathOracle(topo, np.random.default_rng(seed + 1), **kwargs)


class TestRoutedSamplerStructure:
    @pytest.mark.parametrize("kind", ["topology", "mobile"])
    def test_shapes_and_offsets(self, kind):
        make = make_topology_oracle if kind == "topology" else make_mobile_oracle
        oracle = make()
        participants = list(range(20))
        plan = plan_tournament_arrays(oracle, participants * 5, participants)
        assert isinstance(plan, GamePlanArrays)
        assert plan.n_games == 100
        assert plan.src.tolist() == participants * 5
        assert np.array_equal(np.diff(plan.game_path_start), plan.n_paths)
        assert np.array_equal(
            plan.path_game, np.repeat(np.arange(plan.n_games), plan.n_paths)
        )
        assert (plan.n_paths >= 1).all()
        assert plan.game_path_start[-1] == plan.path_len.size
        assert_ragged(plan)

    @pytest.mark.parametrize("kind", ["topology", "mobile"])
    def test_games_are_valid_setups(self, kind):
        make = make_topology_oracle if kind == "topology" else make_mobile_oracle
        oracle = make()
        participants = list(range(20))
        plan = plan_tournament_arrays(oracle, participants * 3, participants)
        active = set(participants)
        for g in range(plan.n_games):
            src, dst = int(plan.src[g]), int(plan.dst[g])
            assert dst in active and dst != src
            paths = plan.paths_of(g)
            assert paths
            GameSetup(
                source=src,
                destination=dst,
                paths=tuple(tuple(p) for p in paths),
            )
            for path in paths:
                assert set(path) <= active

    def test_paths_equal_the_route_providers_answer(self):
        """The sampler serves exactly the routes the provider computes for
        the drawn pair — pinned against a twin oracle's provider."""
        oracle = make_topology_oracle(seed=3)
        twin = make_topology_oracle(seed=3)
        participants = list(range(20))
        plan = plan_tournament_arrays(oracle, participants * 2, participants)
        twin.provider.rescope(participants)
        for g in range(plan.n_games):
            expected = twin.provider.routes(int(plan.src[g]), int(plan.dst[g]))
            assert plan.paths_of(g) == [list(p) for p in expected]


class TestRoutedSamplerDistribution:
    def test_per_source_destinations_cover_routable_set(self):
        oracle = make_topology_oracle(seed=2)
        participants = list(range(20))
        plan = plan_tournament_arrays(oracle, participants * 60, participants)
        drawn = set(
            zip(plan.src.tolist(), plan.dst.tolist())
        )
        # source 0 must have reached essentially all its routable partners
        twin = make_topology_oracle(seed=2)
        twin.provider.rescope(participants)
        routable = {
            d for d in participants[1:] if twin.provider.routes(0, d)
        }
        reached = {d for s, d in drawn if s == 0}
        assert reached == routable


def make_sparse_oracle(seed=5, n=16, radio=0.25, **kwargs):
    """A fast-moving network too sparse to stay connected: many drawn
    pairs have no route, and some sources have no routable destination at
    all, so both rejected draws and rescues occur."""
    from repro.mobility import DynamicTopology, MobilePathOracle, RandomWaypoint

    topo = DynamicTopology(
        list(range(n)),
        radio,
        RandomWaypoint(0.025, 0.05, pause_time=0.0),
        np.random.default_rng(seed),
        require_connected_start=False,
    )
    return MobilePathOracle(topo, np.random.default_rng(seed + 1), **kwargs)


class TestRoutedPlanIsTheDrawLoop:
    """The fused engine's routed plan is the oracle's own draw loop: a
    generation plan equals the per-game :meth:`draw` sequence of a twin
    oracle driven through the sequential generation loop, game for game
    (destinations, paths, generator state), and steps the topology at the
    same draw counts, rejected draws and rescues included, under every
    clock and across plans that end mid-window."""

    @pytest.mark.parametrize("n_tournaments", [1, 2])
    @pytest.mark.parametrize("step_every", ["round", 7, "tournament"])
    def test_plan_equals_per_game_draws(self, step_every, n_tournaments):
        n, rounds = 16, 3
        seatings = pin_seatings(n_tournaments, n, seed=1)
        planned = make_sparse_oracle(step_every=step_every)
        drawn = make_sparse_oracle(step_every=step_every)
        for _ in range(2):  # 48 draws a tournament: plan 2 starts mid-window
            plan = plan_generation_arrays(
                planned, seatings, rounds, planned.on_tournament_end
            )
            per_tournament = []
            for seating in seatings:
                per_tournament.append(
                    [drawn.draw(s, seating) for s in seating * rounds]
                )
                drawn.on_tournament_end()
            # the plan is round-major across the generation's tournaments
            setups = [
                games[r * n + k]
                for r in range(rounds)
                for games in per_tournament
                for k in range(n)
            ]
            assert plan.src.tolist() == [g.source for g in setups]
            assert plan.dst.tolist() == [g.destination for g in setups]
            assert [plan.paths_of(g) for g in range(plan.n_games)] == [
                [list(p) for p in g.paths] for g in setups
            ]
            assert planned.topology.steps == drawn.topology.steps
            assert (
                planned.rng.bit_generator.state == drawn.rng.bit_generator.state
            )
        assert planned.topology.steps > 0
        # the set-up exercises what the contract is about
        assert planned.provider.empty_serves > 0
        assert planned.topology.rescues > 0
        assert planned.provider.empty_serves == drawn.provider.empty_serves
        assert planned.topology.rescues == drawn.topology.rescues


# -- stacked generation planner (fused engine) --------------------------------


class TestGenerationPlan:
    """:func:`plan_generation_arrays`: the whole generation as one
    round-major stacked plan (game ``g = round * T * n + tournament * n +
    seat``)."""

    def make_seatings(self, n_tournaments=3, n=12, seed=2):
        rng = np.random.default_rng(seed)
        return [
            [int(v) for v in rng.permutation(n)] for _ in range(n_tournaments)
        ]

    def test_round_major_layout_random(self):
        seatings = self.make_seatings()
        rounds, n = 5, len(seatings[0])
        oracle = RandomPathOracle(np.random.default_rng(1), SHORTER_PATHS)
        plan = plan_generation_arrays(oracle, seatings, rounds)
        slate = len(seatings) * n
        assert plan.n_games == rounds * slate
        # every slate's source order is the concatenation of the seatings
        slate_sources = [s for seating in seatings for s in seating]
        for r in range(rounds):
            assert plan.src[r * slate : (r + 1) * slate].tolist() == slate_sources
        assert np.array_equal(np.diff(plan.game_path_start), plan.n_paths)

    def test_cross_tournament_pool_isolation(self):
        """Each game draws destinations and intermediates from its *own*
        tournament's seating only — stacked pools never mix."""
        rng = np.random.default_rng(7)
        # seatings over disjoint id ranges make any pool mixing visible
        seatings = [
            [int(v) for v in 100 * t + rng.permutation(10)] for t in range(3)
        ]
        rounds = 6
        oracle = RandomPathOracle(np.random.default_rng(3), SHORTER_PATHS)
        plan = plan_generation_arrays(oracle, seatings, rounds)
        slate = 30
        for g in range(plan.n_games):
            t = (g % slate) // 10
            allowed = set(seatings[t])
            src, dst = int(plan.src[g]), int(plan.dst[g])
            assert src in allowed and dst in allowed and src != dst
            for path in plan.paths_of(g):
                assert set(path) <= allowed
                assert src not in path and dst not in path
                assert len(set(path)) == len(path)

    def stacked_random_plan(self, hop_dist):
        """Six 30-seat tournaments over 30 rounds: 5400 games."""
        seatings = self.make_seatings(n_tournaments=6, n=30, seed=13)
        oracle = RandomPathOracle(np.random.default_rng(31), hop_dist)
        plan = plan_generation_arrays(oracle, seatings, 30)
        first_len = plan.path_len[plan.game_path_start[:-1]]
        return plan, first_len + 1  # a path of h hops has h - 1 intermediates

    @staticmethod
    def assert_law(observed, n, pmf, what):
        """Each category's frequency within 4 binomial sigma (+ slack)."""
        for value, p in pmf.items():
            sigma = np.sqrt(max(p, 1 / n) * (1 - min(p, 0.99)) / n)
            freq = observed.get(value, 0) / n
            assert abs(freq - p) < 4 * sigma + 0.005, f"{what} {value}: {freq} vs {p}"
        assert set(observed) <= {v for v, p in pmf.items() if p > 0}, what

    @pytest.mark.parametrize(
        "hop_dist", [SHORTER_PATHS, LONGER_PATHS], ids=["shorter", "longer"]
    )
    def test_stacked_random_follows_the_hop_law(self, hop_dist):
        """The one random sampler draws Table 2's hop law; every candidate
        path of a game has the game's hop count."""
        plan, hops = self.stacked_random_plan(hop_dist)
        game_of_path = plan.path_game
        assert (plan.path_len + 1 == hops[game_of_path]).all()
        values, counts = np.unique(hops, return_counts=True)
        pmf = dict(zip(hop_dist.dist.values, hop_dist.dist.probabilities))
        self.assert_law(
            dict(zip(values.tolist(), counts.tolist())), plan.n_games, pmf, "hops"
        )

    @pytest.mark.parametrize(
        "hop_dist", [SHORTER_PATHS, LONGER_PATHS], ids=["shorter", "longer"]
    )
    def test_stacked_random_follows_the_count_law(self, hop_dist):
        """Per Table 3 hop range, the number of candidate paths follows
        that range's law (9-10 hops reuse the 7-8 row)."""
        plan, hops = self.stacked_random_plan(hop_dist)
        checked = 0
        for lo, hi in ((2, 3), (4, 6), (7, 8), (9, 10)):
            games = (hops >= lo) & (hops <= hi)
            n = int(games.sum())
            if n < 500:  # too few games in this range to test its law
                continue
            dist = DEFAULT_PATH_COUNTS.distribution_for(lo)
            values, counts = np.unique(plan.n_paths[games], return_counts=True)
            self.assert_law(
                dict(zip(values.tolist(), counts.tolist())),
                n,
                dict(zip(dist.values, dist.probabilities)),
                f"paths at {lo}-{hi} hops",
            )
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("kind", ["random", "mobile"])
    def test_hook_fires_once_per_tournament(self, kind):
        if kind == "random":
            oracle = RandomPathOracle(np.random.default_rng(1), SHORTER_PATHS)
        else:
            oracle = make_mobile_oracle(seed=5, step_every="tournament")
        calls = []
        seatings = [list(range(12)) for _ in range(4)]
        plan = plan_generation_arrays(
            oracle, seatings, 3, on_tournament_end=lambda: calls.append(1)
        )
        assert len(calls) == 4
        assert plan.n_games == 3 * 4 * 12

    def test_routed_interleave_matches_round_major_layout(self):
        oracle = make_topology_oracle(seed=3)
        seatings = self.make_seatings(n_tournaments=2, n=12, seed=9)
        rounds = 4
        plan = plan_generation_arrays(oracle, seatings, rounds)
        slate = 2 * 12
        assert plan.n_games == rounds * slate
        slate_sources = [s for seating in seatings for s in seating]
        for r in range(rounds):
            assert plan.src[r * slate : (r + 1) * slate].tolist() == slate_sources
        # offsets stay self-consistent after the interleave
        assert plan.game_path_start[0] == 0
        assert plan.game_path_start[-1] == plan.path_len.size
        assert np.array_equal(np.diff(plan.game_path_start), plan.n_paths)
        assert np.array_equal(
            plan.path_game, np.repeat(np.arange(plan.n_games), plan.n_paths)
        )
        assert_ragged(plan)

    def test_validation(self):
        oracle = RandomPathOracle(np.random.default_rng(1), SHORTER_PATHS)
        with pytest.raises(ValueError, match="at least one seating"):
            plan_generation_arrays(oracle, [], 3)
        with pytest.raises(ValueError, match="same size"):
            plan_generation_arrays(oracle, [[0, 1, 2, 3], [0, 1, 2]], 3)
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            plan_generation_arrays(oracle, [[0, 1, 2, 3]], 0)
        with pytest.raises(ValueError, match="distinct participants"):
            plan_generation_arrays(oracle, [[0, 1, 1, 3]], 2)


# -- plan content pinned across layouts ----------------------------------------


def plan_digest(plan, oracles=()) -> str:
    """Digest of everything a plan says about its games — sources,
    destinations and every game's candidate paths via ``paths_of`` (so it
    is independent of the array layout) — plus the state each oracle's
    generator is left in."""
    import hashlib
    import json

    payload = [
        plan.n_games,
        plan.src.tolist(),
        plan.dst.tolist(),
        [plan.paths_of(g) for g in range(plan.n_games)],
        [o.rng.bit_generator.state for o in oracles if hasattr(o, "rng")],
    ]
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def pin_seatings(n_tournaments, n, seed):
    rng = np.random.default_rng(seed)
    return [[int(v) for v in rng.permutation(n)] for _ in range(n_tournaments)]


def random_oracle(seed, hop_dist=SHORTER_PATHS):
    return RandomPathOracle(np.random.default_rng(seed), hop_dist)


def scripted_oracle(seed, seatings, rounds):
    """A scripted oracle holding exactly the games a generation plan of
    ``seatings`` asks for (per tournament, ``seating * rounds``), drawn
    sequentially from a random oracle — the fallback packer's input."""
    source = random_oracle(seed)
    return ScriptedPathOracle(
        source.draw(s, seating)
        for seating in seatings
        for s in seating * rounds
    )


def tournament(oracle, n, rounds):
    """One tournament of ``n`` seats: a one-seating generation."""
    return generation(oracle, [list(range(n))], rounds)


def generation(oracle, seatings, rounds):
    return plan_generation_arrays(oracle, seatings, rounds), [oracle]


def stack(make_oracle, n_reps, seatings, rounds, block):
    """``n_reps`` replications, each planned on its own oracle, stacked."""
    from repro.paths.vector import stack_replication_plans

    oracles = [make_oracle(r) for r in range(n_reps)]
    plans = [plan_generation_arrays(o, seatings, rounds) for o in oracles]
    return stack_replication_plans(plans, rounds, block), oracles


SEAT12 = pin_seatings(3, 12, seed=2)
SEAT20 = pin_seatings(2, 20, seed=9)

#: ``name -> builder() -> (plan, oracles)``
PLAN_CASES = {
    "random_tournament": lambda: tournament(random_oracle(31), 20, 6),
    "random_longer": lambda: tournament(random_oracle(32, LONGER_PATHS), 16, 8),
    "random_generation": lambda: generation(random_oracle(33), SEAT12, 5),
    "random_stack_r1": lambda: stack(lambda r: random_oracle(34 + r), 1, SEAT12, 4, 16),
    "random_stack_r3": lambda: stack(lambda r: random_oracle(34 + r), 3, SEAT12, 4, 16),
    "topology_tournament": lambda: tournament(make_topology_oracle(seed=3), 20, 5),
    "topology_generation": lambda: generation(make_topology_oracle(seed=4), SEAT20, 4),
    "topology_stack_r1": lambda: stack(
        lambda r: make_topology_oracle(seed=5 + r), 1, SEAT20, 3, 24
    ),
    "topology_stack_r3": lambda: stack(
        lambda r: make_topology_oracle(seed=5 + r), 3, SEAT20, 3, 24
    ),
    "mobile_generation": lambda: generation(
        make_mobile_oracle(seed=6, step_every=7), SEAT20, 4
    ),
    "mobile_stack_r3": lambda: stack(
        lambda r: make_mobile_oracle(seed=7 + r, step_every="round"), 3, SEAT20, 3, 24
    ),
    "scripted_generation": lambda: generation(
        scripted_oracle(41, SEAT12, 4), SEAT12, 4
    ),
    "scripted_stack_r3": lambda: stack(
        lambda r: scripted_oracle(42 + r, SEAT12, 3), 3, SEAT12, 3, 16
    ),
}


class TestPlanContentPins:
    """Every sampler, the weave and the replication stacking produce the
    same games as the padded layout they replaced: each digest was
    recorded on the padded ``(P, H)`` plan (read through ``paths_of``, so
    layout-free) and must keep verifying — a change of any path, of the
    game order, of a block offset or of a generator draw shows."""

    PINNED = {
        "random_tournament": "e16b7050ec33a08d",
        "random_longer": "8186c67576d754dc",
        "random_generation": "ac0eff9244b6661d",
        "random_stack_r1": "bd2415ee576d140c",
        "random_stack_r3": "c3f07df671fa2ebd",
        # re-pinned for the static network as the routed oracle at speed 0
        # (routes searched among the participants, cyclic tie order)
        "topology_tournament": "a0c04a174e8731d3",
        "topology_generation": "70adaaa65bf67036",
        "topology_stack_r1": "4ec64b9b88269be9",
        "topology_stack_r3": "91e7625060d3f9de",
        # re-pinned for the canonical (cyclic) neighbour order;
        # the retired hash-order repair still gives 9ee23c96fb474c12 and
        # 106bdff16fab3ac3 (tests/test_mobility_order_tier.py)
        "mobile_generation": "1a4b1f82ff540767",
        "mobile_stack_r3": "55eefd5ea187e2d2",
        "scripted_generation": "e535eec06ac10500",
        "scripted_stack_r3": "d2e10acd50052fec",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_plan_matches_padded_layout(self, case):
        plan, oracles = PLAN_CASES[case]()
        assert plan_digest(plan, oracles) == self.PINNED[case]
