"""Unit tests for the path oracles (the engines' single randomness source)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.paths.oracle as oracle_module
from repro.paths.distributions import LONGER_PATHS, SHORTER_PATHS
from repro.paths.oracle import (
    GameSetup,
    RandomPathOracle,
    ScriptedPathOracle,
    plan_games,
)


class TestGameSetup:
    def test_valid_setup(self):
        s = GameSetup(source=0, destination=1, paths=((2, 3),))
        assert s.paths == ((2, 3),)

    def test_rejects_empty_paths(self):
        with pytest.raises(ValueError):
            GameSetup(source=0, destination=1, paths=())

    def test_rejects_source_on_path(self):
        with pytest.raises(ValueError):
            GameSetup(source=0, destination=1, paths=((0, 2),))

    def test_rejects_destination_on_path(self):
        with pytest.raises(ValueError):
            GameSetup(source=0, destination=1, paths=((2, 1),))

    def test_rejects_repeated_intermediate(self):
        with pytest.raises(ValueError):
            GameSetup(source=0, destination=1, paths=((2, 2),))

    def test_rejects_self_addressed_game(self):
        """Regression: a buggy oracle emitting source == destination used to
        pass validation and silently corrupt fitness accounting."""
        with pytest.raises(ValueError, match="two distinct endpoints"):
            GameSetup(source=3, destination=3, paths=((2,),))


class TestRandomPathOracle:
    def participants(self):
        return list(range(12))

    def test_destination_and_paths_valid(self, rng):
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        for _ in range(100):
            setup = oracle.draw(3, self.participants())
            assert setup.source == 3
            assert setup.destination != 3
            assert setup.destination in self.participants()
            for path in setup.paths:
                assert 3 not in path
                assert setup.destination not in path

    def test_needs_three_participants(self, rng):
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        with pytest.raises(ValueError):
            oracle.draw(0, [0, 1])

    def test_deterministic_under_seed(self):
        a = RandomPathOracle(np.random.default_rng(3), SHORTER_PATHS)
        b = RandomPathOracle(np.random.default_rng(3), SHORTER_PATHS)
        setups_a = [a.draw(0, self.participants()) for _ in range(20)]
        setups_b = [b.draw(0, self.participants()) for _ in range(20)]
        assert setups_a == setups_b

    def test_destination_roughly_uniform(self, rng):
        oracle = RandomPathOracle(rng, SHORTER_PATHS)
        counts = np.zeros(12)
        for _ in range(4000):
            counts[oracle.draw(0, self.participants()).destination] += 1
        assert counts[0] == 0
        freq = counts[1:] / 4000
        assert np.allclose(freq, 1 / 11, atol=0.02)


class TestScriptedPathOracle:
    def test_replays_in_order(self):
        setups = [
            GameSetup(source=0, destination=1, paths=((2,),)),
            GameSetup(source=1, destination=0, paths=((3,),)),
        ]
        oracle = ScriptedPathOracle(setups)
        assert oracle.remaining == 2
        assert oracle.draw(0, [0, 1, 2, 3]) is setups[0]
        assert oracle.draw(1, [0, 1, 2, 3]) is setups[1]
        assert oracle.remaining == 0

    def test_exhaustion_raises(self):
        oracle = ScriptedPathOracle([])
        with pytest.raises(IndexError):
            oracle.draw(0, [0, 1, 2])

    def test_source_mismatch_detected(self):
        oracle = ScriptedPathOracle(
            [GameSetup(source=0, destination=1, paths=((2,),))]
        )
        with pytest.raises(AssertionError, match="source 0"):
            oracle.draw(5, [0, 1, 2, 5])


def _per_game_plan(oracle, sources, participants):
    """The reference: one draw() per source, as PlannedGame tuples."""
    return [
        (setup.source, setup.destination, [list(p) for p in setup.paths])
        for setup in (oracle.draw(source, participants) for source in sources)
    ]


def _as_lists(plan):
    return [(source, dest, [list(p) for p in paths]) for source, dest, paths in plan]


def _oracle_pair(hop_dist, state):
    """Two oracles whose generators start in the same ``state``."""
    pair = []
    for _ in range(2):
        oracle = RandomPathOracle(np.random.default_rng(), hop_dist)
        oracle.rng.bit_generator.state = state
        pair.append(oracle)
    return pair


_PLANS = {
    "50-seat-100-rounds": (list(range(50)) * 100, list(range(50))),
    "3-games": ([4, 0, 49], list(range(50))),
    # runs of outside and inside sources: the pool size changes mid-plan
    "source-outside": ([99] * 20 + list(range(6)) + [77], list(range(6))),
    # hop draws above the pool clamp k to the pool
    "tiny-pool": ([0, 1, 2, 3] * 25, [0, 1, 2, 3]),
    "pool-of-one": ([0, 1, 2] * 10, [0, 1, 2]),
}


class TestDrawTournament:
    """The batched draw path must be stream-identical to per-game draws."""

    @pytest.mark.parametrize("hop_dist", [SHORTER_PATHS, LONGER_PATHS])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_stream_identical_to_sequential_draws(self, hop_dist, seed):
        participants = list(range(20))
        sources = participants * 3  # three rounds
        batched = RandomPathOracle(np.random.default_rng(seed), hop_dist)
        sequential = RandomPathOracle(np.random.default_rng(seed), hop_dist)
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
            batched.rng.bit_generator.state == sequential.rng.bit_generator.state
        )

    def test_small_tournament_clamps_like_draw(self):
        """Hop draws above the pool size clamp identically in both modes."""
        participants = [0, 1, 2, 3]
        a = RandomPathOracle(np.random.default_rng(3), LONGER_PATHS)
        b = RandomPathOracle(np.random.default_rng(3), LONGER_PATHS)
        plan = a.draw_tournament(participants * 5, participants)
        for game, source in zip(plan, participants * 5):
            setup = b.draw(source, participants)
            assert tuple(tuple(p) for p in game[2]) == setup.paths

    def test_needs_three_participants(self):
        oracle = RandomPathOracle(np.random.default_rng(0), SHORTER_PATHS)
        with pytest.raises(ValueError, match="at least 3 participants"):
            oracle.draw_tournament([0, 1], [0, 1])

    def test_source_outside_participants_matches_draw(self):
        """A non-participant source leaves every participant drawable, just
        like draw(): the pool is sized per source, not per participant
        count."""
        participants = list(range(6))
        a = RandomPathOracle(np.random.default_rng(11), SHORTER_PATHS)
        b = RandomPathOracle(np.random.default_rng(11), SHORTER_PATHS)
        plan = a.draw_tournament([99] * 40, participants)
        destinations = set()
        for game in plan:
            setup = b.draw(99, participants)
            assert game[1] == setup.destination
            assert tuple(tuple(p) for p in game[2]) == setup.paths
            destinations.add(game[1])
        # every participant is reachable as a destination
        assert destinations == set(participants)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    @pytest.mark.parametrize("plan", sorted(_PLANS))
    @pytest.mark.parametrize("entry", ["buffer-empty", "buffer-full", "buffer-spent"])
    @pytest.mark.parametrize(
        "hop_dist", [SHORTER_PATHS, LONGER_PATHS], ids=["shorter", "longer"]
    )
    @pytest.mark.parametrize("seed", [0, 7, 2007])
    def test_plan_and_state_equal_per_game_draws(self, seed, hop_dist, entry, plan):
        """The PCG64 word-stream decoder: every plan, and the whole
        bit-generator state after it, equal per-game draw() calls."""
        rng = np.random.default_rng(seed)
        # 0, 1 or 2 scalar draws leave has_uint32 0, 1, or 0 with a stale
        # uinteger
        for _ in range(["buffer-empty", "buffer-full", "buffer-spent"].index(entry)):
            rng.integers(5)
        sources, participants = _PLANS[plan]
        batched, sequential = _oracle_pair(hop_dist, rng.bit_generator.state)
        got = batched.draw_tournament(sources, participants)
        assert _as_lists(got) == _per_game_plan(sequential, sources, participants)
        assert batched.rng.bit_generator.state == sequential.rng.bit_generator.state

    def test_lemire_rejection_on_the_entry_buffer(self):
        # integers(49) rejects a half below 2**32 mod 49 = 39: a buffered 0
        # is rejected and the draw pulls a fresh word
        state = np.random.default_rng(3).bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        probe = np.random.default_rng()
        probe.bit_generator.state = state
        probe.integers(49)
        assert probe.bit_generator.state["has_uint32"] == 1  # pulled a word

        participants = list(range(50))
        batched, sequential = _oracle_pair(LONGER_PATHS, state)
        sources = participants * 4
        got = batched.draw_tournament(sources, participants)
        assert _as_lists(got) == _per_game_plan(sequential, sources, participants)
        assert batched.rng.bit_generator.state == sequential.rng.bit_generator.state

    def test_lemire_rejection_mid_plan(self):
        # craft the next word: low half 12345 (game 0 accepts it), high
        # half 0, which game 1 takes from the buffer and rejects.  PCG64's
        # output of a state whose halves are h and h ^ w, with the top six
        # bits of h zero, is w; stepping back one draw makes it the next.
        word = 12345
        high = 0x0123456789ABCDEF
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        state["state"]["state"] = (high << 64) | (high ^ word)
        rng.bit_generator.state = state
        rng.bit_generator.advance(-1)
        state = rng.bit_generator.state
        assert rng.bit_generator.random_raw() == word

        participants = list(range(50))
        batched, sequential = _oracle_pair(SHORTER_PATHS, state)
        sources = participants * 3
        got = batched.draw_tournament(sources, participants)
        assert _as_lists(got) == _per_game_plan(sequential, sources, participants)
        assert batched.rng.bit_generator.state == sequential.rng.bit_generator.state

    def test_no_sources_draws_nothing(self):
        oracle = RandomPathOracle(np.random.default_rng(4), SHORTER_PATHS)
        state = oracle.rng.bit_generator.state
        assert oracle.draw_tournament([], list(range(10))) == []
        assert plan_games(oracle, [], list(range(10))) == []
        assert oracle.rng.bit_generator.state == state

    @pytest.mark.parametrize("entry", ["buffer-empty", "buffer-full"])
    def test_many_small_windows(self, monkeypatch, entry):
        """Games straddling window ends carry the half-word buffer across
        windows of either parity."""
        monkeypatch.setattr(oracle_module, "_WINDOW_WORDS", 64)
        rng = np.random.default_rng(21)
        if entry == "buffer-full":
            rng.integers(5)
        participants = list(range(50))
        sources = participants * 4
        batched, sequential = _oracle_pair(LONGER_PATHS, rng.bit_generator.state)
        got = batched.draw_tournament(sources, participants)
        assert _as_lists(got) == _per_game_plan(sequential, sources, participants)
        assert batched.rng.bit_generator.state == sequential.rng.bit_generator.state

    def test_other_bit_generators_draw_per_game(self):
        participants = list(range(10))
        sources = participants * 3
        plans, states = [], []
        for batched in (True, False):
            oracle = RandomPathOracle(
                np.random.Generator(np.random.Philox(9)), LONGER_PATHS
            )
            plans.append(
                _as_lists(oracle.draw_tournament(sources, participants))
                if batched
                else _per_game_plan(oracle, sources, participants)
            )
            states.append(oracle.rng.bit_generator.state)
        assert plans[0] == plans[1]
        assert repr(states[0]) == repr(states[1])


class TestPlanGames:
    def test_uses_batched_path_for_random_oracle(self):
        participants = list(range(8))
        a = RandomPathOracle(np.random.default_rng(5), SHORTER_PATHS)
        b = RandomPathOracle(np.random.default_rng(5), SHORTER_PATHS)
        plan = plan_games(a, participants, participants)
        expected = b.draw_tournament(participants, participants)
        assert plan == expected

    def test_falls_back_to_per_game_draws(self):
        setups = [
            GameSetup(source=0, destination=1, paths=((2,), (3,))),
            GameSetup(source=1, destination=2, paths=((0,),)),
        ]
        oracle = ScriptedPathOracle(setups)
        plan = plan_games(oracle, [0, 1], [0, 1, 2, 3])
        assert plan == [(0, 1, ((2,), (3,))), (1, 2, ((0,),))]
        assert oracle.remaining == 0
