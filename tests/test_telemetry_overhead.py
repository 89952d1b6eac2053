"""The zero-overhead-when-disabled contract, enforced.

Instrumented code may touch the telemetry runtime O(1) times per
*tournament seam* (one ``get_telemetry()`` + one ``enabled`` read), never
per round or per game, and a disabled run must allocate nothing from the
telemetry package.  These tests install a counting recorder as the
process-global singleton and run real engines against it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.strategy import Strategy
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication
from repro.game.stats import TournamentStats
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.sim import ENGINES, make_engine
from repro.telemetry.runtime import _NULL_SPAN, get_telemetry

N_NORMAL, N_CSN = 10, 2


class CountingRecorder:
    """A disabled-recorder stand-in that counts every runtime touch."""

    def __init__(self) -> None:
        self.enabled_reads = 0
        self.recording_calls = 0

    @property
    def enabled(self) -> bool:
        self.enabled_reads += 1
        return False

    def span(self, name):
        self.recording_calls += 1
        return _NULL_SPAN

    def count(self, name, n=1):
        self.recording_calls += 1

    def set_gauge(self, name, value):
        self.recording_calls += 1

    def observe(self, name, value, n=1):
        self.recording_calls += 1

    def timer_add(self, name, seconds):
        self.recording_calls += 1

    def event(self, name, **fields):
        self.recording_calls += 1


@pytest.fixture()
def recorder(monkeypatch) -> CountingRecorder:
    from repro.telemetry import runtime

    counting = CountingRecorder()
    monkeypatch.setattr(runtime, "_active", counting)
    return counting


def run_tournament(engine_name: str, rounds: int) -> None:
    rng = np.random.default_rng(0)
    engine = make_engine(engine_name, N_NORMAL, N_CSN)
    engine.set_strategies([Strategy.random(rng) for _ in range(N_NORMAL)])
    participants = list(range(N_NORMAL)) + engine.selfish_ids(N_CSN)
    oracle = RandomPathOracle(np.random.default_rng(1), SHORTER_PATHS)
    if getattr(engine, "supports_generation_fusion", False):
        # a fusing engine's one tournament is a one-seating generation
        engine.run_generation([participants], rounds, oracle, TournamentStats())
    else:
        engine.run_tournament(
            participants, rounds, oracle, TournamentStats(), None, None
        )


class TestSeamIsPerTournament:
    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    def test_touch_count_independent_of_rounds(self, engine_name, recorder):
        run_tournament(engine_name, rounds=4)
        reads_small = recorder.enabled_reads
        run_tournament(engine_name, rounds=24)
        reads_large = recorder.enabled_reads - reads_small
        assert reads_small == reads_large, (
            f"{engine_name}: telemetry touches scale with rounds"
            f" ({reads_small} at 4 rounds vs {reads_large} at 24)"
        )
        # one get_telemetry()/enabled read per tournament seam
        assert reads_small <= 2
        assert recorder.recording_calls == 0

    def test_stacked_pass_touches_are_per_pass(self, recorder):
        """The fused engine's stacked pass (a whole generation of three
        replications) touches the runtime per pass, never per round,
        tournament or game."""

        def run_stack(rounds: int) -> None:
            rng = np.random.default_rng(0)
            engine = make_engine("fused", N_NORMAL, N_CSN, n_replications=3)
            engine.set_strategies([Strategy.random(rng) for _ in range(N_NORMAL)])
            seatings = [
                [list(rng.permutation(N_NORMAL)) + engine.selfish_ids(N_CSN)]
                * 4
                for _ in range(3)
            ]
            oracles = [
                RandomPathOracle(np.random.default_rng(r), SHORTER_PATHS)
                for r in range(3)
            ]
            engine.run_stack(
                seatings, rounds, oracles, [TournamentStats() for _ in range(3)]
            )

        run_stack(rounds=4)
        reads_small = recorder.enabled_reads
        run_stack(rounds=24)
        reads_large = recorder.enabled_reads - reads_small
        assert reads_small == reads_large, (
            f"stacked pass: telemetry touches scale with rounds"
            f" ({reads_small} at 4 rounds vs {reads_large} at 24)"
        )
        # run_stack's seam and run_generation_stacked's
        assert reads_small == 2
        assert recorder.recording_calls == 0

    def test_disabled_replication_touches_scale_with_seams_only(self, recorder):
        """A whole disabled replication touches the runtime per
        generation/tournament/GA-step seam, never per game."""
        config = ExperimentConfig.for_case("case1", scale="smoke")
        run_replication(config, 0)
        seams = 0
        for _ in range(config.generations):
            seams += 1  # evaluate_generation
            seams += len(config.case.environments) * (config.case.max_selfish or 1)
        seams += config.generations  # one GA step (+ final skipped) margin
        games = (
            config.generations * config.sim.rounds * 2
        )  # far below actual game count
        assert recorder.recording_calls == 0
        assert recorder.enabled_reads <= 3 * seams
        assert recorder.enabled_reads < games


class TestNoAllocations:
    def test_disabled_tournament_allocates_nothing_from_telemetry(self):
        assert get_telemetry().enabled is False
        run_tournament("batch", rounds=4)  # warm caches/imports outside the trace
        tracemalloc.start()
        try:
            run_tournament("batch", rounds=12)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        offenders = [
            stat
            for stat in snapshot.statistics("filename")
            if "telemetry" in stat.traceback[0].filename
        ]
        assert offenders == [], (
            "disabled run allocated from the telemetry package: "
            + ", ".join(str(stat) for stat in offenders)
        )

    def test_null_span_is_singleton(self):
        tel = get_telemetry()
        assert tel.span("a") is tel.span("b") is _NULL_SPAN
