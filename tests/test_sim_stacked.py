"""Cross-replication stacked evaluation (``FusedEngine(n_replications=R)``).

The load-bearing claim — stated in the module docstring and relied on by
``run_experiment``'s auto-dispatch — is **bit-identity**: evaluating R
replications as one stacked mega-slate produces, replication by
replication, exactly the :class:`ReplicationResult` the sequential fused
path produces.  The replications live in block-diagonal reputation blocks,
every conflict walk is scoped per (replication, tournament), and each
replication's rng stream sees precisely the draws it would have seen
alone, so stacking is an execution plan, never a semantics change.  These
tests pin that equality end-to-end (random paths, all environment
classes, mobile topologies), plus the eligibility rules and the engine's
own validation.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import (
    run_replication,
    run_replications_stacked,
    stacked_unsupported_reason,
)
from repro.experiments.runner import run_experiment
from repro.game.stats import TournamentStats
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.sim.fused import FusedEngine
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.runtime import telemetry_session


def digest(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def smoke_config(case: str, seed: int, replications: int = 3) -> ExperimentConfig:
    return ExperimentConfig.for_case(
        case, scale="smoke", engine="fused", seed=seed, replications=replications
    )


class TestBitIdentity:
    """Stacked == sequential, replication by replication."""

    @pytest.mark.parametrize(
        "case,seed",
        [
            ("case1", 1234),  # random paths, one environment
            ("case3", 7),  # every environment class TE1-TE4
        ],
    )
    def test_matches_sequential_fused(self, case, seed):
        config = smoke_config(case, seed)
        stacked = run_replications_stacked(config)
        assert len(stacked) == config.replications
        for r in range(config.replications):
            sequential = run_replication(config, r)
            assert stacked[r].replication == r
            assert digest(stacked[r]) == digest(sequential), f"rep {r}"

    def test_matches_sequential_fused_at_width_8(self):
        # the reputation commit and the conflict walk cost O(touched
        # cells) whatever the stack width; a wide stack is where a leak
        # between replications' blocks or a stale walk entry would show
        config = smoke_config("case3", 7, replications=8)
        stacked = run_replications_stacked(config)
        for r in range(config.replications):
            assert digest(stacked[r]) == digest(run_replication(config, r)), (
                f"rep {r}"
            )

    def test_matches_sequential_on_mobile_topology(self):
        # per-replication oracles replay the same mobility epochs and route
        # recomputations they would have seen alone
        config = smoke_config("mobile_gauss", seed=7, replications=2)
        stacked = run_replications_stacked(config)
        for r in range(2):
            assert digest(stacked[r]) == digest(run_replication(config, r))

    def test_telemetry_counters_attribute_the_stacking(self):
        # config-driven telemetry is ineligible (per-replication sessions),
        # but an *ambient* session — the profiler's mode — must see the
        # stacked engine's attribution counters
        config = smoke_config("case1", 1234, replications=2)
        with telemetry_session(TelemetryConfig(enabled=True)) as tel:
            run_replications_stacked(config)
            snap = tel.registry.snapshot()
        counters = snap["counters"]
        # one per replication per environment pass (case1 has one
        # environment), so totals line up with what R sequential fused runs
        # would have recorded
        assert counters["engine.fused.env_passes"] == 2 * config.generations
        assert "engine.fused.generations" not in counters
        assert "engine.fused.stacked_replications" not in counters
        assert snap["timers"]["kernel.decision_s"]["count"] > 0

    def test_env_passes_count_every_environment_of_case3(self):
        config = smoke_config("case3", 7, replications=2)
        with telemetry_session(TelemetryConfig(enabled=True)) as tel:
            run_replications_stacked(config)
            counters = tel.registry.snapshot()["counters"]
        assert len(config.case.environments) == 4
        assert counters["engine.fused.env_passes"] == (
            4 * config.generations * config.replications
        )


class TestEligibility:
    def test_eligible_config_has_no_reason(self):
        assert stacked_unsupported_reason(smoke_config("case1", 1)) is None

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda c: c.with_(engine="batch"), "does not fuse"),
            (lambda c: c.with_(engine="turbo"), "does not fuse"),
            (lambda c: c.with_(replications=1), "at least 2 replications"),
            (
                lambda c: c.with_(telemetry=TelemetryConfig(enabled=True)),
                "telemetry",
            ),
        ],
    )
    def test_config_reasons(self, mutate, fragment):
        config = mutate(smoke_config("case1", 1))
        reason = stacked_unsupported_reason(config)
        assert reason is not None and fragment in reason

    def test_exchange_is_ineligible(self):
        config = ExperimentConfig.for_case(
            "exchange_core", scale="smoke", engine="fused", seed=1
        ).with_(replications=2)
        reason = stacked_unsupported_reason(config)
        assert reason is not None and "exchange" in reason

    def test_execution_option_reasons(self):
        config = smoke_config("case1", 1)
        assert "shard" in stacked_unsupported_reason(config, shards=4)
        assert "checkpoint" in stacked_unsupported_reason(
            config, checkpoint_dir="ckpt"
        )
        assert "processes" in stacked_unsupported_reason(config, processes=8)

    def test_run_replications_stacked_raises_when_ineligible(self):
        with pytest.raises(ValueError, match="at least 2"):
            run_replications_stacked(smoke_config("case1", 1, replications=1))


class TestRunnerDispatch:
    def test_auto_stacks_when_eligible(self, monkeypatch):
        import repro.experiments.runner as runner_mod

        calls = []
        real = runner_mod.run_replications_stacked

        def spy(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(runner_mod, "run_replications_stacked", spy)
        config = smoke_config("case1", 1234, replications=2)
        result = run_experiment(config, processes=1)
        assert len(calls) == 1
        assert len(result.replications) == 2

    def test_auto_falls_back_without_serial_processes(self, monkeypatch):
        import repro.experiments.runner as runner_mod

        def boom(config):  # pragma: no cover - must not be reached
            raise AssertionError("stacked path taken")

        monkeypatch.setattr(runner_mod, "run_replications_stacked", boom)
        config = smoke_config("case1", 1234, replications=2)
        run_experiment(config, processes=1, stacked=False)
        run_experiment(config)  # processes=None -> parallel per-rep path

    def test_explicit_request_raises_when_ineligible(self):
        config = smoke_config("case1", 1234, replications=2)
        with pytest.raises(ValueError, match="stacked evaluation unavailable"):
            run_experiment(config, stacked=True, shards=4)
        with pytest.raises(ValueError, match="stacked evaluation unavailable"):
            run_experiment(config.with_(engine="batch"), stacked=True)

    def test_all_three_routes_agree(self):
        config = smoke_config("case1", 99, replications=2)
        auto = run_experiment(config, processes=1)
        forced = run_experiment(config, stacked=True)
        sequential = run_experiment(config, processes=1, stacked=False)
        for a, b, c in zip(
            auto.replications, forced.replications, sequential.replications
        ):
            assert digest(a) == digest(b) == digest(c)


class TestEngineValidation:
    def _engine(self, n_replications=2, n_population=10, max_selfish=2):
        return FusedEngine(n_population, max_selfish, n_replications=n_replications)

    def test_needs_at_least_one_replication(self):
        with pytest.raises(ValueError, match="n_replications must be >= 1"):
            self._engine(n_replications=0)

    def test_strategy_tensor_shape_checked(self):
        engine = self._engine()
        with pytest.raises(ValueError, match="strategy tensor"):
            engine.set_strategies_tensor(np.zeros((3, 10, 13), dtype=np.int8))
        with pytest.raises(ValueError, match="strategy tensor"):
            engine.set_strategies_tensor(np.zeros((2, 9, 13), dtype=np.int8))

    def test_strategy_tensor_bits_checked(self):
        engine = self._engine()
        bad = np.zeros((2, 10, 13), dtype=np.int8)
        bad[0, 0, 0] = 2
        with pytest.raises(ValueError, match="0/1"):
            engine.set_strategies_tensor(bad)

    def test_fitness_tensor_shape(self):
        engine = self._engine()
        engine.set_strategies_tensor(np.zeros((2, 10, 13), dtype=np.int8))
        engine.reset_generation()
        fitness = engine.fitness_tensor()
        assert fitness.shape == (2, 10)
        np.testing.assert_array_equal(fitness, 0.0)

    def test_single_replication_tensor_row_is_fitness(self):
        # R = 1 is the plain fused engine: its one tensor row is fitness()
        from repro.core.strategy import Strategy

        rng = np.random.default_rng(3)
        engine = self._engine(n_replications=1)
        engine.set_strategies([Strategy.random(rng) for _ in range(10)])
        seatings = [
            [int(v) for v in rng.permutation(10)] + [10, 11] for _ in range(3)
        ]
        oracle = RandomPathOracle(np.random.default_rng(5), SHORTER_PATHS)
        engine.reset_generation()
        engine.run_generation(seatings, 6, oracle, TournamentStats())
        fitness = engine.fitness()
        assert fitness.any()
        np.testing.assert_array_equal(engine.fitness_tensor()[0], fitness)
