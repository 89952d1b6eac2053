"""Cross-replication stacked evaluation (``FusedEngine(n_replications=R)``).

The load-bearing claim — stated in the module docstring and relied on by
``run_experiment``'s dispatch — is **bit-identity**: evaluating R
replications as one stack of R members produces, replication by
replication, exactly the :class:`ReplicationResult` a stack of one produces.
The replications live in block-diagonal reputation blocks, every conflict
walk is scoped per (replication, tournament), and each replication's rng
stream sees precisely the draws it would have seen alone, so stacking is an
execution plan, never a semantics change.  These tests pin that equality
end-to-end (random paths, all environment classes, mobile topologies), the
eligibility rules, the dispatch (which telemetry does not change) and the
engine's own validation.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import (
    run_replication,
    run_stack,
    stacked_unsupported_reason,
)
from repro.experiments.runner import plan_stacks, run_experiment
from repro.parallel.shard import default_processes, plan_shards
from repro.game.stats import TournamentStats
from repro.paths.distributions import SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.reputation.exchange import ExchangeConfig
from repro.sim.fused import FusedEngine
from repro.telemetry import write_run_manifest
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.runtime import telemetry_session


def digest(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def smoke_config(case: str, seed: int, replications: int = 3) -> ExperimentConfig:
    return ExperimentConfig.for_case(
        case, scale="smoke", engine="fused", seed=seed, replications=replications
    )


def run_stacked(config: ExperimentConfig):
    results, _export = run_stack(config, range(config.replications))
    return results


@pytest.fixture
def stack_widths(monkeypatch):
    """The width of every stack the runner runs (in-process runs only)."""
    import repro.experiments.runner as runner_mod

    widths = []
    real = runner_mod.run_stack

    def spy(config, replications, **kwargs):
        widths.append(len(replications))
        return real(config, replications, **kwargs)

    monkeypatch.setattr(runner_mod, "run_stack", spy)
    return widths


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
        stacked = run_stacked(config)
        assert len(stacked) == config.replications
        for r in range(config.replications):
            sequential = run_replication(config, r)
            assert stacked[r].replication == r
            assert digest(stacked[r]) == digest(sequential), f"rep {r}"

    @pytest.mark.parametrize("case", ["exchange_core", "exchange_full"])
    def test_exchange_matches_sequential_fused(self, case):
        # each member gossips on its own generator and block after the
        # same rounds it would alone
        config = smoke_config(case, 7)
        assert config.sim.exchange.enabled
        stacked = run_stacked(config)
        for r in range(config.replications):
            assert digest(stacked[r]) == digest(run_replication(config, r)), (
                f"rep {r}"
            )

    def test_matches_sequential_fused_at_width_8(self):
        # the reputation commit and the conflict walk cost O(touched
        # cells) whatever the stack width; a wide stack is where a leak
        # between replications' blocks or a stale walk entry would show
        config = smoke_config("case3", 7, replications=8)
        stacked = run_stacked(config)
        for r in range(config.replications):
            assert digest(stacked[r]) == digest(run_replication(config, r)), (
                f"rep {r}"
            )

    def test_paper_geometry_pin(self):
        # the paper's Table 5 workload at full scale (100 rounds, four
        # environments, CSN seats) on a 4-wide stack, one generation: the
        # digests were recorded on the padded plan layout, so any drift of
        # a trajectory through the ragged plan, context, kernels or fold
        # shows here
        config = ExperimentConfig.for_case(
            "case3", scale="default", engine="fused", seed=2007,
            replications=4, generations=1,
        )
        stacked = run_stacked(config)
        assert [digest(r) for r in stacked] == [
            "145f67ebc042c8e2",
            "1189cc6f5325e294",
            "6abb8f6292cbeedc",
            "eb7992926a61c692",
        ]

    def test_matches_sequential_on_mobile_topology(self):
        # per-replication oracles replay the same mobility epochs and route
        # recomputations they would have seen alone
        config = smoke_config("mobile_gauss", seed=7, replications=2)
        stacked = run_stacked(config)
        for r in range(2):
            assert digest(stacked[r]) == digest(run_replication(config, r))

    def test_telemetry_counters_attribute_the_stacking(self):
        # an *ambient* session — the profiler's mode — sees the stacked
        # engine's attribution counters
        config = smoke_config("case1", 1234, replications=2)
        with telemetry_session(TelemetryConfig(enabled=True)) as tel:
            run_stacked(config)
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
            run_stacked(config)
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
            (lambda c: c.with_(engine="reference"), "does not fuse"),
        ],
    )
    def test_config_reasons(self, mutate, fragment):
        config = mutate(smoke_config("case1", 1))
        reason = stacked_unsupported_reason(config)
        assert reason is not None and fragment in reason

    def test_exchange_is_eligible(self):
        # the gossip step is part of the stacked round pass
        config = ExperimentConfig.for_case(
            "exchange_core", scale="smoke", engine="fused", seed=1
        ).with_(replications=2)
        assert config.sim.exchange.enabled
        assert stacked_unsupported_reason(config) is None

    def test_execution_option_reasons(self):
        # the reason reads the config only: no execution option (a
        # checkpoint store included) can be passed, let alone refuse
        config = smoke_config("case1", 1)
        with pytest.raises(TypeError):
            stacked_unsupported_reason(config, checkpoint_dir="ckpt")
        # a stack is one pool task, whatever the pool or shard count, and
        # telemetry and a single replication are no reason either
        traced = config.with_(telemetry=TelemetryConfig(enabled=True))
        assert stacked_unsupported_reason(traced) is None
        assert stacked_unsupported_reason(config.with_(replications=1)) is None

    def test_run_stack_raises_when_ineligible(self, tmp_path):
        batch = smoke_config("case1", 1).with_(engine="batch")
        with pytest.raises(ValueError, match="does not fuse"):
            run_stack(batch, [0, 1])
        run_stack(batch, [1])  # a stack of one runs on any engine
        # a checkpointing stack runs, and checkpoints change no result
        config = smoke_config("case1", 1)
        checkpointed, _ = run_stack(config, [0, 1], checkpoint_dir=tmp_path)
        assert checkpointed == run_stack(config, [0, 1])[0]
        assert [r.checkpoint["checkpoints_written"] for r in checkpointed] == [
            config.generations
        ] * 2


class TestRunnerDispatch:
    def test_auto_stacks_when_eligible(self, stack_widths):
        config = smoke_config("case1", 1234, replications=2)
        result = run_experiment(config, processes=1)
        assert stack_widths == [2]
        assert len(result.replications) == 2

    def test_auto_falls_back_without_serial_processes(self, stack_widths):
        config = smoke_config("case1", 1234, replications=2)
        run_experiment(config, processes=1, stacked=False)
        assert stack_widths == [1, 1]
        # processes=None -> the default pool, one stack per worker
        stacks, reason = plan_stacks(config.with_(replications=5))
        workers = default_processes(5)
        assert stacks == [list(s.task_indices) for s in plan_shards(5, workers)]
        assert max(len(stack) for stack in stacks) == -(-5 // workers)
        assert reason == "none"

    def test_explicit_request_raises_when_ineligible(self, tmp_path):
        config = smoke_config("case1", 1234, replications=2)
        # a worker pool is no reason: each worker runs one stack
        assert len(run_experiment(config, stacked=True, processes=2).replications) == 2
        with pytest.raises(ValueError, match="stacked evaluation unavailable"):
            run_experiment(config.with_(engine="batch"), stacked=True)
        # a checkpoint store is no reason either
        checkpointed = run_experiment(
            config, stacked=True, processes=1, checkpoint_dir=tmp_path
        )
        assert checkpointed.replications == run_experiment(
            config, processes=1, stacked=False
        ).replications

    def test_checkpointed_run_stacks(self, stack_widths, tmp_path):
        # checkpoints never change the cut: one stack of three, and a rerun
        # reconstitutes every member from its final checkpoint
        config = smoke_config("case1", 1234, replications=3)
        first = run_experiment(config, processes=1, checkpoint_dir=tmp_path)
        again = run_experiment(config, processes=1, checkpoint_dir=tmp_path)
        assert stack_widths == [3, 3]
        assert again.replications == first.replications
        assert [
            rep.checkpoint["resumed_from_generation"] for rep in again.replications
        ] == [config.generations - 1] * 3

    def test_pool_stacks_per_worker(self):
        config = smoke_config("case3", 7, replications=4).with_(
            telemetry=TelemetryConfig(enabled=True)
        )
        pooled = run_experiment(config, processes=2)
        assert pooled.telemetry["stack_width"] == 2
        assert pooled.telemetry["stack_reason"] == "none"
        sequential = run_experiment(config, processes=2, stacked=False)
        assert sequential.telemetry["stack_width"] == 1
        for a, b in zip(pooled.replications, sequential.replications, strict=True):
            assert digest(a) == digest(b)

    def test_all_three_routes_agree(self):
        config = smoke_config("case1", 99, replications=2)
        auto = run_experiment(config, processes=1)
        forced = run_experiment(config, stacked=True)
        sequential = run_experiment(config, processes=1, stacked=False)
        for a, b, c in zip(
            auto.replications, forced.replications, sequential.replications
        ):
            assert digest(a) == digest(b) == digest(c)

    def test_shards_run_as_stacks(self):
        stacks, reason = plan_stacks(smoke_config("case1", 1, 5), shards=2)
        assert stacks == [[0, 1, 2], [3, 4]] and reason == "none"
        # a non-fusing engine runs a stack of one per replication
        stacks, reason = plan_stacks(
            smoke_config("case1", 1, 5).with_(engine="batch"), shards=2
        )
        assert stacks == [[0], [1], [2], [3], [4]]
        assert "does not fuse" in reason


class TestTelemetryOnStack:
    """Turning telemetry on changes neither the dispatch nor the results."""

    CONFIG = smoke_config("case3", 7, replications=3)
    TRACED = CONFIG.with_(telemetry=TelemetryConfig(enabled=True))

    def test_same_stack_width_and_results(self, stack_widths):
        plain = run_experiment(self.CONFIG, processes=1)
        traced = run_experiment(self.TRACED, processes=1)
        assert stack_widths == [3, 3]
        assert traced.replications == plain.replications
        assert traced.telemetry["stack_width"] == 3
        assert traced.telemetry["stack_reason"] == "none"

    def test_games_reconcile_with_engine_counters(self):
        result = run_experiment(self.TRACED, processes=1)
        counters = result.telemetry["metrics"]["counters"]
        assert counters["evaluation.games"] > 0
        assert counters["evaluation.games"] == counters["engine.games"]
        assert counters["evaluation.games"] == counters["engine.fused.games"]
        assert counters["evaluation.generations"] == (
            self.CONFIG.generations * self.CONFIG.replications
        )
        assert counters["ga.generations"] == (
            (self.CONFIG.generations - 1) * self.CONFIG.replications
        )

    def test_manifest_records_the_dispatch(self, tmp_path):
        result = run_experiment(self.TRACED, processes=1)
        path = write_run_manifest(tmp_path, "stacked", result.config, result.telemetry)
        run = json.loads(path.read_text())["run"]
        assert run["stack_width"] == 3
        assert run["stack_reason"] == "none"


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


class TestBlockState:
    """Replication ``r`` only ever touches its own diagonal block, so the
    reputation pair is stored as ``(R, block, block)``: the engine's state
    grows with ``R``, not ``R^2``."""

    STATE = (
        "ps", "pf", "known", "pf_sum", "send_pay", "n_sent",
        "fwd_pay_acc", "n_fwd", "disc_pay_acc", "n_disc",
    )

    @classmethod
    def state_bytes(cls, engine) -> int:
        return sum(getattr(engine, name).nbytes for name in cls.STATE)

    def test_state_bytes_linear_in_replications(self):
        one = FusedEngine(100, 30)
        eight = FusedEngine(100, 30, n_replications=8)
        assert eight.ps.shape == eight.pf.shape == (8, 130, 130)
        assert self.state_bytes(eight) == 8 * self.state_bytes(one)
        eight.reset_generation()
        assert self.state_bytes(eight) == 8 * self.state_bytes(one)

    def test_payoff_matrix_is_block_diagonal(self):
        self.check_block_diagonal(None)

    def test_payoff_matrix_stays_block_diagonal_after_gossip(self):
        self.check_block_diagonal(
            ExchangeConfig(enabled=True, interval=2, fanout=3, positive_only=False)
        )

    @staticmethod
    def check_block_diagonal(exchange):
        n_rep, n_pop = 3, 10
        rng = np.random.default_rng(4)
        engine = FusedEngine(n_pop, 2, n_replications=n_rep)
        engine.set_strategies_tensor(rng.integers(0, 2, size=(n_rep, n_pop, 13)))
        seatings = [
            [[int(v) for v in rng.permutation(n_pop)] + [10, 11] for _ in range(2)]
            for _ in range(n_rep)
        ]
        oracles = [
            RandomPathOracle(np.random.default_rng(5 + r), SHORTER_PATHS)
            for r in range(n_rep)
        ]
        engine.reset_generation()
        engine.run_stack(
            seatings,
            6,
            oracles,
            [TournamentStats() for _ in range(n_rep)],
            exchange,
            [oracle.rng for oracle in oracles],
        )
        matrix = engine.payoff_matrix()
        block = engine.block
        assert matrix.shape == (n_rep * block, n_rep * block, 2)
        for r in range(n_rep):
            rows = slice(r * block, (r + 1) * block)
            for c in range(n_rep):
                cols = slice(c * block, (c + 1) * block)
                if r != c:
                    assert not matrix[rows, cols].any()
                    continue
                assert engine.ps[r].any()
                np.testing.assert_array_equal(matrix[rows, cols, 0], engine.ps[r])
                np.testing.assert_array_equal(matrix[rows, cols, 1], engine.pf[r])

    def test_seat_count_must_fit_the_walk_buffer(self):
        # the conflict walk stores seat positions as int16
        from repro.sim.fused import _PlanContext

        with pytest.raises(ValueError, match="int16"):
            _PlanContext(None, np.zeros(4, dtype=bool), 1, 1, 40_000, 4)
