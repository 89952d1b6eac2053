"""Unit tests for the deterministic shard scheduler.

Two load-bearing properties: the plan is a pure function of
``(n_tasks, n_shards)``, and any shard count produces results identical to
the unsharded run (the shard never enters the seed tree).
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import time
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.parallel.shard import Shard, default_processes, plan_shards, sharded_map


def square(x: int) -> int:
    return x * x


def boom(x: int) -> int:
    if x == 2:
        raise RuntimeError("shard 2 exploded")
    return x


def boom_or_mark(args: tuple[str, int]) -> int:
    """Fail instantly on task 0; otherwise sleep briefly and leave a marker."""
    directory, x = args
    if x == 0:
        raise RuntimeError("task 0 exploded")
    time.sleep(0.3)
    Path(directory, f"ran-{x}").touch()
    return x


def sleepy_square(x: int) -> int:
    time.sleep(0.05 * (4 - x))  # later items finish first
    return x * x


def spin(seconds: float) -> float:
    """Burn CPU (not sleep), so the worker's CPU time is measurable."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
    return seconds


def nap(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def die_once_then_square(args: tuple[str, int]) -> int:
    """SIGKILL the worker on item 3's first attempt; succeed on the retry."""
    directory, x = args
    if x == 3:
        marker = Path(directory, "died")
        if not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def slow_first_attempt(args: tuple[str, int]) -> int:
    """Item 0 straggles on its first attempt only, so a speculative
    duplicate (a fresh attempt that sees the marker) finishes instantly."""
    directory, x = args
    if x == 0:
        marker = Path(directory, "attempt0")
        try:
            marker.touch(exist_ok=False)
        except FileExistsError:
            return 100  # the backup: skip the sleep
        time.sleep(8.0)
        return 100
    time.sleep(0.05)
    return x


class TestPlanShards:
    def test_balanced_contiguous(self):
        plan = plan_shards(10, 4)
        assert [s.task_indices for s in plan] == [
            (0, 1, 2),
            (3, 4, 5),
            (6, 7),
            (8, 9),
        ]
        assert [s.index for s in plan] == [0, 1, 2, 3]

    def test_covers_every_task_exactly_once(self):
        for n_tasks in range(0, 13):
            for n_shards in range(1, 9):
                plan = plan_shards(n_tasks, n_shards)
                flat = [i for s in plan for i in s.task_indices]
                assert flat == list(range(n_tasks))

    def test_never_produces_empty_shards(self):
        plan = plan_shards(3, 8)
        assert [s.task_indices for s in plan] == [(0,), (1,), (2,)]
        assert plan_shards(0, 3) == []

    def test_sizes_differ_by_at_most_one(self):
        sizes = [len(s) for s in plan_shards(11, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        assert plan_shards(60, 7) == plan_shards(60, 7)

    def test_shard_dataclass(self):
        shard = Shard(index=1, task_indices=(4, 5))
        assert len(shard) == 2

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(4, 0)


class TestShardedMap:
    def test_empty(self):
        assert sharded_map(square, []) == []

    def test_serial_path(self):
        assert sharded_map(square, [1, 2, 3], processes=1) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        out = sharded_map(square, list(range(12)), processes=2)
        assert out == [x * x for x in range(12)]

    def test_parallel_equals_serial(self):
        items = list(range(12))
        assert sharded_map(square, items, processes=2) == sharded_map(
            square, items, processes=1
        )

    def test_order_preserved_under_out_of_order_completion(self):
        """Items that complete last-to-first still come back in input order."""
        assert sharded_map(sleepy_square, [0, 1, 2, 3], processes=4) == [0, 1, 4, 9]

    def test_exception_propagates(self):
        with pytest.raises(RuntimeError, match="shard 2"):
            sharded_map(boom, [1, 2, 3], processes=2)

    def test_exception_propagates_serial(self):
        with pytest.raises(RuntimeError, match="shard 2"):
            sharded_map(boom, [1, 2, 3], processes=1)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_original_exception_type_and_args_preserved(self, processes):
        with pytest.raises(RuntimeError) as excinfo:
            sharded_map(boom, [1, 2], processes=processes)
        assert excinfo.value.args == ("shard 2 exploded",)

    def test_worker_exception_cancels_outstanding_futures(self, tmp_path):
        """A failing task aborts the run without draining the queue.

        Task 0 fails the moment a worker picks it up; the other tasks sleep
        and then drop a marker file.  Only tasks already in flight when the
        failure is observed may still run (running futures cannot be
        cancelled) — the long tail of queued tasks must never start.
        """
        items = [(str(tmp_path), x) for x in range(12)]
        with pytest.raises(RuntimeError, match="task 0"):
            sharded_map(boom_or_mark, items, processes=2)
        ran = list(tmp_path.glob("ran-*"))
        assert len(ran) < 11  # queue not drained: some futures were cancelled

    def test_default_processes(self):
        assert default_processes(0) == 1
        assert default_processes(1) == 1
        assert default_processes(1000) >= 1

    def test_workers_reaped_before_return(self):
        """No worker outlives the call, so its CPU time is already in the
        parent's RUSAGE_CHILDREN when the call returns."""
        before = set(multiprocessing.active_children())
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = sharded_map(spin, [0.3] * 4, processes=2)
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert out == [0.3] * 4
        assert set(multiprocessing.active_children()) - before == set()
        assert (cpu1.ru_utime + cpu1.ru_stime) - (
            cpu0.ru_utime + cpu0.ru_stime
        ) >= 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sharded_map(square, [1], processes=0)
        with pytest.raises(ValueError):
            sharded_map(square, [1, 2], processes=2, max_redispatch=-1)
        with pytest.raises(ValueError):
            sharded_map(square, [1, 2], processes=2, straggler_factor=1.0)

    def test_progress_callback(self):
        calls = []
        sharded_map(
            square,
            [1, 2, 3, 4],
            processes=2,
            progress=lambda d, t: calls.append((d, t)),
        )
        assert len(calls) == 4
        assert calls[-1] == (4, 4)

    def test_progress_callback_serial(self):
        calls = []
        sharded_map(
            square, [1, 2, 3], processes=1, progress=lambda d, t: calls.append((d, t))
        )
        assert calls == [(1, 3), (2, 3), (3, 3)]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_progress_counts_weights(self, processes):
        calls = []
        sharded_map(
            square,
            [1, 2, 3],
            processes=processes,
            progress=lambda d, t: calls.append((d, t)),
            weights=[2, 1, 3],
        )
        assert len(calls) == 3
        assert all(total == 6 for _, total in calls)
        assert calls[-1] == (6, 6)
        if processes == 1:
            assert calls == [(2, 6), (3, 6), (6, 6)]

    def test_weights_must_match_items(self):
        with pytest.raises(ValueError, match="weights"):
            sharded_map(square, [1, 2], processes=1, weights=[1])

    def test_worker_death_propagates_without_redispatch(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        items = [(str(tmp_path), x) for x in range(6)]
        # speculation off: a straggler duplicate of the dying shard could
        # otherwise rescue the run before the broken pool surfaces
        with pytest.raises(BrokenProcessPool):
            sharded_map(
                die_once_then_square,
                items,
                processes=2,
                max_redispatch=0,
                straggler_factor=None,
            )

    def test_worker_death_redispatch_recovers(self, tmp_path):
        items = [(str(tmp_path), x) for x in range(6)]
        out = sharded_map(
            die_once_then_square, items, processes=2, max_redispatch=1
        )
        assert out == [x * x for x in range(6)]

    def test_straggler_speculation_wins(self, tmp_path):
        items = [(str(tmp_path), x) for x in range(4)]
        start = time.perf_counter()
        out = sharded_map(
            slow_first_attempt, items, processes=2, straggler_factor=2.0
        )
        elapsed = time.perf_counter() - start
        assert out == [100, 1, 2, 3]
        # the 8s first attempt lost to the speculative duplicate
        assert elapsed < 6.0
        assert (tmp_path / "attempt0").exists()

    def test_queued_tasks_are_not_stragglers(self):
        """Eleven equal tasks on two workers: the last one waits in the
        queue for five task durations and then runs while a worker idles,
        which must not count as straggling."""
        from repro.telemetry.config import TelemetryConfig
        from repro.telemetry.runtime import telemetry_session

        with telemetry_session(TelemetryConfig(enabled=True)) as tel:
            out = sharded_map(nap, [0.2] * 11, processes=2)
            counters = tel.snapshot()["counters"]
        assert out == [0.2] * 11
        assert counters["parallel.tasks"] == 11
        assert "parallel.stolen" not in counters

    def test_speculation_disabled(self):
        out = sharded_map(
            square, list(range(6)), processes=2, straggler_factor=None
        )
        assert out == [x * x for x in range(6)]


class TestShardInvariance:
    CONFIG = ExperimentConfig.for_case(
        "case1", scale="smoke", replications=5, generations=3
    )
    #: stacks (pool tasks) at shards=2 or processes=2: a non-fusing engine
    #: runs a stack of one per replication
    SHARD_RUNS = 5

    def test_any_shard_count_matches_unsharded(self):
        base = run_experiment(self.CONFIG, processes=2)
        for shards in (1, 2, 4, 8):
            sharded = run_experiment(self.CONFIG, processes=2, shards=shards)
            assert sharded.to_dict() == base.to_dict(), f"shards={shards}"

    def test_sharded_with_checkpoints_resumes(self, tmp_path):
        control = run_experiment(self.CONFIG, processes=2)
        first = run_experiment(
            self.CONFIG, processes=2, shards=2, checkpoint_dir=tmp_path
        )
        resumed = run_experiment(
            self.CONFIG, processes=2, shards=2, checkpoint_dir=tmp_path
        )
        assert first.replications == control.replications
        assert resumed.replications == control.replications
        for rep in resumed.replications:
            assert rep.checkpoint["resumed_from_generation"] is not None

    def test_shards_validated(self):
        with pytest.raises(ValueError):
            run_experiment(self.CONFIG, shards=0)

    def test_sharded_telemetry_folds_to_same_totals(self):
        from repro.telemetry.config import TelemetryConfig

        cfg = self.CONFIG.with_(telemetry=TelemetryConfig(enabled=True))
        plain = run_experiment(cfg, processes=2)
        sharded = run_experiment(cfg, processes=2, shards=2)
        pc = plain.telemetry["metrics"]["counters"]
        sc = sharded.telemetry["metrics"]["counters"]
        # engine/oracle counters must agree exactly; only the scheduler's own
        # shape (shard.* bookkeeping, pool task count) may differ
        engine_keys = {
            k
            for k in set(pc) | set(sc)
            if not k.startswith(("shard.", "parallel."))
        }
        assert engine_keys, "expected engine-level counters to compare"
        for key in engine_keys:
            assert pc.get(key) == sc.get(key), key
        assert sc["shard.runs"] == self.SHARD_RUNS
        assert sc["shard.replications"] == cfg.replications
        assert pc["shard.runs"] == self.SHARD_RUNS
        assert pc["shard.replications"] == cfg.replications


class TestShardInvarianceFused(TestShardInvariance):
    """The same contract on the fused engine, where each shard runs its
    replications as one stack (unsharded: one stack per worker)."""

    CONFIG = TestShardInvariance.CONFIG.with_(engine="fused")
    SHARD_RUNS = 2
