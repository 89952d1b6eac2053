"""Unit tests for the experiment runner, including failure injection."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import _task, run_experiment


def smoke(**overrides) -> ExperimentConfig:
    return ExperimentConfig.for_case("case1", scale="smoke", **overrides)


class TestRunExperiment:
    def test_replication_count(self):
        result = run_experiment(smoke(replications=3), processes=1)
        assert len(result.replications) == 3
        assert [r.replication for r in result.replications] == [0, 1, 2]

    def test_config_summary_attached(self):
        result = run_experiment(smoke(), processes=1)
        assert result.config["case"] == "case1"
        assert result.config["engine"] == "batch"

    def test_progress_called_per_replication(self):
        calls = []
        run_experiment(
            smoke(replications=2),
            processes=1,
            progress=lambda d, t: calls.append((d, t)),
        )
        assert calls == [(1, 2), (2, 2)]

    @pytest.mark.parametrize(
        "engine,expected",
        [
            # a stack of one per replication
            ("batch", [(1, 4), (2, 4), (3, 4), (4, 4)]),
            # two stacks of two
            ("fused", [(2, 4), (4, 4)]),
        ],
    )
    def test_sharded_progress_counts_replications(self, engine, expected):
        calls = []
        run_experiment(
            smoke(replications=4, engine=engine),
            processes=1,
            shards=2,
            progress=lambda d, t: calls.append((d, t)),
        )
        assert calls == expected

    def test_task_wrapper_is_picklable(self):
        import pickle

        # a task is one stack: here the stack of replication 0
        blob = pickle.dumps((_task, (smoke(), [0], None, True)))
        fn, args = pickle.loads(blob)
        results, export = fn(args)
        assert [rep.replication for rep in results] == [0]
        assert export is None


class TestFailureInjection:
    def test_invalid_engine_fails_before_running(self):
        with pytest.raises(ValueError):
            smoke(engine="quantum")

    def test_worker_exception_propagates(self, monkeypatch):
        """A crash inside a replication surfaces, never a silent partial result."""
        import repro.experiments.runner as runner_mod

        def explode(args):
            raise RuntimeError("injected replication failure")

        monkeypatch.setattr(runner_mod, "_task", explode)
        with pytest.raises(RuntimeError, match="injected"):
            runner_mod.run_experiment(smoke(replications=2), processes=1)

    def test_population_too_small_for_case(self):
        from repro.config.parameters import GAConfig
        from repro.experiments.cases import get_case

        with pytest.raises(ValueError, match="population"):
            ExperimentConfig(
                case=get_case("case3"),
                ga=GAConfig(population_size=30),  # TE1 needs 50 normals
            )
