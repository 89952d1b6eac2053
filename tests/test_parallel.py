"""Unit tests for the parallel execution layer.

The critical property: results are bit-identical whether replications run
serially or across processes, in any completion order.
"""

from __future__ import annotations

import io
import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.parallel.progress import ProgressPrinter
from repro.parallel.shard import sharded_map


def square(x: int) -> int:
    return x * x


class TestProgressPrinter:
    def test_prints_progress(self):
        stream = io.StringIO()
        printer = ProgressPrinter("caseX", stream=stream)
        printer(1, 4)
        printer(2, 4)
        out = stream.getvalue()
        assert "caseX: 1/4" in out
        assert "caseX: 2/4" in out
        assert printer.finish() >= 0.0

    def test_one_line_per_completion_with_elapsed(self):
        stream = io.StringIO()
        printer = ProgressPrinter("sweep", stream=stream)
        for done in range(1, 4):
            printer(done, 3)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert line.startswith("sweep: ")
            assert "replications (" in line and "s elapsed)" in line

    def test_finish_monotonic(self):
        printer = ProgressPrinter("x", stream=io.StringIO())
        first = printer.finish()
        time.sleep(0.01)
        assert printer.finish() >= first

    def test_usable_as_sharded_map_progress(self):
        stream = io.StringIO()
        printer = ProgressPrinter("map", stream=stream)
        sharded_map(square, [1, 2], processes=1, progress=printer)
        out = stream.getvalue()
        assert "map: 1/2" in out
        assert "map: 2/2" in out


class TestExperimentDeterminismAcrossWorkers:
    def test_worker_count_does_not_change_results(self):
        """replication i derives its stream from (seed, i), so 1 vs 2 workers
        must give identical aggregates."""
        cfg = ExperimentConfig.for_case("case1", scale="smoke", replications=2)
        serial = run_experiment(cfg, processes=1)
        parallel = run_experiment(cfg, processes=2)
        assert serial.to_dict() == parallel.to_dict()
