"""Minimal progress reporting for long experiment sweeps."""

from __future__ import annotations

import sys
import time
from typing import TextIO

__all__ = ["ProgressPrinter"]


class ProgressPrinter:
    """Prints ``label: done/total (elapsed)`` lines as tasks complete.

    Usable directly as the ``progress`` callback of
    :func:`repro.parallel.shard.sharded_map` and of
    :func:`repro.experiments.runner.run_experiment`, which counts finished
    replications.
    """

    def __init__(self, label: str, stream: TextIO | None = None):
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self._start = time.monotonic()

    def __call__(self, done: int, total: int) -> None:
        elapsed = time.monotonic() - self._start
        self.stream.write(
            f"{self.label}: {done}/{total} replications ({elapsed:.1f}s elapsed)\n"
        )
        self.stream.flush()

    def finish(self) -> float:
        """Return total elapsed seconds (for logging)."""
        return time.monotonic() - self._start
