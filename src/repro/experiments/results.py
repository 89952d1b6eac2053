"""Experiment results: aggregation over replications and JSON persistence.

The paper reports every number as the average of 60 independent runs; this
module provides the corresponding aggregations over however many
replications were configured:

* mean cooperation series over generations (Fig. 4 curves),
* final per-environment cooperation and CSN-free path fractions (Table 5),
* pooled forwarding-request fractions (Table 6),
* final populations for the strategy censuses (Tables 7–9).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.experiments.replication import ReplicationResult
from repro.game.stats import RequestCounters, TournamentStats

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """All replications of one experiment plus its config summary."""

    config: dict  # ExperimentConfig.describe() output (JSON-friendly)
    replications: list[ReplicationResult]
    #: experiment-wide aggregated telemetry (``None`` unless the run was
    #: telemetry-enabled): ``{"metrics": <merged registry snapshot>,
    #: "events": [...], "dropped_events": ..., "wall_s": ...,
    #: "stack_width": ..., "stack_reason": ...}``
    telemetry: dict | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.replications:
            raise ValueError("an experiment needs at least one replication")
        lengths = {r.history.n_generations for r in self.replications}
        if len(lengths) != 1:
            raise ValueError(f"replications disagree on generations: {lengths}")

    # -- Fig. 4 ----------------------------------------------------------------

    def cooperation_matrix(self) -> np.ndarray:
        """(replications, generations) cooperation levels."""
        return np.vstack([r.history.cooperation_series() for r in self.replications])

    def mean_cooperation_series(self) -> np.ndarray:
        """Mean cooperation per generation over replications (a Fig. 4 curve)."""
        return self.cooperation_matrix().mean(axis=0)

    def final_cooperation(self) -> tuple[float, float]:
        """(mean, std) of the last generation's cooperation level."""
        finals = self.cooperation_matrix()[:, -1]
        return float(finals.mean()), float(finals.std())

    # -- Table 5 -----------------------------------------------------------------

    def environments(self) -> list[str]:
        return list(self.replications[0].final_per_env)

    def final_env_stats(self, env: str) -> TournamentStats:
        """Final-generation stats for one environment, pooled over replications."""
        pooled = TournamentStats()
        for rep in self.replications:
            pooled.merge(rep.final_per_env[env])
        return pooled

    def per_env_cooperation(self) -> dict[str, float]:
        """Final cooperation level per environment (Table 5, cols 2–3)."""
        return {
            env: self.final_env_stats(env).cooperation_level
            for env in self.environments()
        }

    def per_env_csn_free(self) -> dict[str, float]:
        """Final CSN-free chosen-path fraction per environment (Table 5, cols 4–5)."""
        return {
            env: self.final_env_stats(env).nn_csn_free_fraction
            for env in self.environments()
        }

    # -- Table 6 -----------------------------------------------------------------

    def pooled_requests(self) -> tuple[RequestCounters, RequestCounters]:
        """Final-generation request counters pooled over envs and replications.

        Returns ``(from_normal_nodes, from_csn)``.
        """
        from_nn = RequestCounters()
        from_csn = RequestCounters()
        for rep in self.replications:
            from_nn.merge(rep.final_overall.requests_from_nn)
            from_csn.merge(rep.final_overall.requests_from_csn)
        return from_nn, from_csn

    # -- Tables 7-9 ----------------------------------------------------------------

    def final_populations(self) -> list[list[int]]:
        """The final strategy population of every replication (packed ints)."""
        return [list(r.final_population) for r in self.replications]

    # -- persistence ------------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "config": self.config,
            "replications": [r.to_dict() for r in self.replications],
        }
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        return cls(
            config=data["config"],
            replications=[
                ReplicationResult.from_dict(r) for r in data["replications"]
            ],
            telemetry=data.get("telemetry"),
        )

    def save(self, path: str | Path) -> Path:
        """Write the result as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentResult":
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def merge_runs(cls, results: Iterable["ExperimentResult"]) -> "ExperimentResult":
        """Concatenate replications of several runs of the *same* config."""
        results = list(results)
        if not results:
            raise ValueError("nothing to merge")
        base = results[0].config
        reps: list[ReplicationResult] = []
        for res in results:
            if res.config.get("case") != base.get("case"):
                raise ValueError("cannot merge results from different cases")
            reps.extend(res.replications)
        return cls(config=base, replications=reps)
