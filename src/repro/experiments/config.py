"""Top-level experiment configuration.

An :class:`ExperimentConfig` pins everything a replication needs — the
evaluation case, GA parameters, simulation parameters, engine choice, scale
and master seed — so that a replication is a pure function of
``(config, replication_index)``.

Scale presets
-------------
``paper``    — the paper's full scale (500 generations x 300 rounds x 60
               replications); hours of CPU, provided for completeness.
``default``  — the documented reduced scale used for the shipped
               reproduction (EXPERIMENTS.md): same population and
               environments, fewer generations/rounds/replications.
``smoke``    — seconds-scale sanity runs for tests and CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.config.parameters import GAConfig, SimulationConfig
from repro.config.presets import PAPER_GENERATIONS, PAPER_REPLICATIONS
from repro.experiments.cases import EvaluationCase, get_case
from repro.sim import DEFAULT_ENGINE
from repro.telemetry.config import TelemetryConfig

__all__ = ["ExperimentConfig", "SCALES"]

#: (generations, rounds, replications) per scale preset.
SCALES: dict[str, tuple[int, int, int]] = {
    "paper": (PAPER_GENERATIONS, 300, PAPER_REPLICATIONS),
    "default": (60, 100, 4),
    "smoke": (3, 8, 1),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, self-contained description of one experiment."""

    case: EvaluationCase
    generations: int = 60
    replications: int = 4
    seed: int = 2007  # the paper's publication year, for flavour
    engine: str = DEFAULT_ENGINE
    #: compute-kernel name: "auto" and "numpy" both resolve to the one numpy
    #: kernel (:func:`repro.sim.kernels.resolve_kernel`).  Kept because it
    #: is part of every ``config_hash`` (checkpoint and job addresses).
    kernel: str = "auto"
    ga: GAConfig = field(default_factory=GAConfig)
    sim: SimulationConfig = field(default_factory=SimulationConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def __post_init__(self) -> None:
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        from repro.sim import ENGINES

        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {sorted(ENGINES)}, got {self.engine!r}"
            )
        from repro.sim.kernels import KERNEL_NAMES

        if self.kernel not in KERNEL_NAMES:
            raise ValueError(
                f"kernel must be one of {sorted(KERNEL_NAMES)},"
                f" got {self.kernel!r}"
            )
        if self.sim.path_mode != self.case.path_mode:
            # keep sim in line with the case definition
            object.__setattr__(
                self, "sim", self.sim.with_(path_mode=self.case.path_mode)
            )
        if self.case.mobility != "none" and not self.sim.mobility.enabled:
            # the case names a mobility preset and the sim does not override
            from repro.config.presets import mobility_preset

            object.__setattr__(
                self,
                "sim",
                self.sim.with_(mobility=mobility_preset(self.case.mobility)),
            )
        if self.case.exchange != "none" and not self.sim.exchange.enabled:
            # the case names an exchange preset and the sim does not override
            from repro.config.presets import exchange_preset

            object.__setattr__(
                self,
                "sim",
                self.sim.with_(exchange=exchange_preset(self.case.exchange)),
            )
        for env in self.case.environments:
            if env.n_normal > self.ga.population_size:
                raise ValueError(
                    f"{env.name} needs {env.n_normal} normal players but the"
                    f" population has only {self.ga.population_size}"
                )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def for_case(
        cls,
        case: str | EvaluationCase,
        scale: str = "default",
        **overrides: Any,
    ) -> "ExperimentConfig":
        """Build a config for a paper case at a named scale."""
        if isinstance(case, str):
            case = get_case(case)
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; available: {sorted(SCALES)}")
        generations, rounds, replications = SCALES[scale]
        config = cls(
            case=case,
            generations=overrides.pop("generations", generations),
            replications=overrides.pop("replications", replications),
            sim=overrides.pop(
                "sim", SimulationConfig(rounds=rounds, path_mode=case.path_mode)
            ),
            **overrides,
        )
        return config

    def with_(self, **changes: Any) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def with_route_cache(
        self,
        route_cache: str | None = None,
        drift_budget: int | None = None,
    ) -> "ExperimentConfig":
        """A copy with the mobile oracle's route-cache policy overridden.

        ``None`` keeps the current value; the single place the CLI and the
        reproduction session thread ``--route-cache``/``--drift-budget``
        through, so the two can never diverge.
        """
        overrides: dict[str, Any] = {}
        if route_cache is not None:
            overrides["route_cache"] = route_cache
        if drift_budget is not None:
            overrides["drift_budget"] = drift_budget
        if not overrides:
            return self
        return self.with_(
            sim=self.sim.with_(mobility=self.sim.mobility.with_(**overrides))
        )

    # -- summary ---------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """A JSON-friendly summary stored alongside results."""
        return {
            "case": self.case.name,
            "path_mode": self.case.path_mode,
            "environments": [
                {
                    "name": env.name,
                    "tournament_size": env.tournament_size,
                    "n_selfish": env.n_selfish,
                }
                for env in self.case.environments
            ],
            "generations": self.generations,
            "replications": self.replications,
            "seed": self.seed,
            "engine": self.engine,
            "kernel": self.kernel,
            "ga": self.ga.to_dict(),
            "sim": self.sim.to_dict(),
            "telemetry": self.telemetry.to_dict(),
        }
