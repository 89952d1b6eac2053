"""Reproduction registry: one entry per paper artefact (figure/table).

A :class:`ReproductionSession` owns the expensive per-case experiment runs
and shares them between artefacts (Fig. 4 needs cases 1–4; Tables 5–9 reuse
cases 3–4), optionally persisting raw results as JSON so reports can be
re-rendered without re-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.analysis import reporting
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import run_experiment
from repro.parallel.progress import ProgressPrinter
from repro.sim import DEFAULT_ENGINE
from repro.telemetry.manifest import config_hash, write_run_manifest

__all__ = ["ARTEFACTS", "ArtefactSpec", "ReproductionSession"]


@dataclass(frozen=True)
class ArtefactSpec:
    """One reproducible paper artefact."""

    artefact_id: str
    title: str
    cases: tuple[str, ...]
    render: Callable[["ReproductionSession"], str]

    def __str__(self) -> str:
        return f"{self.artefact_id}: {self.title} (cases: {', '.join(self.cases)})"


class ReproductionSession:
    """Runs and caches the per-case experiments behind all artefacts."""

    def __init__(
        self,
        scale: str = "default",
        seed: int = 2007,
        engine: str = DEFAULT_ENGINE,
        processes: int | None = None,
        cache_dir: str | Path | None = None,
        verbose: bool = False,
        route_cache: str | None = None,
        drift_budget: int | None = None,
        telemetry: bool = False,
        telemetry_dir: str | Path | None = None,
        shards: int | None = None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = True,
    ):
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; available: {sorted(SCALES)}")
        self.scale = scale
        self.seed = seed
        self.engine = engine
        self.processes = processes
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.verbose = verbose
        # mobile-oracle route-cache overrides (None keeps the config default,
        # i.e. the bit-identical exact policy)
        self.route_cache = route_cache
        self.drift_budget = drift_budget
        #: when set, every freshly-run case records metrics and leaves a
        #: schema-validated manifest + JSONL metric dump in telemetry_dir
        self.telemetry = telemetry
        self.telemetry_dir = Path(
            telemetry_dir if telemetry_dir is not None else "results/telemetry"
        )
        #: shard count handed to :func:`run_experiment` (None = one stack
        #: per worker)
        self.shards = shards
        #: checkpoint store root (None disables checkpoint/resume); with
        #: ``resume`` every fresh run continues from intact checkpoints
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.resume = resume
        #: manifest paths written this session, keyed by case name
        self.manifests: dict[str, Path] = {}
        self._results: dict[str, ExperimentResult] = {}

    # -- case execution -------------------------------------------------------

    def config_for(self, case_name: str) -> ExperimentConfig:
        # resolved through the scenario layer, so an artefact case, the
        # equivalent scenario file, and a service submission can never
        # diverge (same overrides order, same config_hash)
        from repro.scenarios import build_scenario_payload, resolve_scenario

        payload = build_scenario_payload(
            case_name,
            self.scale,
            overrides={
                "seed": self.seed,
                "engine": self.engine,
                "route_cache": self.route_cache,
                "drift_budget": self.drift_budget,
                "telemetry": True if self.telemetry else None,
            },
        )
        return resolve_scenario(payload).config

    def cache_path(self, case_name: str) -> Path | None:
        """Where ``result_for`` caches a case's result (``None`` without a
        ``cache_dir``).  The name carries the telemetry-excluded config
        hash, so every setting that changes results (engine, seed, route
        cache, budget, ...) gets its own file."""
        if self.cache_dir is None:
            return None
        digest = config_hash(self.config_for(case_name).describe())[:16]
        return self.cache_dir / f"{case_name}_{self.scale}_{digest}.json"

    def result_for(self, case_name: str) -> ExperimentResult:
        """The experiment result for a case, computed/loaded at most once."""
        if case_name in self._results:
            return self._results[case_name]
        cache = self.cache_path(case_name)
        if cache is not None and cache.exists():
            result = ExperimentResult.load(cache)
        else:
            progress = (
                ProgressPrinter(f"{case_name} [{self.scale}]") if self.verbose else None
            )
            result = run_experiment(
                self.config_for(case_name),
                processes=self.processes,
                progress=progress,
                shards=self.shards,
                checkpoint_dir=self.checkpoint_dir,
                resume=self.resume,
            )
            if cache is not None:
                result.save(cache)
        if result.telemetry is not None:
            self.manifests[case_name] = write_run_manifest(
                self.telemetry_dir,
                f"{case_name}_{self.scale}",
                result.config,
                result.telemetry,
                run_extra={
                    "checkpoint_dir": (
                        str(self.checkpoint_dir)
                        if self.checkpoint_dir is not None
                        else "none"
                    )
                },
            )
        self._results[case_name] = result
        return result

    # -- artefacts -------------------------------------------------------------

    def render(self, artefact_id: str) -> str:
        """Run whatever the artefact needs and return its printable report."""
        spec = ARTEFACTS.get(artefact_id)
        if spec is None:
            raise KeyError(
                f"unknown artefact {artefact_id!r}; available: {sorted(ARTEFACTS)}"
            )
        return spec.render(self)

    def render_all(self) -> dict[str, str]:
        """All artefact reports, in registry order."""
        return {aid: self.render(aid) for aid in ARTEFACTS}


# -- artefact render functions ----------------------------------------------


def _render_fig4(session: ReproductionSession) -> str:
    results = {
        name: session.result_for(name)
        for name in ("case1", "case2", "case3", "case4")
    }
    return reporting.render_fig4(results)


def _render_table5(session: ReproductionSession) -> str:
    return reporting.render_table5(
        session.result_for("case3"), session.result_for("case4")
    )


def _render_table6(session: ReproductionSession) -> str:
    return reporting.render_table6(
        session.result_for("case3"), session.result_for("case4")
    )


def _render_table7(session: ReproductionSession) -> str:
    return reporting.render_table7(
        session.result_for("case3"), session.result_for("case4")
    )


def _render_table8(session: ReproductionSession) -> str:
    return reporting.render_table8_9(
        session.result_for("case3"), "case 3 (short paths) - Table 8"
    )


def _render_table9(session: ReproductionSession) -> str:
    return reporting.render_table8_9(
        session.result_for("case4"), "case 4 (long paths) - Table 9"
    )


def _render_mobility(session: ReproductionSession) -> str:
    results = {
        name: session.result_for(name)
        for name in ("case1", "mobile_waypoint", "mobile_gauss")
    }
    return reporting.render_mobility(results)


def _render_exchange(session: ReproductionSession) -> str:
    results = {
        name: session.result_for(name)
        for name in ("exchange_off", "exchange_core", "exchange_full")
    }
    return reporting.render_exchange(results)


#: Every reproducible artefact, keyed by id.
ARTEFACTS: dict[str, ArtefactSpec] = {
    "fig4": ArtefactSpec(
        "fig4",
        "The evolution of cooperation (all evaluation cases)",
        ("case1", "case2", "case3", "case4"),
        _render_fig4,
    ),
    "table5": ArtefactSpec(
        "table5",
        "Cooperation levels per environment (cases 3-4)",
        ("case3", "case4"),
        _render_table5,
    ),
    "table6": ArtefactSpec(
        "table6",
        "Response to packet forwarding requests (cases 3-4)",
        ("case3", "case4"),
        _render_table6,
    ),
    "table7": ArtefactSpec(
        "table7",
        "Most popular evolved strategies (cases 3-4)",
        ("case3", "case4"),
        _render_table7,
    ),
    "table8": ArtefactSpec(
        "table8",
        "Evolved sub-strategies, case 3 (short paths)",
        ("case3",),
        _render_table8,
    ),
    "table9": ArtefactSpec(
        "table9",
        "Evolved sub-strategies, case 4 (long paths)",
        ("case4",),
        _render_table9,
    ),
    "mobility": ArtefactSpec(
        "mobility",
        "Extension: cooperation under node mobility (waypoint, Gauss-Markov)",
        ("case1", "mobile_waypoint", "mobile_gauss"),
        _render_mobility,
    ),
    "exchange": ArtefactSpec(
        "exchange",
        "Extension: second-hand reputation exchange (off, CORE, CONFIDANT)",
        ("exchange_off", "exchange_core", "exchange_full"),
        _render_exchange,
    ),
}
