"""Reproduction registry: one entry per paper artefact (figure/table).

A :class:`ReproductionSession` owns the expensive per-case experiment runs
and shares them between artefacts (Fig. 4 needs cases 1–4; Tables 5–9 reuse
cases 3–4), optionally persisting raw results as JSON so reports can be
re-rendered without re-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.analysis import reporting
from repro.experiments.config import SCALES, ExperimentConfig
from repro.experiments.results import ExperimentResult
from repro.parallel.progress import ProgressPrinter
from repro.telemetry.manifest import config_hash

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
    """Runs and caches the per-case experiments behind all artefacts.

    Every case is the scenario ``build_scenario_payload(case, scale,
    overrides, run)``: ``overrides`` and ``run`` are the scenario blocks of
    the same names (``None`` values defer to the case defaults), so an
    artefact case, ``repro run-case`` with the same flags and a service
    submission resolve to one config and run through one executor
    (:func:`repro.scenarios.execute_scenario`).  With ``cache_dir`` each
    freshly run case is saved as raw results and later sessions load it
    instead of re-running.  A fresh telemetry-enabled run leaves its
    manifest in ``telemetry_dir``; a cache hit writes none, because
    nothing ran.
    """

    def __init__(
        self,
        scale: str = "default",
        overrides: Mapping[str, Any] | None = None,
        run: Mapping[str, Any] | None = None,
        cache_dir: str | Path | None = None,
        telemetry_dir: str | Path | None = None,
        verbose: bool = False,
    ):
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; available: {sorted(SCALES)}")
        self.scale = scale
        self.overrides = dict(overrides or {})
        self.run = dict(run or {})
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.telemetry_dir = Path(
            telemetry_dir if telemetry_dir is not None else "results/telemetry"
        )
        self.verbose = verbose
        #: manifest paths written this session, keyed by case name
        self.manifests: dict[str, Path] = {}
        self._results: dict[str, ExperimentResult] = {}

    # -- case execution -------------------------------------------------------

    def scenario_for(self, case_name: str):
        """The case's :class:`~repro.scenarios.ResolvedScenario`
        (``ValueError`` for an invalid or unresolvable request)."""
        from repro.scenarios import build_scenario_payload, resolve_scenario

        return resolve_scenario(
            build_scenario_payload(
                case_name, self.scale, overrides=self.overrides, run=self.run
            )
        )

    def config_for(self, case_name: str) -> ExperimentConfig:
        return self.scenario_for(case_name).config

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
        from repro.scenarios import execute_scenario

        if case_name in self._results:
            return self._results[case_name]
        cache = self.cache_path(case_name)
        if cache is not None and cache.exists():
            result = ExperimentResult.load(cache)
        else:
            progress = (
                ProgressPrinter(f"{case_name} [{self.scale}]") if self.verbose else None
            )
            result, manifest = execute_scenario(
                self.scenario_for(case_name),
                progress=progress,
                manifest_dir=self.telemetry_dir,
            )
            if manifest is not None:
                self.manifests[case_name] = manifest
            if cache is not None:
                result.save(cache)
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
