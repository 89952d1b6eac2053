"""Resolve a validated scenario payload into a runnable configuration.

:func:`resolve_scenario` is the single translation from the declarative
contract to the experiment core, and it applies overrides in exactly the
order the CLI historically did (generations/replications at construction,
rounds, mobility + speed/pause, route-cache policy, telemetry) so a
scenario file, the equivalent ``run-case`` flags, and a service submission
build the *same* :class:`~repro.experiments.config.ExperimentConfig` —
same ``config_hash``, bit-identical results.  A ``run.stacked: true``
the run cannot honour is refused here, by the reason
:func:`repro.experiments.replication.stacked_unsupported_reason` names, so
every front door rejects it before anything runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

from repro.utils.validation import validate_scenario

__all__ = ["DEFAULT_CHECKPOINT_DIR", "ResolvedScenario", "resolve_scenario"]

#: The checkpoint store of a bare ``resume`` (one without ``checkpoint_dir``).
DEFAULT_CHECKPOINT_DIR = Path("results/checkpoints")


@dataclass(frozen=True)
class ResolvedScenario:
    """A scenario resolved against the experiment core, ready to run.

    ``config`` carries everything that determines results (and therefore
    the ``config_hash``); the remaining fields are execution options from
    the scenario's ``run`` block, which never affect results.
    """

    payload: dict
    config: Any  # ExperimentConfig (typed loosely to keep imports light)
    processes: int | None
    shards: int | None
    checkpoint_dir: Path | None
    resume: bool
    stacked: bool | None = None

    @property
    def name(self) -> str:
        return self.payload["name"]

    @property
    def checkpoint_store(self) -> Path | None:
        """The checkpoint store the run uses: ``run.checkpoint_dir``, else
        :data:`DEFAULT_CHECKPOINT_DIR` under a bare resume, else ``None``."""
        if self.checkpoint_dir is None and self.resume:
            return DEFAULT_CHECKPOINT_DIR
        return self.checkpoint_dir

    @property
    def case(self) -> str:
        return self.payload["case"]

    @property
    def scale(self) -> str:
        return self.payload["scale"]

    def config_hash(self) -> str:
        """The telemetry-excluded content address of this run."""
        from repro.telemetry.manifest import config_hash

        return config_hash(self.config.describe())

    def describe(self) -> dict:
        """The resolved config's JSON summary (what gets hashed)."""
        return self.config.describe()

    def to_payload(self) -> dict:
        """The normalized scenario payload (deep copy, re-serializable)."""
        payload = dict(self.payload)
        payload["overrides"] = dict(self.payload["overrides"])
        payload["run"] = dict(self.payload["run"])
        return payload


def resolve_scenario(payload: Mapping[str, Any]) -> ResolvedScenario:
    """Build the :class:`ResolvedScenario` for a scenario payload.

    Validates the payload first, then checks registry membership (case,
    scale, engine, mobility model, route-cache policy) by construction —
    the underlying config layer raises :class:`ValueError` with the list
    of valid names, so unknown vocabulary fails loudly, not at run time.
    """
    from repro.experiments.config import ExperimentConfig

    payload = validate_scenario(payload)
    overrides = payload["overrides"]
    run = payload["run"]

    config_overrides: dict[str, Any] = {}
    for key in ("seed", "engine", "generations", "replications"):
        if key in overrides:
            config_overrides[key] = overrides[key]
    try:
        config = ExperimentConfig.for_case(
            payload["case"], scale=payload["scale"], **config_overrides
        )
    except KeyError as exc:  # get_case flags unknown names with KeyError
        raise ValueError(exc.args[0]) from None
    if "rounds" in overrides:
        config = config.with_(sim=config.sim.with_(rounds=overrides["rounds"]))
    if "mobility" in overrides:
        from repro.config.presets import mobility_preset

        try:
            mobility = mobility_preset(overrides["mobility"])
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        if "speed" in overrides:
            speed = overrides["speed"]
            mobility = mobility.with_(
                speed_min=0.5 * speed,
                speed_max=1.5 * speed,
                mean_speed=speed,
            )
        if "pause" in overrides:
            mobility = mobility.with_(pause_time=overrides["pause"])
        # keep the case's preset name and the sim config in lockstep so the
        # override also turns mobility *off* for the mobile_* cases
        config = config.with_(
            case=replace(config.case, mobility=overrides["mobility"]),
            sim=config.sim.with_(mobility=mobility),
        )
    config = config.with_route_cache(
        overrides.get("route_cache"), overrides.get("drift_budget")
    )
    if overrides.get("telemetry"):
        from repro.telemetry.config import TelemetryConfig

        config = config.with_(telemetry=TelemetryConfig(enabled=True))

    checkpoint_dir = run.get("checkpoint_dir")
    resolved = ResolvedScenario(
        payload=payload,
        config=config,
        processes=run.get("processes"),
        shards=run.get("shards"),
        checkpoint_dir=Path(checkpoint_dir) if checkpoint_dir is not None else None,
        resume=bool(run.get("resume", False)),
        stacked=run.get("stacked"),
    )
    if resolved.stacked:
        from repro.experiments.replication import stacked_unsupported_reason

        reason = stacked_unsupported_reason(config)
        if reason is not None:
            raise ValueError(
                f"{resolved.name}: 'run.stacked' cannot be honoured: {reason}"
            )
    return resolved
