"""Mobility scenario configuration.

:class:`MobilityConfig` is the single knob bundle for the mobility subsystem:
which model moves the nodes, how fast, how the unit-disk graph is derived
from positions, and how often the topology advances relative to the game.
It lives here (a dependency-free leaf of :mod:`repro.config`) rather than in
:mod:`repro.mobility` so that embedding it in ``SimulationConfig`` and the
preset tables does not drag the whole simulation stack into the config
import chain; :mod:`repro.mobility` re-exports it as the canonical name.

Speeds and ranges are in unit-square lengths per topology step (one step is
one simulated "tick" of node movement; see ``step_every`` for how ticks map
onto game rounds).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Any

__all__ = ["MobilityConfig", "MOBILITY_MODELS", "ROUTE_CACHE_POLICIES"]

#: Recognised mobility model names ("none" means the paper's random oracle).
MOBILITY_MODELS = ("none", "waypoint", "gauss-markov")

#: Recognised route-cache policy names.  Mirrored (and kept in lockstep by
#: a test) from :data:`repro.network.provider.ROUTE_CACHE_POLICIES` so this
#: module stays a dependency-free leaf of :mod:`repro.config`.
ROUTE_CACHE_POLICIES = ("exact", "approx")

_STEP_MODES = ("round", "tournament")


@dataclass(frozen=True)
class MobilityConfig:
    """Everything about how (and whether) nodes move.

    ``step_every`` controls when the topology advances: ``"round"`` steps it
    once per tournament round (detected by the oracle from the draw count),
    ``"tournament"`` once per tournament (driven by the evaluation loop), and
    an integer ``n`` once every ``n`` oracle draws.
    """

    model: str = "none"
    # RandomWaypoint parameters
    speed_min: float = 0.005
    speed_max: float = 0.02
    pause_time: float = 2.0
    # GaussMarkov parameters
    mean_speed: float = 0.01
    alpha: float = 0.85
    speed_sigma: float = 0.005
    direction_sigma: float = 0.4
    # node churn (0.0 disables; applies on top of either model)
    churn_leave: float = 0.0
    churn_return: float = 0.5
    # unit-disk graph derivation
    radio_range: float = 0.3
    tolerance: float = 0.0
    # oracle parameters
    max_paths: int = 3
    max_hops: int = 10
    step_every: str | int = "round"
    # route-provider cache policy: "exact" serves cached routes only for the
    # epoch they were computed under (bit-identical, the default); "approx"
    # serves them while the topology has drifted at most drift_budget epochs
    # (statistically equivalent, validated like the fused engine)
    route_cache: str = "exact"
    drift_budget: int = 8

    def __post_init__(self) -> None:
        if self.model not in MOBILITY_MODELS:
            raise ValueError(
                f"model must be one of {MOBILITY_MODELS}, got {self.model!r}"
            )
        if not 0.0 <= self.speed_min <= self.speed_max:
            raise ValueError(
                f"need 0 <= speed_min <= speed_max,"
                f" got {self.speed_min}/{self.speed_max}"
            )
        if self.pause_time < 0.0:
            raise ValueError(f"pause_time must be >= 0, got {self.pause_time}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if (
            self.mean_speed < 0.0
            or self.speed_sigma < 0.0
            or self.direction_sigma < 0.0
        ):
            raise ValueError("mean_speed and sigmas must be >= 0")
        for name in ("churn_leave", "churn_return"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 < self.radio_range <= math.sqrt(2.0):
            raise ValueError(
                f"radio_range must be in (0, sqrt(2)], got {self.radio_range}"
            )
        if self.tolerance < 0.0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.max_paths < 1 or self.max_hops < 2:
            raise ValueError("need max_paths >= 1 and max_hops >= 2")
        if isinstance(self.step_every, str):
            if self.step_every not in _STEP_MODES:
                raise ValueError(
                    f"step_every must be an int or one of {_STEP_MODES},"
                    f" got {self.step_every!r}"
                )
        elif self.step_every < 1:
            raise ValueError(f"step_every must be >= 1, got {self.step_every}")
        if self.route_cache not in ROUTE_CACHE_POLICIES:
            raise ValueError(
                f"route_cache must be one of {ROUTE_CACHE_POLICIES},"
                f" got {self.route_cache!r}"
            )
        if self.drift_budget < 0:
            raise ValueError(
                f"drift_budget must be >= 0, got {self.drift_budget}"
            )

    @property
    def enabled(self) -> bool:
        """Whether a mobility model (rather than the random oracle) is active."""
        return self.model != "none"

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MobilityConfig":
        return cls(**data)

    def with_(self, **changes: Any) -> "MobilityConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
