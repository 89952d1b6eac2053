"""Path oracle over a :class:`DynamicTopology` — a thin draw layer.

:class:`MobilePathOracle` keeps the :class:`repro.paths.oracle.PathOracle`
contract, so every simulation engine runs on a routed network unmodified:
a moving one, or a static one (a waypoint model at speed 0, whose epoch
never moves).  It is a *composition* of the three oracle layers:

* the **topology** is the :class:`DynamicTopology` (epoch-versioned
  adjacency, stepped by the oracle's clock);
* the **route provider** is a :class:`repro.network.provider.RouteProvider`
  computing routes on the subgraph induced by the current participants,
  cached per (source, destination) pair under a pluggable cache policy —
  ``exact`` (serve a cached route only for the epoch it was computed under;
  bit-identical to the historical behavior and the default) or ``approx``
  (serve cached routes while the topology has drifted at most
  ``drift_budget`` epochs, revalidating lazily; statistically equivalent,
  gated by ``tests/test_engine_statistical.py``);
* the **draw planner** is :mod:`repro.paths.planner` (sequential and
  batched rejection-sampling destination draws).  Every engine draws
  through it: the fused engine packs this oracle's
  :meth:`~MobilePathOracle.draw_tournament` plans into arrays and has no
  sampler of its own, so the topology clock below is read and written
  only here.

Topology stepping is clocked in one of three ways (``step_every``):

* ``"round"``  — once per tournament round, detected from the draw count
  (each participant draws exactly once per round, and both engines call
  ``draw`` in the same order, so the step schedule is engine-independent);
* ``"tournament"`` — once per tournament, via the ``on_tournament_end`` hook
  called after each tournament by
  :func:`repro.tournament.evaluation.evaluate_stack` (or, on the fused
  engine, after each tournament's plan by ``FusedEngine.run_stack``);
* an integer ``n`` — once every ``n`` draws.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

import numpy as np

from repro.mobility.dynamic import DynamicTopology
from repro.network.provider import CachePolicy, RouteProvider, make_cache_policy
from repro.paths.oracle import GameSetup, PlannedGame
from repro.paths.planner import draw_setup, plan_round

__all__ = ["MobilePathOracle"]


class MobilePathOracle:
    """Path oracle backed by a time-varying :class:`DynamicTopology`."""

    def __init__(
        self,
        topology: DynamicTopology,
        rng: np.random.Generator,
        max_paths: int = 3,
        max_hops: int = 10,
        max_draws: int = 64,
        step_every: str | int = "round",
        route_cache: str | CachePolicy = "exact",
        drift_budget: int = 8,
    ):
        if isinstance(step_every, str):
            if step_every not in ("round", "tournament"):
                raise ValueError(
                    f"step_every must be an int, 'round' or 'tournament',"
                    f" got {step_every!r}"
                )
        elif step_every < 1:
            raise ValueError(f"step_every must be >= 1, got {step_every}")
        self.topology = topology
        self.rng = rng
        self.max_paths = max_paths
        self.max_hops = max_hops
        self.max_draws = max_draws
        self.step_every = step_every
        policy = (
            route_cache
            if isinstance(route_cache, CachePolicy)
            else make_cache_policy(route_cache, drift_budget)
        )
        self.provider = RouteProvider(topology, max_paths, max_hops, policy)
        self._draws_since_step = 0
        #: cumulative wall seconds inside ``topology.step()`` — the
        #: "topology step" row of the per-layer profile breakdown
        self.step_s = 0.0

    # -- PathOracle contract ---------------------------------------------------

    def draw(self, source: int, participants: Sequence[int]) -> GameSetup:
        others = [p for p in participants if p != source]
        if not others:
            raise ValueError("need at least one potential destination")
        threshold = (
            len(participants) if self.step_every == "round" else self.step_every
        )
        if isinstance(threshold, int) and self._draws_since_step >= threshold:
            self._step_topology()
        self._draws_since_step += 1
        provider = self.provider
        provider.rescope(participants)
        provider.sync()
        destination, paths = draw_setup(
            self.rng, source, others, provider.routes, self.max_draws, provider.rescue
        )
        return GameSetup(
            source=source, destination=destination, paths=tuple(paths)
        )

    # -- batched drawing (struct-of-arrays engines) ----------------------------

    def draw_tournament(
        self, sources: Sequence[int], participants: Sequence[int]
    ) -> list[PlannedGame]:
        """Draw a whole round's (or tournament's) games in one batch.

        **Stream-identical** to calling :meth:`draw` once per source: the
        per-draw sequence — destination ``integers`` draws, rejection
        redraws, and crucially the draw-count-clocked ``topology.step()``
        calls (which may consume the same generator) — is replicated
        exactly (the planner's ``tick`` hook fires at the same draw counts),
        so pre-drawing moves only the timing of the draws, never their
        values or the topology's trajectory.
        """
        # hoisted per-draw invariants: participants cannot change while this
        # call runs, so one rescope serves the whole plan and the step
        # threshold is constant
        threshold = (
            len(participants) if self.step_every == "round" else self.step_every
        )
        clocked = isinstance(threshold, int)
        provider = self.provider
        provider.rescope(participants)
        provider.sync()

        def tick() -> None:
            if clocked and self._draws_since_step >= threshold:
                self._step_topology()
            self._draws_since_step += 1

        return plan_round(
            self.rng,
            sources,
            participants,
            provider.routes,
            self.max_draws,
            provider.rescue,
            tick,
        )

    # -- topology clocking -----------------------------------------------------

    def _step_topology(self) -> None:
        """One clocked topology step, with the provider resynced after."""
        start = perf_counter()
        self.topology.step()
        self.step_s += perf_counter() - start
        self._draws_since_step = 0
        self.provider.sync()

    def on_tournament_end(self) -> None:
        """Hook called by the evaluation loop after every tournament."""
        if self.step_every == "tournament":
            self.advance_epoch()

    def advance_epoch(self) -> None:
        """Step the topology once, explicitly (external/manual clocking)."""
        self._step_topology()
