"""Draw-planner layer: destination sampling over a route provider.

Top layer of the oracle stack's three-layer split (topology → route
provider → draw planner; see :mod:`repro.network.provider`).  The planner
owns the *draw semantics* of the routed oracle:

* :func:`draw_setup` — the sequential rejection-sampling destination draw
  (uniform over the source's others, redrawn while the drawn pair has no
  route, capped at ``max_draws``, then the named rescue — the topology's
  bridge out of a dead-end component);
* :func:`plan_round` — the batched form: one :data:`PlannedGame` per
  source, **stream-identical** to calling :func:`draw_setup` per source
  (same RNG methods, same arguments, same order), with a ``tick`` hook
  fired once per game for draw-count-clocked topology stepping.

:func:`repro.paths.oracle.plan_games` is the oracle-generic dispatch that
picks an oracle's batched path when it has one, and every engine plans
routed games through it: ``reference`` and ``batch`` per round or
tournament, ``fused`` per tournament of its stacked plan
(:func:`repro.paths.vector.plan_generation_arrays` only packs the result
into ``GamePlanArrays``).  There is no second routed sampler.

Both forms run the one rejection loop in :func:`draw_setup`, which consumes
``others[int(rng.integers(len(others)))]`` per attempt and nothing else, so
an engine interleaving sequential and batched drawing on a shared generator
cannot change a trajectory.  That property is what keeps the
reference/batch pair bit-identical, and it is pinned by the
stream-identity suite in ``tests/test_mobility_oracle.py``.  It is also the
only place a routed draw fails, and the only caller of the provider's
``routes``, so each empty serve the provider counts is one rejected draw.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.paths.oracle import PlannedGame, plan_games

__all__ = ["draw_setup", "plan_round", "plan_games"]

#: Route lookup: (source, destination) -> candidate paths (possibly empty).
RouteFn = Callable[[int, int], Sequence[Sequence[int]]]

#: Last resort once every draw failed: source -> (destination, paths), or
#: ``None`` when even the rescue finds no route.
RescueFn = Callable[[int], "tuple[int, Sequence[Sequence[int]]] | None"]


def draw_setup(
    rng: np.random.Generator,
    source: int,
    others: Sequence[int],
    routes: RouteFn,
    max_draws: int,
    rescue: RescueFn,
) -> tuple[int, Sequence[Sequence[int]]]:
    """Draw one game's (destination, paths) by rejection sampling.

    The destination is uniform over ``others``; a drawn destination with no
    route is rejected and redrawn, up to ``max_draws`` attempts.  Then
    ``rescue`` names the game, and only if it finds no route either does
    the draw fail with a descriptive error.  The rescue runs after the last
    draw and consumes no draws itself, so a run that never needs it is
    unchanged by its presence.
    """
    integers = rng.integers
    n_others = len(others)
    for _ in range(max_draws):
        destination = others[int(integers(n_others))]
        paths = routes(source, destination)
        if paths:
            return destination, paths
    found = rescue(source)
    if found is not None:
        return found
    raise RuntimeError(
        f"no routable destination found for source {source} after"
        f" {max_draws} draws; topology too sparse for this game"
    )


def plan_round(
    rng: np.random.Generator,
    sources: Sequence[int],
    participants: Sequence[int],
    routes: RouteFn,
    max_draws: int,
    rescue: RescueFn,
    tick: Callable[[], None],
) -> list[PlannedGame]:
    """Draw a whole round's (or tournament's) games in one batch.

    Calls :func:`draw_setup` once per source, so the two share one
    rejection loop and one failure site; the batched form only removes
    per-game overhead (cached ``others`` pools, no ``GameSetup``
    construction).  ``tick`` fires once per game *before* its
    destination draws — the hook draw-count-clocked topologies use to step
    (and possibly consume the shared generator) at exactly the same draw
    counts as the sequential form.
    """
    others_cache: dict[int, list[int]] = {}
    cache_get = others_cache.get
    plan: list[PlannedGame] = []
    append = plan.append
    for source in sources:
        others = cache_get(source)
        if others is None:
            others = [p for p in participants if p != source]
            others_cache[source] = others
        if not others:
            raise ValueError("need at least one potential destination")
        tick()
        append((source, *draw_setup(rng, source, others, routes, max_draws, rescue)))
    return plan
