"""Fold the layers' native cumulative counters into a telemetry registry.

The oracle stack keeps tiny unconditional plain-int counters on its own
objects (``provider.cache_hits``, ``topology.boost_count``, ...): they
predate telemetry, cost nothing measurable, and keep the hot loops free of
telemetry calls.  Harvesting copies them into the registry **once per
replication**, after the run — so enabling telemetry changes nothing about
how the layers execute.

Layer reads are ``getattr``-defensive: the random oracle has no route
provider or topology, and scripted test oracles expose nothing.  Harvested
values land in *counters* (not gauges) so that per-replication snapshots
sum correctly when merged experiment-wide.
"""

from __future__ import annotations

__all__ = ["harvest_oracle"]

#: Bucket bounds for the drift-age histogram (ages are small epoch counts).
DRIFT_AGE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def harvest_oracle(tel, oracle) -> None:
    """Copy an oracle stack's layer counters into the telemetry registry."""
    if oracle is None or not getattr(tel, "enabled", False):
        return
    provider = getattr(oracle, "provider", None)
    if provider is not None:
        _harvest_provider(tel, provider)
    topology = getattr(oracle, "topology", None)
    if topology is not None:
        _harvest_topology(tel, topology)
    step_s = getattr(oracle, "step_s", None)
    if step_s is not None:
        tel.count("mobility.step_s", float(step_s))


def _harvest_provider(tel, provider) -> None:
    policy = provider.policy
    prefix = f"route.{policy.name}"
    tel.count(f"{prefix}.cache_hits", provider.cache_hits)
    tel.count(f"{prefix}.cache_misses", provider.cache_misses)
    tel.count(f"{prefix}.route_computes", provider.route_computes)
    tel.count(f"{prefix}.empty_serves", provider.empty_serves)
    tel.count(f"{prefix}.search_s", float(provider.search_s))
    tel.count(f"{prefix}.stale_serves", provider.stale_hits)
    tel.count(f"{prefix}.revalidations", provider.revalidations)
    tel.set_gauge("route.drift_budget", policy.budget)
    for age, n in provider.drift_age_counts.items():
        tel.observe("route.drift_age", age, n, bounds=DRIFT_AGE_BUCKETS)
    # the draw loop (repro.paths.planner.draw_setup) is the only caller of
    # ``routes``, on every engine: each empty serve is one rejected draw
    tel.count("paths.rejected_draws", provider.empty_serves)


def _harvest_topology(tel, topology) -> None:
    tel.count("mobility.epoch_bumps", topology.epoch)
    tel.count("mobility.steps", topology.steps)
    tel.count("mobility.emergency_boosts", topology.boost_count)
    tel.count("mobility.rescues", topology.rescues)
    tel.count("mobility.edges_added", topology.edges_added)
    tel.count("mobility.edges_removed", topology.edges_removed)
    _harvest_ksp(tel, topology)


def _harvest_ksp(tel, topology) -> None:
    """Route-search counters: the live snapshot plus the counts of every
    snapshot retired by an epoch or scope change (a scoped run builds no
    other kind).

    ``ksp.snapshot_s`` is the fixed per-(epoch, scope) cost — snapshot
    builds and hop-field sweeps — apart from path enumeration; the
    provider's ``route.<policy>.search_s`` times both together.
    """
    builds, queries, pruned, build_s = topology._ksp_retired
    search = topology._search
    if search is not None:
        builds += search.bfs_builds
        queries += search.queries
        pruned += search.deviations_pruned
        build_s += search.build_s
    if builds or queries or pruned:
        tel.count("ksp.bfs_field_builds", builds)
        tel.count("ksp.queries", queries)
        tel.count("ksp.yen_deviations_pruned", pruned)
        tel.count("ksp.snapshot_s", float(build_s))
