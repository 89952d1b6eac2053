"""Fold the layers' native cumulative counters into a telemetry registry.

The oracle stack keeps tiny unconditional plain-int counters on its own
objects (``provider.cache_hits``, ``topology.boost_count``, ...): they
predate telemetry, cost nothing measurable, and keep the hot loops free of
telemetry calls.  Harvesting copies them into the registry **once per
replication**, after the run — so enabling telemetry changes nothing about
how the layers execute.

All reads are ``getattr``-defensive: every oracle flavour (random, static
topology, mobile) exposes a different subset, and scripted test oracles
expose none.  Harvested values land in *counters* (not gauges) so that
per-replication snapshots sum correctly when merged experiment-wide.
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
    cache = getattr(oracle, "_vector_cache", None)
    if cache is not None:
        _harvest_slot_cache(tel, cache)


def _harvest_provider(tel, provider) -> None:
    policy = getattr(provider, "policy", None)
    name = policy.name if policy is not None else "static"
    prefix = f"route.{name}"
    tel.count(f"{prefix}.cache_hits", provider.cache_hits)
    tel.count(f"{prefix}.cache_misses", provider.cache_misses)
    tel.count(f"{prefix}.route_computes", getattr(provider, "route_computes", 0))
    tel.count(f"{prefix}.empty_serves", getattr(provider, "empty_serves", 0))
    tel.count(f"{prefix}.search_s", float(provider.search_s))
    stale = getattr(provider, "stale_hits", None)
    if stale is not None:
        tel.count(f"{prefix}.stale_serves", stale)
        tel.count(f"{prefix}.revalidations", provider.revalidations)
    if policy is not None:
        tel.set_gauge("route.drift_budget", policy.budget)
    ages = getattr(provider, "drift_age_counts", None)
    if ages:
        for age, n in ages.items():
            tel.observe("route.drift_age", age, n, bounds=DRIFT_AGE_BUCKETS)


def _harvest_topology(tel, topology) -> None:
    epoch = getattr(topology, "epoch", None)
    if epoch is not None:
        tel.count("mobility.epoch_bumps", epoch)
    steps = getattr(topology, "steps", None)
    if steps is not None:
        tel.count("mobility.steps", steps)
    boosts = getattr(topology, "boost_count", None)
    if boosts is not None:
        tel.count("mobility.emergency_boosts", boosts)
    rescues = getattr(topology, "rescues", None)
    if rescues is not None:
        tel.count("mobility.rescues", rescues)
    added = getattr(topology, "edges_added", None)
    if added is not None:
        tel.count("mobility.edges_added", added)
        tel.count("mobility.edges_removed", topology.edges_removed)
    _harvest_ksp(tel, topology)


def _harvest_ksp(tel, topology) -> None:
    """Route-search counters: live snapshot + counts retired on rebuild.

    ``ksp.snapshot_s`` is the fixed per-epoch cost — snapshot builds and
    hop-field sweeps — apart from path enumeration; the provider's
    ``route.<policy>.search_s`` times both together.
    """
    builds, queries, pruned, build_s = getattr(topology, "_ksp_retired", (0, 0, 0, 0.0))
    search = getattr(topology, "_search", None)
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


def _harvest_slot_cache(tel, cache) -> None:
    tel.count("paths.slot_resolves", getattr(cache, "resolves", 0))
    tel.count("paths.rejected_draws", getattr(cache, "rejects", 0))
    tel.count("paths.slot_invalidations", getattr(cache, "invalidations", 0))
    tel.set_gauge("paths.slot_count", len(cache.slots))
