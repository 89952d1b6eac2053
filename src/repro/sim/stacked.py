"""Cross-replication stacked evaluation: ``FusedEngine(n_replications=R)``.

The stacked engine is the fused engine with a replication axis
(:mod:`repro.sim.fused` documents it); this name stays importable for
existing callers.
"""

from repro.sim.fused import FusedEngine

__all__ = ["StackedFusedEngine"]

StackedFusedEngine = FusedEngine
