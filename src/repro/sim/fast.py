"""The retired flat-list engine: ``FastEngine`` is now ``BatchEngine``.

``batch`` is bit-identical to the old flat-list game loop and faster, so the
exact contract keeps two implementations (reference and batch); this name
stays importable for existing callers.
"""

from repro.sim.batch import BatchEngine

__all__ = ["FastEngine"]

FastEngine = BatchEngine
