"""The telemetry runtime: a process-global recorder with a no-op default.

Zero-overhead-when-disabled contract
------------------------------------
``get_telemetry()`` returns a process-global singleton.  By default that is
:data:`NULL_TELEMETRY`, whose methods are empty and whose ``span`` returns a
shared inert context manager — no allocation, no branching beyond one
attribute check.  Instrumented code follows one pattern::

    tel = get_telemetry()
    if not tel.enabled:
        tel = None          # hot path: a single attribute read per seam
    ...
    if tel is not None:
        tel.count("engine.games", games)

Seams sit at tournament/generation boundaries, never inside per-game loops,
so a disabled run performs O(1) telemetry work per tournament and allocates
nothing (see ``tests/test_telemetry_overhead.py``).

Enabling installs a :class:`Telemetry` recorder for the current process —
each stack of replications enables its own inside ``run_stack`` (worker
processes included) and ships back one picklable snapshot.
:func:`telemetry_session` scopes a recorder and restores whatever was
active before, so sessions nest safely (e.g. the serial ``processes=1``
path, where the runner's parent session surrounds each stack's own).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.registry import DEFAULT_BUCKETS, MetricsRegistry

__all__ = [
    "NullTelemetry",
    "Telemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry_session",
]


class _NullSpan:
    """Inert context manager shared by every disabled-span call."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled recorder: every operation is a no-op."""

    __slots__ = ()

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: float = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, n: int = 1) -> None:
        pass

    def timer_add(self, name: str, seconds: float) -> None:
        pass

    def event(self, name: str, **fields) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()


class _Span:
    """Timed, optionally event-recorded scope.

    On exit the duration lands in the timer ``span.<path>`` where ``path``
    joins the enclosing span names (``generation/tournament/round``), and —
    capacity permitting — one event line is appended.
    """

    __slots__ = ("_tel", "_name", "_t0")

    def __init__(self, tel: "Telemetry", name: str) -> None:
        self._tel = tel
        self._name = name

    def __enter__(self) -> "_Span":
        tel = self._tel
        tel._stack.append(self._name)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = perf_counter()
        tel = self._tel
        path = "/".join(tel._stack)
        tel._stack.pop()
        duration = t1 - self._t0
        tel.registry.timer_add(f"span.{path}", duration)
        tel.event("span", span=path, start_s=self._t0 - tel.t0, dur_s=duration)
        return False


class Telemetry:
    """The enabled recorder: registry + bounded event log + span stack."""

    enabled = True

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config if config is not None else TelemetryConfig(enabled=True)
        self.registry = MetricsRegistry()
        self.events: list[dict] = []
        self.dropped_events = 0
        self.t0 = perf_counter()
        self._stack: list[str] = []

    # -- recording -------------------------------------------------------------

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: float = 1) -> None:
        self.registry.count(name, n)

    def set_gauge(self, name: str, value: float) -> None:
        self.registry.set_gauge(name, value)

    def observe(
        self, name: str, value: float, n: int = 1,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.registry.histogram(name, bounds).observe(value, n)

    def timer_add(self, name: str, seconds: float) -> None:
        self.registry.timer_add(name, seconds)

    def event(self, name: str, **fields) -> None:
        if not self.config.events:
            return
        if len(self.events) >= self.config.max_events:
            self.dropped_events += 1
            return
        record = {"event": name, "t_s": perf_counter() - self.t0}
        record.update(fields)
        self.events.append(record)

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """The registry as a picklable/JSON-friendly numeric tree."""
        return self.registry.snapshot()

    def export(self) -> dict:
        """Everything recorded, ready to attach to a replication result."""
        return {
            "metrics": self.snapshot(),
            "events": list(self.events),
            "dropped_events": self.dropped_events,
        }

    def absorb(self, export: dict) -> None:
        """Fold another session's :meth:`export` into this one."""
        self.registry.merge(export["metrics"])
        self.events.extend(export["events"])
        self.dropped_events += export["dropped_events"]


_active: NullTelemetry | Telemetry = NULL_TELEMETRY


def get_telemetry() -> NullTelemetry | Telemetry:
    """The process-global recorder (the no-op singleton unless enabled)."""
    return _active


def enable_telemetry(config: TelemetryConfig | None = None) -> Telemetry:
    """Install (and return) a fresh enabled recorder for this process."""
    global _active
    _active = Telemetry(config)
    return _active


def disable_telemetry() -> None:
    """Restore the no-op singleton."""
    global _active
    _active = NULL_TELEMETRY


@contextmanager
def telemetry_session(
    config: TelemetryConfig | None = None,
) -> Iterator[Telemetry]:
    """Scope an enabled recorder; restores the previous one on exit."""
    global _active
    previous = _active
    tel = Telemetry(config)
    _active = tel
    try:
        yield tel
    finally:
        _active = previous
