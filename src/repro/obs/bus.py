"""The observability event bus.

A :class:`EventBus` collects :class:`~repro.obs.records.TraceRecord`
instances emitted by instrumentation points across the stack (engine,
network, stores, refresh handlers, query managers).  Tracing is **off by
default**: instrumented components hold a ``trace`` attribute that is
``None`` unless a bus was explicitly wired in (``build_simulation(...,
bus=bus)``), and every emission site is guarded by a single

    if self.trace is not None:

check -- one attribute load and an identity test, cheap enough that the
committed engine/scheme benchmarks show no regression with tracing
disabled.  No listener, wrapper, or subscription is installed anywhere
when no bus is attached, so the disabled fast path allocates nothing.

A bus either buffers records in memory (``bus.records``), streams them
to subscriber callables, or both.  Ordering is emission order, which for
a deterministic simulation is itself deterministic.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.obs.records import TraceRecord

Subscriber = Callable[[TraceRecord], None]


def _emit_discard(record: TraceRecord) -> None:
    """``emit`` binding for a bus that neither buffers nor streams."""


class EventBus:
    """Collects (and optionally streams) trace records.

    ``keep_records`` may be switched off when a subscriber persists the
    stream (e.g. a JSONL writer) and the run is too large to buffer.
    """

    __slots__ = ("records", "keep_records", "_subscribers", "emit")

    def __init__(self, keep_records: bool = True) -> None:
        self.records: list[TraceRecord] = []
        self.keep_records = keep_records
        self._subscribers: list[Subscriber] = []
        self._rebind_emit()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ``emit`` is an instance attribute, not a method: with no
    # subscribers it is bound straight to ``records.append`` (one C call
    # per record instead of a Python frame + flag test + empty loop).
    # Tracing is the dominant cost of an instrumented run, so this
    # hot-path shortcut is worth the rebinding dance below.

    def _rebind_emit(self) -> None:
        if self._subscribers:
            self.emit = self._emit_general
        elif self.keep_records:
            self.emit = self.records.append
        else:
            self.emit = _emit_discard

    def _emit_general(self, record: TraceRecord) -> None:
        """Dispatch one record to the buffer and all subscribers."""
        if self.keep_records:
            self.records.append(record)
        for subscriber in self._subscribers:
            subscriber(record)

    def subscribe(self, subscriber: Subscriber) -> None:
        """Stream every subsequent record to ``subscriber(record)``."""
        self._subscribers.append(subscriber)
        self._rebind_emit()

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """Buffered records with the given wire ``kind``."""
        return [r for r in self.records if r.kind == kind]

    def counts(self) -> dict[str, int]:
        """Buffered record count per kind, sorted by kind."""
        out: dict[str, int] = {}
        for record in self.records:
            out[record.kind] = out.get(record.kind, 0) + 1
        return dict(sorted(out.items()))

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Emit many records (used when merging per-seed traces)."""
        for record in records:
            self.emit(record)


def tee_online_listener(bus: EventBus):
    """An online-listener (``(node_id, online, now)``) that forwards node
    churn onto ``bus`` -- plugs into
    :meth:`repro.sim.network.ContactNetwork.add_online_listener`, the
    hook churn already flows through."""
    from repro.obs.records import NodeChurn

    def listener(node_id: int, online: bool, now: float) -> None:
        bus.emit(NodeChurn(now, node_id, online))

    return listener
