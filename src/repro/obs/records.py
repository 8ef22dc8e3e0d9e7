"""Typed trace records emitted on the observability event bus.

Each record class is a tiny ``__slots__`` object with a ``kind`` class
attribute (the stable wire name, e.g. ``"contact.open"``), a ``time``
field in simulation seconds, and :meth:`TraceRecord.as_dict` /
:func:`record_from_dict` for loss-free JSONL round-trips.

Records are deliberately dumb data: no behaviour, no references into
the simulation, so a trace can outlive (and be loaded without) the run
that produced it.  The full catalogue:

================== ====================================================
kind                emitted when
================== ====================================================
``engine.run``      the simulator's run loop starts/stops
``contact.open``    a trace contact opens (both endpoints online)
``contact.close``   an opened contact closes
``node.churn``      a node flips online/offline
``msg.create``      a :class:`~repro.sim.messages.Message` is built
``msg.tx``          the network admits a transfer
``msg.rx``          the flattened delivery executes at the receiver
``msg.drop``        a transfer is rejected (no contact/expired/bandwidth)
``task.create``     a refresh handler takes on a (item, target) task
``task.drop``       a task leaves (delivered/expired/suppressed)
``cache.put``       a store inserts or upgrades an entry
``cache.evict``     the eviction policy discards an entry
``cache.expire``    ``drop_expired`` removes a dead entry
``cache.remove``    an entry is removed explicitly (invalidation)
``query.issue``     a node issues a query
``query.hit``       a node answers a query from a provider
``query.miss``      a queried node has no answer and keeps forwarding
``query.complete``  the requester receives its answer
``fault.msg_loss``  the fault layer loses an admitted transfer in flight
``fault.truncate``  a contact close truncates an in-flight transfer
``fault.crash``     a node crashes (``cache_wiped``/``entries_lost``)
``fault.recover``   a crashed node comes back
``fault.flap``      a link flap cuts a contact short
``fault.outage``    a data source stalls/resumes version generation
``model.predict``   one predicted-vs-measured metric row (theory layer)
``service.snapshot`` periodic live-service progress summary
``service.checkpoint`` the durability layer wrote a consistent manifest
``service.restore`` a service was rebuilt from a checkpoint directory
``service.restart`` the supervisor restarted a crashed service child
``source.reconnect`` a streaming peer reconnected after a disconnect
``fault.stream``    the stream fault injector perturbed the ingest feed
================== ====================================================

The ``fault.*`` family is emitted only by
:mod:`repro.faults.injectors`; a run without a fault plan produces none
of them (see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

from typing import Any, Type

#: Per-class flattened slot tuple (MRO walk done once, not per record;
#: serialising a large trace calls ``as_dict`` millions of times).
_FIELDS_CACHE: dict[type, tuple[str, ...]] = {}


def _fields_of(cls: type) -> tuple[str, ...]:
    fields = _FIELDS_CACHE.get(cls)
    if fields is None:
        collected = []
        for klass in cls.__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if slot != "time":
                    collected.append(slot)
        fields = _FIELDS_CACHE[cls] = tuple(collected)
    return fields


class TraceRecord:
    """Base class: every record has a ``kind`` and a ``time``.

    Subclass constructors assign ``self.time`` directly instead of
    chaining through ``super().__init__`` -- records are built on the
    hot path of every traced run, and the extra frame is measurable at
    trace volumes.
    """

    kind: str = ""
    __slots__ = ("time",)

    def __init__(self, time: float) -> None:
        self.time = time

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-serialisable dict (``kind`` plus every slot)."""
        out: dict[str, Any] = {"kind": self.kind, "time": self.time}
        for slot in _fields_of(type(self)):
            out[slot] = getattr(self, slot)
        return out

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.as_dict() == other.as_dict()  # type: ignore[union-attr]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(
            f"{k}={v!r}" for k, v in self.as_dict().items() if k != "kind"
        )
        return f"{type(self).__name__}({fields})"


class EngineRun(TraceRecord):
    """Run-loop start/stop marker (``phase`` is ``"begin"``/``"end"``)."""

    kind = "engine.run"
    __slots__ = ("phase", "events_executed")

    def __init__(self, time: float, phase: str, events_executed: int) -> None:
        self.time = time
        self.phase = phase
        self.events_executed = events_executed


class ContactOpen(TraceRecord):
    kind = "contact.open"
    __slots__ = ("a", "b", "duration")

    def __init__(self, time: float, a: int, b: int, duration: float) -> None:
        self.time = time
        self.a = a
        self.b = b
        self.duration = duration


class ContactClose(TraceRecord):
    kind = "contact.close"
    __slots__ = ("a", "b")

    def __init__(self, time: float, a: int, b: int) -> None:
        self.time = time
        self.a = a
        self.b = b


class NodeChurn(TraceRecord):
    kind = "node.churn"
    __slots__ = ("node", "online")

    def __init__(self, time: float, node: int, online: bool) -> None:
        self.time = time
        self.node = node
        self.online = online


class MessageCreate(TraceRecord):
    kind = "msg.create"
    __slots__ = ("msg_kind", "src", "dst", "size", "msg_id", "copy_id")

    def __init__(self, time: float, msg_kind: str, src: int, dst: int | None,
                 size: int, msg_id: int, copy_id: int) -> None:
        self.time = time
        self.msg_kind = msg_kind
        self.src = src
        self.dst = dst
        self.size = size
        self.msg_id = msg_id
        self.copy_id = copy_id


class MessageTx(TraceRecord):
    kind = "msg.tx"
    __slots__ = ("msg_kind", "sender", "receiver", "size", "msg_id",
                 "copy_id", "hop_count")

    def __init__(self, time: float, msg_kind: str, sender: int, receiver: int,
                 size: int, msg_id: int, copy_id: int, hop_count: int) -> None:
        self.time = time
        self.msg_kind = msg_kind
        self.sender = sender
        self.receiver = receiver
        self.size = size
        self.msg_id = msg_id
        self.copy_id = copy_id
        self.hop_count = hop_count


class MessageRx(TraceRecord):
    kind = "msg.rx"
    __slots__ = ("msg_kind", "sender", "receiver", "size", "msg_id", "copy_id")

    def __init__(self, time: float, msg_kind: str, sender: int, receiver: int,
                 size: int, msg_id: int, copy_id: int) -> None:
        self.time = time
        self.msg_kind = msg_kind
        self.sender = sender
        self.receiver = receiver
        self.size = size
        self.msg_id = msg_id
        self.copy_id = copy_id


class MessageDrop(TraceRecord):
    """A rejected transfer; ``reason`` is ``no_contact``/``expired``/
    ``bandwidth``."""

    kind = "msg.drop"
    __slots__ = ("msg_kind", "sender", "receiver", "size", "msg_id", "reason")

    def __init__(self, time: float, msg_kind: str, sender: int, receiver: int,
                 size: int, msg_id: int, reason: str) -> None:
        self.time = time
        self.msg_kind = msg_kind
        self.sender = sender
        self.receiver = receiver
        self.size = size
        self.msg_id = msg_id
        self.reason = reason


class TaskCreate(TraceRecord):
    kind = "task.create"
    __slots__ = ("node", "item_id", "target", "version", "may_recruit")

    def __init__(self, time: float, node: int, item_id: int, target: int,
                 version: int, may_recruit: bool) -> None:
        self.time = time
        self.node = node
        self.item_id = item_id
        self.target = target
        self.version = version
        self.may_recruit = may_recruit


class TaskDrop(TraceRecord):
    """``reason`` is ``delivered``/``expired``/``suppressed``."""

    kind = "task.drop"
    __slots__ = ("node", "item_id", "target", "version", "reason")

    def __init__(self, time: float, node: int, item_id: int, target: int,
                 version: int, reason: str) -> None:
        self.time = time
        self.node = node
        self.item_id = item_id
        self.target = target
        self.version = version
        self.reason = reason


class CachePut(TraceRecord):
    kind = "cache.put"
    __slots__ = ("node", "item_id", "version", "upgrade")

    def __init__(self, time: float, node: int, item_id: int, version: int,
                 upgrade: bool) -> None:
        self.time = time
        self.node = node
        self.item_id = item_id
        self.version = version
        self.upgrade = upgrade


class CacheEvict(TraceRecord):
    kind = "cache.evict"
    __slots__ = ("node", "item_id", "version")

    def __init__(self, time: float, node: int, item_id: int, version: int) -> None:
        self.time = time
        self.node = node
        self.item_id = item_id
        self.version = version


class CacheExpire(TraceRecord):
    kind = "cache.expire"
    __slots__ = ("node", "item_id", "version")

    def __init__(self, time: float, node: int, item_id: int, version: int) -> None:
        self.time = time
        self.node = node
        self.item_id = item_id
        self.version = version


class CacheRemove(TraceRecord):
    """Explicit removal (e.g. an invalidation notice); ``time`` may be
    NaN when the caller carries no timestamp."""

    kind = "cache.remove"
    __slots__ = ("node", "item_id", "version")

    def __init__(self, time: float, node: int, item_id: int, version: int) -> None:
        self.time = time
        self.node = node
        self.item_id = item_id
        self.version = version


class QueryIssue(TraceRecord):
    kind = "query.issue"
    __slots__ = ("node", "query_id", "item_id")

    def __init__(self, time: float, node: int, query_id: int, item_id: int) -> None:
        self.time = time
        self.node = node
        self.query_id = query_id
        self.item_id = item_id


class QueryHit(TraceRecord):
    """A node found an answer; ``local`` means the requester itself."""

    kind = "query.hit"
    __slots__ = ("node", "query_id", "item_id", "version", "local")

    def __init__(self, time: float, node: int, query_id: int, item_id: int,
                 version: int, local: bool) -> None:
        self.time = time
        self.node = node
        self.query_id = query_id
        self.item_id = item_id
        self.version = version
        self.local = local


class QueryMiss(TraceRecord):
    kind = "query.miss"
    __slots__ = ("node", "query_id", "item_id")

    def __init__(self, time: float, node: int, query_id: int, item_id: int) -> None:
        self.time = time
        self.node = node
        self.query_id = query_id
        self.item_id = item_id


class QueryComplete(TraceRecord):
    kind = "query.complete"
    __slots__ = ("node", "query_id", "item_id", "served_by", "delay")

    def __init__(self, time: float, node: int, query_id: int, item_id: int,
                 served_by: int, delay: float) -> None:
        self.time = time
        self.node = node
        self.query_id = query_id
        self.item_id = item_id
        self.served_by = served_by
        self.delay = delay


class FaultMessageLoss(TraceRecord):
    """The fault layer lost an admitted transfer in flight (the sender
    was charged and believes the send succeeded)."""

    kind = "fault.msg_loss"
    __slots__ = ("msg_kind", "sender", "receiver", "msg_id")

    def __init__(self, time: float, msg_kind: str, sender: int, receiver: int,
                 msg_id: int) -> None:
        self.time = time
        self.msg_kind = msg_kind
        self.sender = sender
        self.receiver = receiver
        self.msg_id = msg_id


class FaultTruncation(TraceRecord):
    """A contact closed while a finite-bandwidth transfer was in flight."""

    kind = "fault.truncate"
    __slots__ = ("msg_kind", "sender", "receiver", "msg_id")

    def __init__(self, time: float, msg_kind: str, sender: int, receiver: int,
                 msg_id: int) -> None:
        self.time = time
        self.msg_kind = msg_kind
        self.sender = sender
        self.receiver = receiver
        self.msg_id = msg_id


class FaultCrash(TraceRecord):
    kind = "fault.crash"
    __slots__ = ("node", "cache_wiped", "entries_lost")

    def __init__(self, time: float, node: int, cache_wiped: bool,
                 entries_lost: int) -> None:
        self.time = time
        self.node = node
        self.cache_wiped = cache_wiped
        self.entries_lost = entries_lost


class FaultRecover(TraceRecord):
    kind = "fault.recover"
    __slots__ = ("node",)

    def __init__(self, time: float, node: int) -> None:
        self.time = time
        self.node = node


class FaultLinkFlap(TraceRecord):
    """A link flap force-closed a contact before its trace end time."""

    kind = "fault.flap"
    __slots__ = ("a", "b", "planned_duration", "cut_duration")

    def __init__(self, time: float, a: int, b: int, planned_duration: float,
                 cut_duration: float) -> None:
        self.time = time
        self.a = a
        self.b = b
        self.planned_duration = planned_duration
        self.cut_duration = cut_duration


class FaultOutage(TraceRecord):
    """A data source stalled (``phase="begin"``) or resumed
    (``phase="end"``) version generation."""

    kind = "fault.outage"
    __slots__ = ("node", "phase", "duration")

    def __init__(self, time: float, node: int, phase: str,
                 duration: float) -> None:
        self.time = time
        self.node = node
        self.phase = phase
        self.duration = duration


class ModelPredictRecord(TraceRecord):
    """One metric of a :class:`~repro.theory.validate.ModelReport`.

    Emitted by the theory layer (never by the simulation itself --
    prediction is passive), so a trace can carry its own
    predicted-vs-measured table into ``repro report``.  ``measured``
    and ``error`` are NaN for prediction-only reports.
    """

    kind = "model.predict"
    __slots__ = ("metric", "predicted", "measured", "error")

    def __init__(self, time: float, metric: str, predicted: float,
                 measured: float, error: float) -> None:
        self.time = time
        self.metric = metric
        self.predicted = predicted
        self.measured = measured
        self.error = error


class ServiceSnapshot(TraceRecord):
    """Periodic progress snapshot of the live service.

    Emitted by the service's result-builder stage (never by the
    simulation itself); ``time`` is the simulation clock at the
    snapshot, ``uptime_s`` the wall-clock seconds since the service
    started.  Latency percentiles are NaN until a query is served.
    """

    kind = "service.snapshot"
    __slots__ = ("uptime_s", "contacts", "queries", "shed",
                 "p50_ms", "p95_ms", "p99_ms", "queue_depth",
                 "freshness", "validity")

    def __init__(self, time: float, uptime_s: float, contacts: int,
                 queries: int, shed: int, p50_ms: float, p95_ms: float,
                 p99_ms: float, queue_depth: int, freshness: float,
                 validity: float) -> None:
        self.time = time
        self.uptime_s = uptime_s
        self.contacts = contacts
        self.queries = queries
        self.shed = shed
        self.p50_ms = p50_ms
        self.p95_ms = p95_ms
        self.p99_ms = p99_ms
        self.queue_depth = queue_depth
        self.freshness = freshness
        self.validity = validity


class CheckpointWritten(TraceRecord):
    """The durability layer wrote a watermark-consistent manifest.

    ``time`` is the simulation clock at the checkpoint, ``records`` the
    number of journal records the manifest covers, ``journal_bytes``
    the synced journal size, and ``wall_ms`` the manifest write cost
    (digest + fsync + atomic rename)."""

    kind = "service.checkpoint"
    __slots__ = ("records", "watermark", "journal_bytes", "wall_ms",
                 "quarantined")

    def __init__(self, time: float, records: int, watermark: float,
                 journal_bytes: int, wall_ms: float,
                 quarantined: int = 0) -> None:
        self.time = time
        self.records = records
        self.watermark = watermark
        self.journal_bytes = journal_bytes
        self.wall_ms = wall_ms
        self.quarantined = quarantined


class CheckpointRestored(TraceRecord):
    """A live service was rebuilt from a checkpoint directory.

    ``records`` journal records were re-ingested to reach ``watermark``;
    ``cursor`` is where the upstream source resumes (``None`` for
    non-resumable sources); ``verified`` whether a manifest digest was
    matched along the way; ``wall_ms`` the total restore cost."""

    kind = "service.restore"
    __slots__ = ("records", "watermark", "cursor", "verified", "wall_ms")

    def __init__(self, time: float, records: int, watermark: float,
                 cursor: "int | None", verified: bool,
                 wall_ms: float) -> None:
        self.time = time
        self.records = records
        self.watermark = watermark
        self.cursor = cursor
        self.verified = verified
        self.wall_ms = wall_ms


class ServiceRestart(TraceRecord):
    """The supervisor restarted a crashed service child.

    Emitted by the supervisor *process* (there is no simulation clock),
    so ``time`` is wall-clock seconds since the supervisor started."""

    kind = "service.restart"
    __slots__ = ("attempt", "exit_code", "uptime_s", "backoff_s")

    def __init__(self, time: float, attempt: int, exit_code: int,
                 uptime_s: float, backoff_s: float) -> None:
        self.time = time
        self.attempt = attempt
        self.exit_code = exit_code
        self.uptime_s = uptime_s
        self.backoff_s = backoff_s


class SourceReconnect(TraceRecord):
    """A streaming ingest peer connected after an earlier disconnect."""

    kind = "source.reconnect"
    __slots__ = ("peer", "peers", "disconnects")

    def __init__(self, time: float, peer: str, peers: int,
                 disconnects: int) -> None:
        self.time = time
        self.peer = peer
        self.peers = peers
        self.disconnects = disconnects


class FaultStream(TraceRecord):
    """The stream fault injector perturbed the ingest feed (``action``
    is ``"malformed"``/``"duplicate"``/``"reorder"``/``"skew"``/
    ``"disconnect"``)."""

    kind = "fault.stream"
    __slots__ = ("action", "count")

    def __init__(self, time: float, action: str, count: int) -> None:
        self.time = time
        self.action = action
        self.count = count


#: wire name -> record class, for JSONL reconstruction
RECORD_TYPES: dict[str, Type[TraceRecord]] = {
    cls.kind: cls
    for cls in (
        EngineRun, ContactOpen, ContactClose, NodeChurn,
        MessageCreate, MessageTx, MessageRx, MessageDrop,
        TaskCreate, TaskDrop,
        CachePut, CacheEvict, CacheExpire, CacheRemove,
        QueryIssue, QueryHit, QueryMiss, QueryComplete,
        FaultMessageLoss, FaultTruncation, FaultCrash, FaultRecover,
        FaultLinkFlap, FaultOutage,
        ModelPredictRecord, ServiceSnapshot,
        CheckpointWritten, CheckpointRestored, ServiceRestart,
        SourceReconnect, FaultStream,
    )
}


def record_from_dict(data: dict[str, Any]) -> TraceRecord:
    """Rebuild the typed record a :meth:`TraceRecord.as_dict` produced."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = RECORD_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace record kind {kind!r}")
    return cls(**payload)
