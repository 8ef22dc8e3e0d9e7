"""Message data model.

Messages are the unit of exchange during a contact.  A message carries an
application ``kind`` (e.g. ``"refresh"``, ``"query"``), source and
destination node ids, a size in bytes (used by bandwidth-limited link
models), an optional hop budget, and an opaque ``payload`` dict owned by
the protocol that created it.

Replication-style protocols duplicate messages with :meth:`Message.copy`;
copies share the logical ``msg_id`` (so duplicate suppression works) but
get distinct ``copy_id`` values for bookkeeping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.records import MessageCreate


_MSG_IDS = itertools.count(1)
_COPY_IDS = itertools.count(1)

#: Optional :class:`repro.obs.bus.EventBus` receiving a ``msg.create``
#: record for every constructed Message.  Module-level because Message
#: construction sites are spread across every protocol; runs scope it
#: with :func:`set_message_trace` inside try/finally so a bus never
#: leaks across runs.
_TRACE = None


def set_message_trace(bus) -> None:
    """Install (or, with ``None``, remove) the message-creation bus."""
    global _TRACE
    _TRACE = bus


def reset_message_ids() -> None:
    """Reset the global id counters (used by tests for determinism)."""
    global _MSG_IDS, _COPY_IDS
    _MSG_IDS = itertools.count(1)
    _COPY_IDS = itertools.count(1)


@dataclass(slots=True)
class Message:
    """A protocol message exchanged over opportunistic contacts."""

    kind: str
    src: int
    dst: Optional[int]
    created_at: float
    size: int = 256
    ttl: Optional[float] = None
    hops_left: Optional[int] = None
    payload: dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=lambda: next(_MSG_IDS))
    copy_id: int = field(default_factory=lambda: next(_COPY_IDS))
    hop_count: int = 0

    def __post_init__(self) -> None:
        if _TRACE is not None:
            _emit_create(self)

    def copy(self) -> "Message":
        """A replica of this message: same ``msg_id``, new ``copy_id``.

        Built without ``__init__``: every forwarded message is a copy,
        so this is on the routing hot path.
        """
        replica = object.__new__(Message)
        replica.kind = self.kind
        replica.src = self.src
        replica.dst = self.dst
        replica.created_at = self.created_at
        replica.size = self.size
        replica.ttl = self.ttl
        replica.hops_left = self.hops_left
        replica.payload = dict(self.payload)
        replica.msg_id = self.msg_id
        replica.copy_id = next(_COPY_IDS)
        replica.hop_count = self.hop_count
        if _TRACE is not None:
            _emit_create(replica)
        return replica

    def expired(self, now: float) -> bool:
        """True if the message's TTL has elapsed at simulation time ``now``."""
        return self.ttl is not None and now - self.created_at > self.ttl

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.kind} #{self.msg_id}.{self.copy_id} "
            f"{self.src}->{self.dst} t={self.created_at:.1f})"
        )


def _emit_create(message: Message) -> None:
    _TRACE.emit(
        MessageCreate(message.created_at, message.kind, message.src,
                      message.dst, message.size, message.msg_id,
                      message.copy_id)
    )
