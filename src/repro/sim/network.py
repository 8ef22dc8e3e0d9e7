"""Contact-driven network: replays a contact trace over a node set.

The network replays a ``contact_started`` / ``contact_ended`` pair for
every contact in the trace, loaded into the simulator as one presorted
schedule rather than as heap events, and brokers message transfers
between nodes that are currently in contact.  Transfers are subject to a
pluggable :class:`LinkModel`; the default is an unlimited link (the
model used by the paper-style evaluation, where contacts are long
relative to message sizes), and :class:`BandwidthLimitedLink` enforces a
per-contact byte budget derived from contact duration.

Deliveries are flattened through the simulator's same-time FIFO
(:meth:`~repro.sim.engine.Simulator.schedule_now`) so protocol ping-pong
during a contact cannot recurse unboundedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.obs.records import (
    ContactClose,
    ContactOpen,
    MessageDrop,
    MessageRx,
    MessageTx,
)
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.node import Node
from repro.sim.soa import KIND_START, ContactEventStream
from repro.sim.stats import Counter, StatsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mobility.trace import Contact

#: Event priorities: deliveries at a timestamp run before contact ends.
_PRIORITY_CONTACT_START = 0
_PRIORITY_DELIVERY = 5
_PRIORITY_CONTACT_END = 10

_START_TIME = attrgetter("start")


class LinkModel:
    """Decides whether a transfer is admitted and how it is charged.

    The default admits everything.
    """

    def contact_opened(self, a: int, b: int, duration: float) -> None:
        """Hook: a contact between ``a`` and ``b`` opened."""

    def contact_closed(self, a: int, b: int) -> None:
        """Hook: the contact between ``a`` and ``b`` closed.

        May be invoked for contacts that never opened (e.g. an endpoint
        was offline) and more than once per contact; implementations
        must tolerate both.
        """

    def admits(self, message: Message, a: int, b: int) -> bool:
        """True if ``message`` may be transferred on the (a, b) contact."""
        return True

    def charge(self, message: Message, a: int, b: int) -> None:
        """Account for a transfer that was admitted."""


class BandwidthLimitedLink(LinkModel):
    """Per-contact byte budget: ``bandwidth_bps * duration`` bytes.

    Models short contacts that cannot carry unbounded data.  Budgets are
    tracked per unordered node pair while a contact is open and released
    when it closes, so long traces do not grow the table unboundedly and
    a stale budget can never leak into the pair's next contact.
    """

    def __init__(self, bandwidth_bps: float) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bps = float(bandwidth_bps)
        self._budget: dict[tuple[int, int], float] = {}

    @staticmethod
    def _key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    @property
    def open_budgets(self) -> int:
        """Number of pairs currently holding a budget entry."""
        return len(self._budget)

    def contact_opened(self, a: int, b: int, duration: float) -> None:
        self._budget[self._key(a, b)] = self.bandwidth_bps * duration / 8.0

    def contact_closed(self, a: int, b: int) -> None:
        self._budget.pop(self._key(a, b), None)

    def admits(self, message: Message, a: int, b: int) -> bool:
        return self._budget.get(self._key(a, b), 0.0) >= message.size

    def charge(self, message: Message, a: int, b: int) -> None:
        self._budget[self._key(a, b)] -= message.size


@dataclass
class TransferRecord:
    """One admitted transfer, for post-hoc overhead analysis."""

    time: float
    kind: str
    sender: int
    receiver: int
    size: int
    msg_id: int


class ContactNetwork:
    """Replays a contact trace and brokers transfers between nodes."""

    def __init__(
        self,
        sim: Simulator,
        nodes: dict[int, Node],
        contacts: Iterable["Contact"],
        link_model: Optional[LinkModel] = None,
        stats: Optional[StatsRegistry] = None,
        record_transfers: bool = False,
    ) -> None:
        self.sim = sim
        self.nodes = dict(nodes)
        self.link_model = link_model or LinkModel()
        self.stats = stats or StatsRegistry()
        self.record_transfers = record_transfers
        self.transfers: list[TransferRecord] = []
        self._started = False
        # Cached counter handles for the transfer hot path: one registry
        # lookup at wiring time instead of a dict lookup (plus an f-string
        # format for the per-kind counter) on every transfer.
        self._c_rejected_no_contact = self.stats.counter(
            "net.transfer_rejected_no_contact"
        )
        self._c_rejected_expired = self.stats.counter("net.transfer_rejected_expired")
        self._c_rejected_bandwidth = self.stats.counter(
            "net.transfer_rejected_bandwidth"
        )
        self._c_transfers = self.stats.counter("net.transfers")
        self._c_bytes = self.stats.counter("net.bytes")
        self._c_contacts = self.stats.counter("net.contacts")
        self._c_contacts_skipped = self.stats.counter("net.contacts_skipped_offline")
        self._kind_counters: dict[str, Counter] = {}
        #: Hooks fired after a node's online state flips, as
        #: ``listener(node_id, online, now)``.  Churn drives all state
        #: flips through :meth:`set_online`, so listeners see every one.
        self._online_listeners: list = []
        #: optional :class:`repro.obs.bus.EventBus`; every emission site
        #: is behind a single ``is not None`` check, so an untraced
        #: network runs the pre-instrumentation transfer path.
        self.trace = None
        #: optional :class:`repro.faults.injectors.FaultController`; like
        #: ``trace``, every hook is behind one ``is not None`` check so a
        #: fault-free network runs the exact pre-fault code path.
        self.faults = None
        #: unordered pairs whose current contact was force-closed early
        #: (link flap / fault injection); the pending trace-scheduled
        #: ``_contact_end`` for such a pair must become a no-op, so the
        #: link budget is released exactly once and a subsequent contact
        #: of the same pair is never closed by the stale end event.
        self._forced_closed: set[tuple[int, int]] = set()
        for node in self.nodes.values():
            node.network = self
        self._schedule_trace(contacts)

    def add_online_listener(self, listener) -> None:
        """Register ``listener(node_id, online, now)`` for churn events."""
        self._online_listeners.append(listener)

    def _schedule_trace(self, contacts: Iterable["Contact"]) -> None:
        """Load the trace's contact events into the simulator as one
        presorted schedule.

        :class:`~repro.sim.soa.ContactEventStream` lays the events out in
        the order per-contact ``schedule_at`` calls would have run them:
        contact ``i`` gives its start sequence ``2i`` and its end
        ``2i + 1``.  The vectorised executor replays the same stream, so
        both executors share one contact order.
        """
        nodes = self.nodes
        kept = [c for c in contacts if c.a in nodes and c.b in nodes]
        self.stats.counter("net.contacts_scheduled").add(len(kept))
        if not kept:
            return
        stream = ContactEventStream(kept, nodes)
        is_start = stream.kind == KIND_START
        # Start events come out in stable start-time order of ``kept``
        # (the identity for a ContactTrace); a start entry carries its
        # contact's duration, an end entry ``None``.
        kept.sort(key=_START_TIME)
        durations: list[Optional[float]] = [None] * stream.num_events
        for pos, contact in zip(np.flatnonzero(is_start).tolist(), kept):
            durations[pos] = contact.end - contact.start
        a_ids = stream.a.tolist()
        b_ids = stream.b.tolist()
        start_cb, end_cb = self._contact_start, self._contact_end

        def dispatch(pos: int) -> None:
            duration = durations[pos]
            if duration is None:
                end_cb(a_ids[pos], b_ids[pos])
            else:
                start_cb(a_ids[pos], b_ids[pos], duration)

        self.sim.load_schedule(
            stream.time,
            np.where(is_start, _PRIORITY_CONTACT_START, _PRIORITY_CONTACT_END),
            dispatch,
        )

    def schedule_contact(self, a: int, b: int, start: float, end: float) -> bool:
        """Schedule one future contact at runtime (streaming ingestion).

        The live-service pipeline feeds contacts one at a time as they
        arrive from a stream, instead of front-loading the whole trace
        at construction.  The two heap events use the same callbacks
        and priorities as the schedule :meth:`_schedule_trace` loads,
        so a streamed contact runs exactly as a pre-scheduled one
        would.  Contacts touching unknown nodes are skipped (returns
        ``False``), mirroring the batch path's filter.

        The caller must not have advanced the clock past ``start``
        (``schedule_at`` raises otherwise) -- the service runtime's
        watermark discipline guarantees that.
        """
        if a not in self.nodes or b not in self.nodes:
            return False
        if end < start:
            raise ValueError(f"contact ends before it starts: [{start}, {end}]")
        self.sim.schedule_at(
            float(start), self._contact_start, a, b, float(end) - float(start),
            priority=_PRIORITY_CONTACT_START,
        )
        self.sim.schedule_at(
            float(end), self._contact_end, a, b,
            priority=_PRIORITY_CONTACT_END,
        )
        self.stats.counter("net.contacts_scheduled").add(1)
        return True

    def start(self) -> None:
        """Fire every node's ``on_start`` hooks (idempotent)."""
        if self._started:
            return
        self._started = True
        for node_id in sorted(self.nodes):
            self.nodes[node_id].start()

    def run(self, until: Optional[float] = None) -> float:
        """Start the nodes and run the simulation to ``until``."""
        self.start()
        return self.sim.run(until=until)

    # -- trace event handlers ---------------------------------------------

    def _contact_start(self, a: int, b: int, duration: float) -> None:
        node_a, node_b = self.nodes[a], self.nodes[b]
        if not (node_a.online and node_b.online):
            self._c_contacts_skipped.add(1)
            return
        link_duration = duration
        if self.faults is not None:
            # May degrade the duration the link budget is derived from
            # and/or schedule a forced early close (link flap).
            link_duration = self.faults.on_contact_open(a, b, duration)
        self.link_model.contact_opened(a, b, link_duration)
        self._c_contacts.add(1)
        if self.trace is not None:
            self.trace.emit(ContactOpen(self.sim.now, a, b, duration))
        node_a.contact_started(node_b)
        node_b.contact_started(node_a)

    def _contact_end(self, a: int, b: int) -> None:
        if self._forced_closed:
            key = (a, b) if a <= b else (b, a)
            if key in self._forced_closed:
                # This contact was already closed early by a fault; its
                # budget was released then.  Consuming the marker (rather
                # than closing again) guards against double-release and
                # against tearing down a *new* contact the pair may have
                # opened at exactly this timestamp.
                self._forced_closed.discard(key)
                return
        node_a, node_b = self.nodes[a], self.nodes[b]
        # Only close contacts that actually opened (both ends were online).
        opened = node_a.in_contact_with(b) or node_b.in_contact_with(a)
        if node_a.in_contact_with(b):
            node_a.contact_ended(node_b)
        if node_b.in_contact_with(a):
            node_b.contact_ended(node_a)
        self.link_model.contact_closed(a, b)
        if opened and self.trace is not None:
            self.trace.emit(ContactClose(self.sim.now, a, b))

    def force_contact_close(self, a: int, b: int) -> bool:
        """Close the pair's open contact *now* (fault-driven early close).

        Used by the link-flap injector to truncate a contact before its
        trace end time.  The nodes' handlers see a normal contact end,
        the link budget is released exactly once, and the pair is marked
        so the still-pending trace-scheduled end becomes a no-op.
        Returns ``True`` if a contact was actually open.
        """
        node_a, node_b = self.nodes[a], self.nodes[b]
        opened = node_a.in_contact_with(b) or node_b.in_contact_with(a)
        if not opened:
            return False
        if node_a.in_contact_with(b):
            node_a.contact_ended(node_b)
        if node_b.in_contact_with(a):
            node_b.contact_ended(node_a)
        self.link_model.contact_closed(a, b)
        self._forced_closed.add((a, b) if a <= b else (b, a))
        if self.trace is not None:
            self.trace.emit(ContactClose(self.sim.now, a, b))
        return True

    def set_online(self, node_id: int, online: bool) -> None:
        """Take a node offline (closing its open contacts) or bring it back."""
        node = self.nodes[node_id]
        if node.online == online:
            return
        node.online = online
        if not online:
            for peer_id in list(node.neighbors):
                peer = self.nodes[peer_id]
                node.contact_ended(peer)
                peer.contact_ended(node)
                self.link_model.contact_closed(node_id, peer_id)
            self.stats.counter("net.nodes_went_offline").add(1)
        else:
            self.stats.counter("net.nodes_came_online").add(1)
        for listener in self._online_listeners:
            listener(node_id, online, self.sim.now)

    # -- transfer path ------------------------------------------------------

    def transfer(self, message: Message, sender: Node, receiver: Node) -> bool:
        """Transfer ``message`` from ``sender`` to ``receiver``.

        Returns ``True`` when the transfer was admitted; delivery happens
        through the simulator's same-time FIFO, after the current
        callback returns, at the current simulation time.  Rejected
        transfers (nodes not in contact, link budget exhausted, message
        TTL expired) are counted and dropped.
        """
        if not sender.in_contact_with(receiver.node_id):
            self._c_rejected_no_contact.add(1)
            if self.trace is not None:
                self._emit_drop(message, sender, receiver, "no_contact")
            return False
        if message.expired(self.sim.now):
            self._c_rejected_expired.add(1)
            if self.trace is not None:
                self._emit_drop(message, sender, receiver, "expired")
            return False
        if not self.link_model.admits(message, sender.node_id, receiver.node_id):
            self._c_rejected_bandwidth.add(1)
            if self.trace is not None:
                self._emit_drop(message, sender, receiver, "bandwidth")
            return False
        self.link_model.charge(message, sender.node_id, receiver.node_id)
        message.hop_count += 1
        self._c_transfers.add(1)
        kind_counter = self._kind_counters.get(message.kind)
        if kind_counter is None:
            kind_counter = self.stats.counter(f"net.transfers.{message.kind}")
            self._kind_counters[message.kind] = kind_counter
        kind_counter.add(1)
        self._c_bytes.add(message.size)
        if self.record_transfers:
            self.transfers.append(
                TransferRecord(
                    time=self.sim.now,
                    kind=message.kind,
                    sender=sender.node_id,
                    receiver=receiver.node_id,
                    size=message.size,
                    msg_id=message.msg_id,
                )
            )
        if self.trace is not None:
            self.trace.emit(
                MessageTx(
                    self.sim.now,
                    message.kind,
                    sender.node_id,
                    receiver.node_id,
                    message.size,
                    message.msg_id,
                    message.copy_id,
                    message.hop_count,
                )
            )
        if self.faults is not None and self.faults.intercept_delivery(
            message, sender, receiver
        ):
            # The fault layer took over: the transfer was admitted (and
            # charged, so the sender believes it succeeded) but is either
            # lost in flight or delivered later with truncation exposure.
            return True
        if self.trace is not None:
            # Deliver through a wrapper that emits msg.rx just before the
            # receiver runs.  Queued at the same (time, priority) as the
            # untraced path, so the event order -- and hence the metrics
            # of a traced run -- are unchanged.
            self.sim.schedule_now(self._traced_delivery, message, sender,
                                  receiver, priority=_PRIORITY_DELIVERY)
            return True
        self.sim.schedule_now(receiver.receive, message, sender,
                              priority=_PRIORITY_DELIVERY)
        return True

    def _emit_drop(self, message: Message, sender: Node, receiver: Node,
                   reason: str) -> None:
        self.trace.emit(
            MessageDrop(
                self.sim.now,
                message.kind,
                sender.node_id,
                receiver.node_id,
                message.size,
                message.msg_id,
                reason,
            )
        )

    def _traced_delivery(self, message: Message, sender: Node,
                         receiver: Node) -> None:
        """Delivery wrapper used only when tracing: emit ``msg.rx`` then
        run the normal :meth:`Node.receive`."""
        if self.trace is not None:
            self.trace.emit(
                MessageRx(
                    self.sim.now,
                    message.kind,
                    sender.node_id,
                    receiver.node_id,
                    message.size,
                    message.msg_id,
                    message.copy_id,
                )
            )
        receiver.receive(message, sender)
