"""Routing agent base: buffering, dedup, delivery, forwarding loop.

A :class:`RoutingAgent` is a :class:`~repro.sim.node.ProtocolHandler`
that owns a message buffer.  Subclasses implement only the forwarding
*policy* (:meth:`RoutingAgent.should_forward` and
:meth:`RoutingAgent.split_for`); the mechanics -- buffer limits, TTL
expiry, duplicate suppression, delivery callbacks, per-kind statistics
-- live here.

Upper layers (the caching protocol) inject messages with
:meth:`RoutingAgent.originate` and register per-kind delivery callbacks
with :meth:`RoutingAgent.on_delivery`.  An upper layer may also hand the
agent *cures* (anti-packets, see :class:`repro.caching.query.Cures`):
the agent then refuses every message whose cure it knows and drops its
buffered ones the moment it learns one.  A cure crosses every open
contact in the event that taught it (:meth:`RoutingAgent.spread_cures`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.sim.messages import Message
from repro.sim.node import Node, ProtocolHandler
from repro.sim.stats import Counter, StatsRegistry


@dataclass
class DeliveryRecord:
    """Bookkeeping for one end-to-end delivery."""

    msg_id: int
    kind: str
    src: int
    dst: int
    created_at: float
    delivered_at: float

    @property
    def delay(self) -> float:
        return self.delivered_at - self.created_at


class RoutingAgent(ProtocolHandler):
    """Store-carry-forward agent; subclasses define the policy."""

    #: message kinds this agent transports; ``None`` means every kind
    #: except those another handler claims explicitly.
    handled_kinds: Optional[frozenset[str]] = None

    def __init__(
        self,
        buffer_capacity: Optional[int] = None,
        stats: Optional[StatsRegistry] = None,
        kinds: Optional[frozenset[str]] = None,
    ) -> None:
        super().__init__()
        if buffer_capacity is not None and buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1 (or None for unbounded)")
        if kinds is not None:
            self.handled_kinds = frozenset(kinds)
        self.buffer: dict[int, Message] = {}
        self.buffer_capacity = buffer_capacity
        self.seen: set[int] = set()
        self.stats = stats or StatsRegistry()
        self.deliveries: list[DeliveryRecord] = []
        self._callbacks: dict[str, list[Callable[[Message], None]]] = {}
        self._custody_callbacks: dict[str, list[Callable[[Message, Node], None]]] = {}
        #: expiry index: ttl -> min-heap of (created_at, insertion seq,
        #: message) for every message stored with that ttl.  With the ttl
        #: fixed, ``now - created_at > ttl`` is monotone in ``created_at``,
        #: so a heap pops its expired messages first.  Entries of messages
        #: that left the buffer stay until they reach the top.
        self._expiry: dict[float, list[tuple[float, int, Message]]] = {}
        self._expiry_seq = itertools.count()
        self._forwarded_counters: dict[str, Counter] = {}
        #: the cures this node knows (``key(message)``, ``in``, ``pull``),
        #: installed by the protocol that issues them; ``None``: none
        self.cures = None
        #: ids of the buffered messages per cure key, so a cure drops its
        #: messages without a buffer scan (kept only while ``cures`` is set)
        self._by_cure: dict[object, list[int]] = {}

    # -- public API for upper layers -------------------------------------

    def originate(self, message: Message) -> None:
        """Inject a locally created message into the network."""
        self.stats.counter(f"routing.originated.{message.kind}").add(1)
        if message.dst == self.node.node_id:
            self._deliver(message)
            return
        self.seen.add(message.msg_id)
        self._store(message)
        # A contact may already be open: try forwarding immediately.
        stored = self.buffer.get(message.msg_id)
        if stored is None:
            return
        for peer_id in list(self.node.neighbors):
            peer = self.node.network.nodes[peer_id]
            self._try_forward_one(stored, peer)

    def on_delivery(self, kind: str, callback: Callable[[Message], None]) -> None:
        """Register ``callback(message)`` for delivered messages of ``kind``."""
        self._callbacks.setdefault(kind, []).append(callback)

    def on_custody(self, kind: str, callback: Callable[[Message, Node], None]) -> None:
        """Register ``callback(message, sender)`` for each first receipt.

        Fires once per message this node receives of ``kind`` -- at
        intermediate custody *and* at the destination -- before any
        delivery callbacks.  On-path caching hangs off this hook; it
        costs nothing when no callback is registered.
        """
        self._custody_callbacks.setdefault(kind, []).append(callback)

    # -- policy hooks -------------------------------------------------------

    def should_forward(self, message: Message, peer: Node) -> bool:
        """Whether to hand ``message`` to ``peer`` on this contact."""
        raise NotImplementedError

    def split_for(self, message: Message, peer: Node) -> Message:
        """The copy actually sent (a policy may adjust its hop budget)."""
        return message.copy()

    def peer_agent(self, peer: Node) -> Optional["RoutingAgent"]:
        """The peer's routing agent of the same class, if any.

        Direct object access stands in for the zero-payload metadata
        handshake (summary vectors, predictability exchange) that real
        implementations perform at contact start.
        """
        agent = peer.find_handler(type(self))
        return agent if isinstance(agent, RoutingAgent) else None

    # -- ProtocolHandler hooks -----------------------------------------------

    def on_contact_start(self, peer: Node) -> None:
        self._expire_buffer()
        self._try_forward_all(peer)

    def on_message(self, message: Message, sender: Node) -> None:
        cures = self.cures
        if cures is not None and cures.key(message) in cures:
            self.stats.counter("routing.refused_cured").add(1)
            return
        if message.dst == self.node.node_id:
            if message.msg_id not in self.seen:
                self.seen.add(message.msg_id)
                self._notify_custody(message, sender)
                self._deliver(message)
            return
        if message.msg_id in self.seen and message.msg_id not in self.buffer:
            # Already relayed and dropped (or delivered): ignore the dup.
            self.stats.counter("routing.duplicates").add(1)
            return
        if message.msg_id not in self.seen:
            self._notify_custody(message, sender)
        self.seen.add(message.msg_id)
        self._store(message)
        # Opportunistically forward *this* message onward to other open
        # contacts.  (Only the new arrival: the rest of the buffer was
        # already offered to these peers when the contacts opened, and
        # re-scanning it per arrival is quadratic in buffered messages.)
        stored = self.buffer.get(message.msg_id)
        if stored is None:
            return
        for peer_id in list(self.node.neighbors):
            if peer_id != sender.node_id:
                self._try_forward_one(stored, self.node.network.nodes[peer_id])

    # -- internals ---------------------------------------------------------

    def _notify_custody(self, message: Message, sender: Node) -> None:
        if not self._custody_callbacks:
            return
        for callback in self._custody_callbacks.get(message.kind, []):
            callback(message, sender)

    def _try_forward_all(self, peer: Node) -> None:
        for message in list(self.buffer.values()):
            self._try_forward_one(message, peer)

    def _exchange_cures(self, peer_agent: "RoutingAgent") -> None:
        """Pull the cures the peer learned since the last contact, drop
        the buffered messages they cure and pass them on."""
        if self._pull_cures(peer_agent):
            self.spread_cures()

    def spread_cures(self) -> None:
        """Hand the cures this node just learned to every node in
        contact with it, and on from each node that learns something.

        A relayed message crosses every open contact in the event that
        brought it; so does a cure, and the copies it cures stop there.
        Each pull costs what the puller has not seen of the teacher's
        log, so a contact whose ends already agree costs one lookup.
        """
        nodes = self.node.network.nodes
        teachers = [self]
        while teachers:
            teacher = teachers.pop()
            for peer_id in teacher.node.neighbors:
                learner = teacher.peer_agent(nodes[peer_id])
                if learner is not None and learner._pull_cures(teacher):
                    teachers.append(learner)

    def _pull_cures(self, peer_agent: "RoutingAgent") -> list:
        """Learn the live cures ``peer_agent`` learned since the last pull
        from it and drop the buffered messages they cure; returns the
        cures new to this node."""
        cures, theirs = self.cures, peer_agent.cures
        if cures is None or theirs is None:
            return []
        learned = cures.pull(theirs, peer_agent.node.node_id, self.node.sim.now)
        self._drop_cured(learned)
        return learned

    def _drop_cured(self, keys) -> None:
        """Drop every buffered message waiting on one of the cures ``keys``."""
        buffer, by_cure = self.buffer, self._by_cure
        dropped = 0
        for key in keys:
            for msg_id in by_cure.pop(key, ()):
                del buffer[msg_id]
                dropped += 1
        if dropped:
            self.stats.counter("routing.dropped_cured").add(dropped)

    def _unindex(self, message: Message) -> None:
        """Forget a message that left the buffer from the cure index."""
        key = self.cures.key(message)
        waiting = self._by_cure[key]
        waiting.remove(message.msg_id)
        if not waiting:
            del self._by_cure[key]

    def _try_forward_one(self, message: Message, peer: Node) -> None:
        if message.expired(self.node.sim.now):
            return
        if self.should_forward(message, peer):
            self._forward(message, peer)

    def _forward(self, message: Message, peer: Node) -> None:
        """Send ``split_for``'s copy to ``peer``; count a success."""
        if self.node.send(self.split_for(message, peer), peer):
            counter = self._forwarded_counters.get(message.kind)
            if counter is None:
                counter = self.stats.counter(f"routing.forwarded.{message.kind}")
                self._forwarded_counters[message.kind] = counter
            counter.add(1)

    def _store(self, message: Message) -> None:
        if message.expired(self.node.sim.now):
            self.stats.counter("routing.dropped_expired").add(1)
            return
        if message.msg_id in self.buffer:
            return
        if self.buffer_capacity is not None and len(self.buffer) >= self.buffer_capacity:
            self._evict_one()
        self.buffer[message.msg_id] = message
        if self.cures is not None:
            key = self.cures.key(message)
            waiting = self._by_cure.get(key)
            if waiting is None:
                self._by_cure[key] = [message.msg_id]
            else:
                waiting.append(message.msg_id)
        if message.ttl is not None:
            heap = self._expiry.get(message.ttl)
            if heap is None:
                heap = self._expiry[message.ttl] = []
            heappush(heap, (message.created_at, next(self._expiry_seq), message))

    def _evict_one(self) -> None:
        """Drop the oldest message (FIFO by creation time)."""
        if not self.buffer:
            return
        victim = min(self.buffer.values(), key=lambda m: (m.created_at, m.msg_id))
        del self.buffer[victim.msg_id]
        if self.cures is not None:
            self._unindex(victim)
        self.stats.counter("routing.evicted").add(1)

    def _expire_buffer(self) -> None:
        now = self.node.sim.now
        buffer = self.buffer
        dropped = 0
        for ttl, heap in self._expiry.items():
            while heap:
                created_at, _, message = heap[0]
                if buffer.get(message.msg_id) is not message:
                    # Already left the buffer (forwarded away or evicted).
                    heappop(heap)
                elif now - created_at > ttl:
                    heappop(heap)
                    del buffer[message.msg_id]
                    if self.cures is not None:
                        self._unindex(message)
                    dropped += 1
                else:
                    break
        if dropped:
            self.stats.counter("routing.dropped_expired").add(dropped)

    def _deliver(self, message: Message) -> None:
        now = self.node.sim.now
        self.deliveries.append(
            DeliveryRecord(
                msg_id=message.msg_id,
                kind=message.kind,
                src=message.src,
                dst=self.node.node_id,
                created_at=message.created_at,
                delivered_at=now,
            )
        )
        self.stats.counter(f"routing.delivered.{message.kind}").add(1)
        self.stats.tally(f"routing.delay.{message.kind}").observe(now - message.created_at)
        for callback in self._callbacks.get(message.kind, []):
            callback(message)
