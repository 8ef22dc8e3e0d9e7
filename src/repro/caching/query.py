"""Query dissemination and response delivery.

Data access works in two legs:

1. **Query flood** -- the requester's :class:`QueryManager` propagates a
   small query message epidemically (bounded by a hop budget and a TTL)
   until it reaches a node that can answer: a caching node holding the
   item, or the item's source.
2. **Response routing** -- the answering node builds a response carrying
   the version it holds and hands it to its routing agent addressed to
   the requester.

The requester keeps a :class:`QueryRecord` per query; whether the served
version was *fresh* or *valid* is judged afterwards by the metrics layer
against the ground-truth :class:`~repro.caching.items.VersionHistory`
(nodes themselves cannot know the source's current version -- that is
the whole problem the paper addresses).

Only the first answer counts, so once the requester holds one every
other response to the query is dead weight.  The requester then *cures*
the query: :class:`Cures` are the anti-packets of the IMMUNE/VACCINE
recovery of Zhang, Neglia, Kurose & Towsley ("Performance modeling of
epidemic routing", Computer Networks 2007).  They travel in the contact
handshake of the response plane and, like the responses they cure,
cross every open contact in the event that taught them.  A node that
knows a cure drops its copies of the query's responses and never takes,
forwards or originates one again.  The query itself still travels and
is still looked up, as before.

Answer lookup is provider-based: by default a node answers from its
cache store; the refresh schemes register an authoritative provider on
source nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.caching.items import DataCatalog
from repro.caching.store import CacheStore
from repro.obs.records import QueryComplete, QueryHit, QueryIssue, QueryMiss

from repro.routing.base import RoutingAgent
from repro.sim.messages import Message
from repro.sim.node import Node, ProtocolHandler
from repro.sim.stats import StatsRegistry

#: An answer provider returns ``(version, version_time)`` or ``None``.
AnswerProvider = Callable[[int], Optional[tuple[int, float]]]

_QUERY_IDS = itertools.count(1)

QUERY_SIZE = 64
RESPONSE_OVERHEAD = 64


@dataclass
class QueryRecord:
    """Outcome of one query, judged later against ground truth."""

    query_id: int
    requester: int
    item_id: int
    issued_at: float
    answered_at: Optional[float] = None
    version: Optional[int] = None
    version_time: Optional[float] = None
    served_by: Optional[int] = None

    @property
    def answered(self) -> bool:
        return self.answered_at is not None

    @property
    def delay(self) -> Optional[float]:
        return None if self.answered_at is None else self.answered_at - self.issued_at


class Cures:
    """The cures one node knows: ids of queries whose requester holds an
    answer, each with the time after which no response to it is alive.

    A response is created while its query is alive (at most one TTL
    after the query was issued) and lives one TTL itself, so a cure
    expires at issue time + 2 x TTL and the set stays bounded by the
    queries answered in that window.  Peers pull cures from each other
    through a per-peer watermark into an append-only log, so a contact
    costs what the peer learned since the last one, not its whole set.
    """

    def __init__(self) -> None:
        #: query id -> expiry time
        self.expires: dict[int, float] = {}
        #: every cure in the order this node learned it; entries before
        #: ``_head`` have expired and are compacted away in bulk
        self._log: list[int] = []
        self._head = 0
        #: absolute log position of ``_log[0]``
        self._base = 0
        #: peer node id -> absolute position in that peer's log pulled so far
        self._marks: dict[int, int] = {}
        #: (expiry time, query id) min-heap for :meth:`expire`
        self._expiry: list[tuple[float, int]] = []

    def __contains__(self, query_id: int) -> bool:
        return query_id in self.expires

    @staticmethod
    def key(message: Message) -> int:
        """The cure a response waits on: its query id."""
        return message.payload["query_id"]

    def add(self, query_id: int, expires_at: float) -> bool:
        """Learn one cure; ``False`` if it was already known."""
        if query_id in self.expires:
            return False
        self.expires[query_id] = expires_at
        self._log.append(query_id)
        heappush(self._expiry, (expires_at, query_id))
        return True

    def pull(self, peer: "Cures", peer_id: int, now: float) -> list[int]:
        """Learn the live cures ``peer`` learned since the last pull from
        it; returns the ids new to this node."""
        self.expire(now)
        log = peer._log
        start = max(self._marks.get(peer_id, 0) - peer._base, peer._head)
        self._marks[peer_id] = peer._base + len(log)
        learned = []
        known = self.expires
        for query_id in log[start:]:
            if query_id in known:
                continue
            expires_at = peer.expires.get(query_id)
            if expires_at is not None and expires_at >= now:
                self.add(query_id, expires_at)
                learned.append(query_id)
        return learned

    def expire(self, now: float) -> None:
        """Forget every cure whose queries' responses are all dead."""
        heap = self._expiry
        if not heap or heap[0][0] >= now:
            return
        expires = self.expires
        while heap and heap[0][0] < now:
            del expires[heappop(heap)[1]]
        log, head = self._log, self._head
        while head < len(log) and log[head] not in expires:
            head += 1
        if head > len(log) // 2:
            del log[:head]
            self._base += head
            head = 0
        self._head = head


class QueryManager(ProtocolHandler):
    """Per-node query origination, forwarding, and answering."""

    handled_kinds = frozenset({"query"})

    def __init__(
        self,
        catalog: DataCatalog,
        store: Optional[CacheStore] = None,
        hop_limit: int = 4,
        query_ttl: float = 6 * 3600.0,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        super().__init__()
        self.catalog = catalog
        self.store = store
        self.hop_limit = hop_limit
        self.query_ttl = query_ttl
        self.stats = stats or StatsRegistry()
        self.records: list[QueryRecord] = []
        self._records_by_id: dict[int, QueryRecord] = {}
        #: queries this node carries and may still forward
        self._carried: dict[int, Message] = {}
        self._forwarded_to: dict[int, set[int]] = {}
        self._answered: set[int] = set()
        #: cured query ids; shared with the response agent, which
        #: exchanges them at contact start and drops cured responses
        self.cures = Cures()
        self.providers: list[AnswerProvider] = []
        if store is not None:
            self.providers.append(self._store_provider)
        #: optional :class:`repro.obs.bus.EventBus` for query records
        self.trace = None

    # -- wiring ----------------------------------------------------------

    def on_start(self) -> None:
        agent = self.node.find_handler(RoutingAgent)
        if agent is not None:
            agent.on_delivery("response", self._on_response)
            agent.cures = self.cures

    def add_provider(self, provider: AnswerProvider) -> None:
        """Register an answer source tried before the cache store."""
        self.providers.insert(0, provider)

    def _store_provider(self, item_id: int) -> Optional[tuple[int, float]]:
        if self.store is None:
            return None
        entry = self.store.lookup(item_id, self.node.sim.now)
        if entry is None:
            return None
        return entry.version, entry.version_time

    # -- query origination -------------------------------------------------

    def issue_query(self, item_id: int) -> QueryRecord:
        """Issue a query for ``item_id`` from this node."""
        if item_id not in self.catalog:
            raise KeyError(f"unknown item {item_id}")
        now = self.node.sim.now
        record = QueryRecord(
            query_id=next(_QUERY_IDS),
            requester=self.node.node_id,
            item_id=item_id,
            issued_at=now,
        )
        self.records.append(record)
        self._records_by_id[record.query_id] = record
        self.stats.counter("query.issued").add(1)
        if self.trace is not None:
            self.trace.emit(
                QueryIssue(now, self.node.node_id, record.query_id, item_id)
            )

        # Local hit: the requester itself may hold (or source) the item.
        answer = self._find_answer(item_id)
        if answer is not None:
            version, version_time = answer
            if self.trace is not None:
                self.trace.emit(
                    QueryHit(now, self.node.node_id, record.query_id,
                             item_id, answer[0], True)
                )
            self._record_answer(record, version, version_time, self.node.node_id, now)
            return record

        message = Message(
            kind="query",
            src=self.node.node_id,
            dst=None,
            created_at=now,
            size=QUERY_SIZE,
            ttl=self.query_ttl,
            hops_left=self.hop_limit,
            payload={"query_id": record.query_id, "item_id": item_id},
        )
        self._carried[record.query_id] = message
        self._forwarded_to[record.query_id] = set()
        for peer_id in self.node.neighbors:
            self._forward_to(message, self.node.network.nodes[peer_id])
        return record

    # -- contact machinery --------------------------------------------------

    def on_contact_start(self, peer: Node) -> None:
        now = self.node.sim.now
        for query_id, message in list(self._carried.items()):
            if message.expired(now):
                del self._carried[query_id]
                self._forwarded_to.pop(query_id, None)
                continue
            self._forward_to(message, peer)

    def _forward_to(self, message: Message, peer: Node) -> None:
        query_id = message.payload["query_id"]
        if message.hops_left is not None and message.hops_left <= 0:
            return
        given = self._forwarded_to.setdefault(query_id, set())
        if peer.node_id in given:
            return
        peer_manager = peer.find_handler(QueryManager)
        if isinstance(peer_manager, QueryManager) and (
            query_id in peer_manager._carried
            or peer_manager._holds_answer(query_id)
        ):
            # summary-vector shortcut: the peer already carries the
            # query, or asked it and has its answer
            return
        outgoing = message.copy()
        if outgoing.hops_left is not None:
            outgoing.hops_left -= 1
        if self.node.send(outgoing, peer):
            given.add(peer.node_id)
            self.stats.counter("query.forwarded").add(1)

    def on_message(self, message: Message, sender: Node) -> None:
        if message.kind != "query":
            return
        query_id = message.payload["query_id"]
        item_id = message.payload["item_id"]
        now = self.node.sim.now
        if (query_id in self._carried or query_id in self._answered
                or self._holds_answer(query_id)):
            return
        answer = self._find_answer(item_id)
        if answer is not None:
            self._answered.add(query_id)
            if self.trace is not None:
                self.trace.emit(
                    QueryHit(now, self.node.node_id, query_id, item_id,
                             answer[0], False)
                )
            if query_id not in self.cures:
                self._send_response(message, answer)
            return
        # Cannot answer: keep carrying the query.
        if self.trace is not None:
            self.trace.emit(
                QueryMiss(now, self.node.node_id, query_id, item_id)
            )
        self._carried[query_id] = message
        self._forwarded_to.setdefault(query_id, set()).add(sender.node_id)
        for peer_id in self.node.neighbors:
            if peer_id != sender.node_id:
                self._forward_to(message, self.node.network.nodes[peer_id])

    # -- answering ----------------------------------------------------------

    def _holds_answer(self, query_id: int) -> bool:
        """Whether this node asked ``query_id`` and has its answer."""
        record = self._records_by_id.get(query_id)
        return record is not None and record.answered

    def _find_answer(self, item_id: int) -> Optional[tuple[int, float]]:
        for provider in self.providers:
            answer = provider(item_id)
            if answer is not None:
                return answer
        return None

    def _send_response(self, query: Message, answer: tuple[int, float]) -> None:
        version, version_time = answer
        item = self.catalog.get(query.payload["item_id"])
        response = Message(
            kind="response",
            src=self.node.node_id,
            dst=query.src,
            created_at=self.node.sim.now,
            size=item.size + RESPONSE_OVERHEAD,
            ttl=self.query_ttl,
            payload={
                "query_id": query.payload["query_id"],
                "item_id": item.item_id,
                "version": version,
                "version_time": version_time,
                "served_by": self.node.node_id,
            },
        )
        self.stats.counter("query.answered").add(1)
        agent = self.node.find_handler(RoutingAgent)
        if agent is None:
            raise RuntimeError(
                f"node {self.node.node_id} answers queries but has no routing agent"
            )
        agent.originate(response)

    def _on_response(self, message: Message) -> None:
        record = self._records_by_id.get(message.payload["query_id"])
        if record is None or record.answered:
            return
        self._record_answer(
            record,
            message.payload["version"],
            message.payload["version_time"],
            message.payload["served_by"],
            self.node.sim.now,
        )
        # Stop forwarding the satisfied query, and cure it: every other
        # response to it is now dead weight.
        self._carried.pop(record.query_id, None)
        self._forwarded_to.pop(record.query_id, None)
        self.cures.add(record.query_id, record.issued_at + 2 * self.query_ttl)
        self.node.find_handler(RoutingAgent).spread_cures()

    def _record_answer(
        self,
        record: QueryRecord,
        version: int,
        version_time: float,
        served_by: int,
        now: float,
    ) -> None:
        record.answered_at = now
        record.version = version
        record.version_time = version_time
        record.served_by = served_by
        self.stats.counter("query.completed").add(1)
        self.stats.tally("query.delay").observe(now - record.issued_at)
        if self.trace is not None:
            self.trace.emit(
                QueryComplete(now, record.requester, record.query_id,
                              record.item_id, served_by,
                              now - record.issued_at)
            )
