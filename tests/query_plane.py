"""Query-plane test helpers: an invariant monitor and the plane without
cures.

:class:`QueryPlaneMonitor` wraps one wired runtime's transfer path,
answer recording and response origination (instance attributes only, so
nothing else sees it) and checks, while the run goes and after it:

- no requester records a second answer;
- a requester never carries its own answered query, nor is sent it;
- no node buffers, forwards or originates a response to a query it
  knows is cured;
- every cure names a query whose requester holds an answer, and expires
  at its issue time + 2 x query TTL;
- after an expiry pass, no cure outlives that time;
- after every event, the two ends of every open contact know the same
  live cures (:meth:`QueryPlaneMonitor.check_contacts`, for runs driven
  one event at a time).

:func:`uncured_paths` swaps in test-local copies of the query-plane
methods as they were before cures, the reference the cured plane's first
answers are compared against.
"""

from contextlib import ExitStack, contextmanager
from heapq import heappush
from unittest import mock

from repro.caching.query import QueryManager
from repro.obs.records import QueryHit, QueryMiss
from repro.routing.base import RoutingAgent
from repro.routing.epidemic import EpidemicRouting, _has_hops


class QueryPlaneMonitor:
    """Collects query-plane invariant violations of one runtime."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.violations: list[str] = []
        self.managers = runtime.query_managers
        self.agents = {
            nid: runtime.nodes[nid].find_handler(RoutingAgent)
            for nid in self.managers
        }
        transfer = runtime.network.transfer

        def checked_transfer(message, sender, receiver):
            self._check_send(message, sender.node_id, receiver.node_id)
            return transfer(message, sender, receiver)

        runtime.network.transfer = checked_transfer
        for nid, manager in self.managers.items():
            manager._record_answer = self._checked_record(manager._record_answer)
            agent = self.agents[nid]
            agent.originate = self._checked_originate(nid, agent.originate)

    def _record(self, query_id):
        for manager in self.managers.values():
            record = manager._records_by_id.get(query_id)
            if record is not None:
                return record
        return None

    def _checked_record(self, record_answer):
        def checked(record, *args):
            if record.answered:
                self.violations.append(
                    f"query {record.query_id}: second answer at {args[-1]}"
                )
            return record_answer(record, *args)
        return checked

    def _checked_originate(self, nid, originate):
        def checked(message):
            cures = self.agents[nid].cures
            if cures is not None and cures.key(message) in cures:
                self.violations.append(
                    f"node {nid} originates a response to cured query "
                    f"{cures.key(message)}"
                )
            return originate(message)
        return checked

    def _check_send(self, message, nid, to) -> None:
        if message.kind == "response":
            cures = self.agents[nid].cures
            if cures is not None and cures.key(message) in cures:
                self.violations.append(
                    f"node {nid} forwards a response to cured query "
                    f"{cures.key(message)}"
                )
        elif message.kind == "query" and message.src in (nid, to):
            record = self.managers[message.src]._records_by_id.get(
                message.payload["query_id"])
            if record is not None and record.answered:
                self.violations.append(
                    f"requester {message.src} carries its answered query "
                    f"{record.query_id} ({nid} -> {to})"
                )

    def check_contacts(self) -> None:
        """Note every open contact whose two ends know different live
        cures (expiry at or after now)."""
        now = self.runtime.sim.now
        live = {}
        for nid, agent in self.agents.items():
            if agent.cures is not None:
                live[nid] = {query_id for query_id, expires_at
                             in agent.cures.expires.items() if expires_at >= now}
        for nid, mine in live.items():
            for peer_id in self.runtime.nodes[nid].neighbors:
                theirs = live.get(peer_id)
                if peer_id > nid and theirs is not None and mine != theirs:
                    self.violations.append(
                        f"open contact {nid}-{peer_id} at {now}: cures "
                        f"{sorted(mine ^ theirs)} known at one end only"
                    )

    def check(self) -> list[str]:
        """The violations seen so far plus those of the final state,
        after one expiry pass on every node."""
        now = self.runtime.sim.now
        for nid, manager in self.managers.items():
            for query_id in manager._carried:
                record = manager._records_by_id.get(query_id)
                if record is not None and record.answered:
                    self.violations.append(
                        f"requester {nid} carries its answered query {query_id}"
                    )
            agent = self.agents[nid]
            cures = agent.cures
            if cures is None:
                continue
            for message in agent.buffer.values():
                if cures.key(message) in cures:
                    self.violations.append(
                        f"node {nid} buffers a response to cured query "
                        f"{cures.key(message)}"
                    )
            for query_id, expires_at in cures.expires.items():
                record = self._record(query_id)
                if record is None or not record.answered:
                    self.violations.append(
                        f"node {nid} holds a cure of unanswered query {query_id}"
                    )
                elif expires_at != record.issued_at + 2 * manager.query_ttl:
                    self.violations.append(
                        f"node {nid}: cure of query {query_id} expires at "
                        f"{expires_at}, not issue time + 2 x TTL"
                    )
            cures.expire(now)
            stale = [q for q, at in cures.expires.items() if at < now]
            if stale:
                self.violations.append(
                    f"node {nid} keeps expired cures {stale} at {now}"
                )
        return self.violations


# -- the query plane without cures ------------------------------------------


def manager_on_start(self):
    """``QueryManager.on_start`` without handing cures to the agent."""
    agent = self.node.find_handler(RoutingAgent)
    if agent is not None:
        agent.on_delivery("response", self._on_response)


def manager_on_message(self, message, sender):
    """``QueryManager.on_message`` without cures, and with a requester
    that takes its own answered query back."""
    if message.kind != "query":
        return
    query_id = message.payload["query_id"]
    item_id = message.payload["item_id"]
    now = self.node.sim.now
    if query_id in self._carried or query_id in self._answered:
        return
    answer = self._find_answer(item_id)
    if answer is not None:
        self._answered.add(query_id)
        if self.trace is not None:
            self.trace.emit(QueryHit(now, self.node.node_id, query_id, item_id,
                                     answer[0], False))
        self._send_response(message, answer)
        return
    if self.trace is not None:
        self.trace.emit(QueryMiss(now, self.node.node_id, query_id, item_id))
    self._carried[query_id] = message
    self._forwarded_to.setdefault(query_id, set()).add(sender.node_id)
    for peer_id in self.node.neighbors:
        if peer_id != sender.node_id:
            self._forward_to(message, self.node.network.nodes[peer_id])


def manager_forward_to(self, message, peer):
    """``QueryManager._forward_to`` that offers a requester its own
    answered query."""
    query_id = message.payload["query_id"]
    if message.hops_left is not None and message.hops_left <= 0:
        return
    given = self._forwarded_to.setdefault(query_id, set())
    if peer.node_id in given:
        return
    peer_manager = peer.find_handler(QueryManager)
    if isinstance(peer_manager, QueryManager) and query_id in peer_manager._carried:
        return
    outgoing = message.copy()
    if outgoing.hops_left is not None:
        outgoing.hops_left -= 1
    if self.node.send(outgoing, peer):
        given.add(peer.node_id)
        self.stats.counter("query.forwarded").add(1)


def manager_on_response(self, message):
    """``QueryManager._on_response`` without curing the query."""
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
    self._carried.pop(record.query_id, None)
    self._forwarded_to.pop(record.query_id, None)


def agent_on_message(self, message, sender):
    """``RoutingAgent.on_message`` that never refuses a message."""
    if message.dst == self.node.node_id:
        if message.msg_id not in self.seen:
            self.seen.add(message.msg_id)
            self._notify_custody(message, sender)
            self._deliver(message)
        return
    if message.msg_id in self.seen and message.msg_id not in self.buffer:
        self.stats.counter("routing.duplicates").add(1)
        return
    if message.msg_id not in self.seen:
        self._notify_custody(message, sender)
    self.seen.add(message.msg_id)
    self._store(message)
    stored = self.buffer.get(message.msg_id)
    if stored is None:
        return
    for peer_id in list(self.node.neighbors):
        if peer_id != sender.node_id:
            self._try_forward_one(stored, self.node.network.nodes[peer_id])


def agent_store(self, message):
    """``RoutingAgent._store`` without the index by cure."""
    if message.expired(self.node.sim.now):
        self.stats.counter("routing.dropped_expired").add(1)
        return
    if message.msg_id in self.buffer:
        return
    if self.buffer_capacity is not None and len(self.buffer) >= self.buffer_capacity:
        self._evict_one()
    self.buffer[message.msg_id] = message
    if message.ttl is not None:
        heap = self._expiry.setdefault(message.ttl, [])
        heappush(heap, (message.created_at, next(self._expiry_seq), message))


def epidemic_forward_all(self, peer):
    """``EpidemicRouting._try_forward_all`` without the cure exchange."""
    peer_agent = self.peer_agent(peer)
    if peer_agent is None:
        offers = [m for m in self.buffer.values() if m.dst == peer.node_id]
    else:
        seen = peer_agent.seen
        offers = [m for mid, m in self.buffer.items() if mid not in seen]
    now = self.node.sim.now
    for message in offers:
        if not message.expired(now) and _has_hops(message):
            self._forward(message, peer)


@contextmanager
def uncured_paths():
    """Run everything inside on the query plane as it was before cures."""
    patches = [
        (QueryManager, "on_start", manager_on_start),
        (QueryManager, "on_message", manager_on_message),
        (QueryManager, "_forward_to", manager_forward_to),
        (QueryManager, "_on_response", manager_on_response),
        (RoutingAgent, "on_message", agent_on_message),
        (RoutingAgent, "_store", agent_store),
        (EpidemicRouting, "_try_forward_all", epidemic_forward_all),
    ]
    with ExitStack() as stack:
        for owner, name, reference in patches:
            stack.enter_context(mock.patch.object(owner, name, reference))
        yield
