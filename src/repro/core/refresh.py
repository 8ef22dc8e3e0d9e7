"""Runtime refresh protocol handlers.

Three handlers implement the data plane of cache refreshment:

- :class:`SourceHandler` -- runs on each source node: generates new
  versions of its items on a periodic (optionally jittered) schedule,
  records ground truth into the shared
  :class:`~repro.caching.items.VersionHistory`, and kicks the
  distribution handler on the same node.
- :class:`HdrRefreshHandler` -- the scheme (and the tree-structured
  baselines): each node tracks *pending refresh tasks* -- (item, target)
  pairs it is responsible for delivering a version to, either as the
  target's tree parent or as a recruited relay.  On every contact it
  (a) delivers tasks whose target is the peer, (b) hands copies to the
  peer when the peer is a planned relay for one of its tasks, and
  (c) suppresses tasks the peer has already satisfied (the version
  handshake, modelled by peeking at the peer handler).  A caching node
  that learns a new version immediately becomes responsible for its own
  children -- this cascade is the "distributed and hierarchical"
  maintenance of the paper.
- :class:`FloodingRefreshHandler` -- the epidemic upper bound: every
  node gossips the newest version it carries to every peer.

Delivered updates are appended to a shared update log
(:class:`RefreshUpdate` records) from which the metrics layer computes
refresh delays and on-time ratios.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.caching.items import CacheEntry, DataCatalog, DataItem, VersionHistory
from repro.caching.store import CacheStore
from repro.obs.records import TaskCreate, TaskDrop

from repro.sim.messages import Message
from repro.sim.node import Node, ProtocolHandler
from repro.sim.stats import StatsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.contacts.rates import RateTable
    from repro.core.hierarchy import RefreshTree
    from repro.core.replication import RelayPlan

REFRESH_OVERHEAD = 64


@dataclass
class RefreshUpdate:
    """One successful version update at one caching node."""

    item_id: int
    node: int
    version: int
    version_time: float
    updated_at: float
    via: str  # "seed", "direct", "relay", "flood"

    @property
    def delay(self) -> float:
        return self.updated_at - self.version_time


@dataclass
class _PendingRefresh:
    """A version this node must still deliver to one target.

    ``seq`` replicates dict insertion order so the indexed contact path
    processes tasks in exactly the order a scan of ``tasks`` would
    (replacing a live task keeps its position, like a dict value
    assignment; re-creating a dropped key moves it to the end).
    """

    version: int
    version_time: float
    may_recruit: bool
    seq: int = 0
    handed_to: set[int] = field(default_factory=set)


class SourceHandler(ProtocolHandler):
    """Version generation at a source node."""

    handled_kinds = frozenset()

    def __init__(
        self,
        items: list[DataItem],
        history: VersionHistory,
        stats: Optional[StatsRegistry] = None,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if jitter > 0 and rng is None:
            raise ValueError("a jittered refresh schedule needs an rng")
        self.items = list(items)
        self.history = history
        self.stats = stats or StatsRegistry()
        self.jitter = jitter
        self.rng = rng
        self.current: dict[int, tuple[int, float]] = {}
        self._listeners: list[Callable[[DataItem, int, float], None]] = []
        #: while True, scheduled bumps keep firing but publish nothing --
        #: a data-source outage window (see repro.faults); the schedule
        #: itself stays alive so resuming needs no re-wiring
        self.suspended = False

    def on_new_version(self, listener: Callable[[DataItem, int, float], None]) -> None:
        """Register a distribution handler to kick after each bump."""
        self._listeners.append(listener)

    def current_version(self, item_id: int) -> tuple[int, float]:
        """Authoritative ``(version, version_time)``; (0, 0.0) before v1."""
        return self.current.get(item_id, (0, 0.0))

    def answer_provider(self, item_id: int) -> Optional[tuple[int, float]]:
        """Query-answer provider exposing the authoritative version."""
        version, vtime = self.current_version(item_id)
        return (version, vtime) if version > 0 else None

    def on_start(self) -> None:
        now = self.node.sim.now
        for item in self.items:
            self._publish(item)
            self.node.sim.schedule_at(now + self._gap(item), self._bump, item)

    def _gap(self, item: DataItem) -> float:
        if self.jitter > 0:
            span = self.jitter * item.refresh_interval
            return item.refresh_interval + float(self.rng.uniform(-span, span))
        return item.refresh_interval

    def suspend(self) -> None:
        """Stall version generation (data-source outage)."""
        self.suspended = True

    def resume(self) -> None:
        """End an outage; the next scheduled bump publishes again."""
        self.suspended = False

    def _bump(self, item: DataItem) -> None:
        if self.suspended:
            self.stats.counter("refresh.publishes_stalled").add(1)
        else:
            self._publish(item)
        self.node.sim.schedule_after(self._gap(item), self._bump, item)

    def _publish(self, item: DataItem) -> None:
        now = self.node.sim.now
        version = self.current.get(item.item_id, (0, 0.0))[0] + 1
        self.current[item.item_id] = (version, now)
        self.history.record(item.item_id, version, now)
        self.stats.counter("refresh.versions_published").add(1)
        for listener in self._listeners:
            listener(item, version, now)


class HdrRefreshHandler(ProtocolHandler):
    """Hierarchical distributed refreshment (and its tree baselines).

    One instance runs on every node.  Caching nodes own a
    :class:`CacheStore`; pure relays only carry pending tasks.  The
    handler needs the item trees and per-edge relay plans, which the
    scheme builder computes (see :mod:`repro.core.scheme`).
    """

    handled_kinds = frozenset({"refresh", "refresh_relay"})

    def __init__(
        self,
        catalog: DataCatalog,
        trees: dict[int, "RefreshTree"],
        plans: dict[tuple[int, int, int], "RelayPlan"],
        update_log: list[RefreshUpdate],
        stats: StatsRegistry,
        store: Optional[CacheStore] = None,
        rates: Optional["RateTable"] = None,
        relay_budget: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.catalog = catalog
        self.trees = trees
        self.plans = plans
        self.update_log = update_log
        self.stats = stats
        self.store = store
        self.rates = rates
        #: per-version cap on relay handoffs (None = unbounded); models
        #: the bounded energy a device spends on one refresh round
        self.relay_budget = relay_budget
        self.tasks: dict[tuple[int, int], _PendingRefresh] = {}
        self._recruits_used: dict[tuple[int, int], int] = {}
        # Per-contact index over `tasks`: keys grouped by delivery target,
        # plus the recruit-capable subset.  A contact with peer P only
        # touches tasks targeting P and tasks P could relay, instead of
        # scanning everything this node carries.
        self._by_target: dict[int, set[tuple[int, int]]] = {}
        self._recruitable: set[tuple[int, int]] = set()
        self._task_seq = 0
        #: min-heap of (expiry, key, version) -- lets the indexed path
        #: garbage-collect expired tasks at exactly the contacts a scan
        #: of every task would, which matters because a drop frees the
        #: task's dict slot (a later re-add appends instead of
        #: replacing in place, changing processing order).  Entries go
        #: stale when a task is dropped or replaced; the version check
        #: at drain time skips them (a version uniquely determines its
        #: version_time, hence its expiry).
        self._task_expiry: list[tuple[float, tuple[int, int], int]] = []
        #: optional :class:`repro.obs.bus.EventBus` for task records
        self.trace = None

    # -- versions this node knows ------------------------------------------

    def known_version(self, item_id: int) -> int:
        """Newest version of ``item_id`` this node holds (0 = none).

        For the item's source this is the authoritative version.
        """
        source_handler = self.node.find_handler(SourceHandler)
        if isinstance(source_handler, SourceHandler):
            version, _ = source_handler.current_version(item_id)
            if version > 0:
                return version
        if self.store is not None:
            entry = self.store.peek(item_id)
            if entry is not None:
                return entry.version
        return 0

    def pending_version_for(self, item_id: int, target: int) -> int:
        """Version of the pending task for (item, target), 0 if none."""
        task = self.tasks.get((item_id, target))
        return task.version if task else 0

    # -- seeding and source kick ---------------------------------------------

    def seed_entry(self, item: DataItem, version: int, version_time: float) -> None:
        """Pre-place a version in this caching node's store (warm start)."""
        if self.store is None:
            raise RuntimeError(f"node {self.node.node_id} has no cache store")
        now = self.node.sim.now if self.node.network else version_time
        self.store.put(
            CacheEntry(
                item_id=item.item_id,
                version=version,
                version_time=version_time,
                cached_at=now,
            ),
            now,
        )
        self.update_log.append(
            RefreshUpdate(
                item_id=item.item_id,
                node=self.node.node_id,
                version=version,
                version_time=version_time,
                updated_at=now,
                via="seed",
            )
        )

    def source_published(self, item: DataItem, version: int, version_time: float) -> None:
        """SourceHandler listener: become responsible for the root's children."""
        self._assume_responsibility(item, version, version_time)

    def _assume_responsibility(self, item: DataItem, version: int, version_time: float) -> None:
        tree = self.trees.get(item.item_id)
        if tree is None:
            return
        me = self.node.node_id
        for child in tree.children_of(me):
            self._set_task(item.item_id, child, version, version_time, may_recruit=True)
        # Children may be reachable right now.
        self._work_open_contacts()

    def _set_task(
        self, item_id: int, target: int, version: int, version_time: float, may_recruit: bool
    ) -> None:
        key = (item_id, target)
        existing = self.tasks.get(key)
        if existing is not None and existing.version >= version:
            return
        if existing is not None:
            seq = existing.seq  # value replacement keeps the dict position
        else:
            self._task_seq += 1
            seq = self._task_seq
            self._by_target.setdefault(target, set()).add(key)
        self.tasks[key] = _PendingRefresh(
            version=version, version_time=version_time,
            may_recruit=may_recruit, seq=seq,
        )
        heapq.heappush(
            self._task_expiry,
            (version_time + self.catalog.get(item_id).lifetime, key, version),
        )
        if may_recruit:
            self._recruitable.add(key)
        else:
            self._recruitable.discard(key)
        if self.trace is not None:
            self.trace.emit(
                TaskCreate(self.node.sim.now, self.node.node_id, item_id,
                           target, version, may_recruit)
            )

    def _drop_task(self, key: tuple[int, int], reason: str = "delivered") -> None:
        task = self.tasks[key]
        del self.tasks[key]
        bucket = self._by_target.get(key[1])
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del self._by_target[key[1]]
        self._recruitable.discard(key)
        if self.trace is not None:
            self.trace.emit(
                TaskDrop(self.node.sim.now, self.node.node_id, key[0],
                         key[1], task.version, reason)
            )

    # -- contact machinery ----------------------------------------------------

    def on_contact_start(self, peer: Node) -> None:
        self._process_tasks(peer)

    def _work_open_contacts(self) -> None:
        if self.node.network is None:
            return
        for peer_id in self.node.neighbors:
            self._process_tasks(self.node.network.nodes[peer_id])

    def _process_tasks(self, peer: Node) -> None:
        """Work the tasks this contact can advance.

        The indexed path visits only tasks targeting ``peer`` plus the
        recruit-capable ones, in task-creation (``seq``) order -- exactly
        the order a scan of every task would process them, so the
        message sequence is identical.  Expired tasks are
        garbage-collected from the expiry heap first, which reproduces
        the scan's drop timing exactly (the scan drops *every* expired
        task on *every* contact, and a drop frees the dict slot a later
        re-add would otherwise replace in place).
        """
        now = self.node.sim.now
        expiry_heap = self._task_expiry
        while expiry_heap and expiry_heap[0][0] <= now:
            _, key, version = heapq.heappop(expiry_heap)
            stale = self.tasks.get(key)
            if stale is not None and stale.version == version:
                self._drop_task(key, reason="expired")
                self.stats.counter("refresh.tasks_expired").add(1)
        if not self.tasks:
            return
        pid = peer.node_id
        targeted = self._by_target.get(pid)
        if targeted:
            keys = self._recruitable | targeted
        elif self._recruitable:
            keys = set(self._recruitable)
        else:
            return
        tasks = self.tasks
        candidates = sorted((tasks[key].seq, key) for key in keys)
        peer_handler = peer.find_handler(HdrRefreshHandler)
        for _, key in candidates:
            task = tasks.get(key)
            if task is None:
                continue
            item_id, target = key
            item = self.catalog.get(item_id)
            if now >= task.version_time + item.lifetime:
                # The version expired in transit; delivering it is useless.
                self._drop_task(key, reason="expired")
                self.stats.counter("refresh.tasks_expired").add(1)
                continue
            if pid == target:
                self._deliver_to_target(item, target, task, peer, peer_handler)
            elif task.may_recruit:
                self._maybe_recruit(item, target, task, peer, peer_handler)

    def _deliver_to_target(
        self,
        item: DataItem,
        target: int,
        task: _PendingRefresh,
        peer: Node,
        peer_handler: Optional[ProtocolHandler],
    ) -> None:
        if isinstance(peer_handler, HdrRefreshHandler):
            if peer_handler.known_version(item.item_id) >= task.version:
                # Another copy beat us to it: the handshake suppresses the send.
                self._drop_task((item.item_id, target), reason="suppressed")
                self.stats.counter("refresh.suppressed").add(1)
                return
        message = Message(
            kind="refresh",
            src=self.node.node_id,
            dst=target,
            created_at=self.node.sim.now,
            size=item.size + REFRESH_OVERHEAD,
            payload={
                "item_id": item.item_id,
                "version": task.version,
                "version_time": task.version_time,
            },
        )
        if self.node.send(message, peer):
            self._drop_task((item.item_id, target))

    def _relay_qualifies(self, plan, target: int, peer_id: int) -> bool:
        """Whether an encountered node is worth recruiting as a relay.

        The plan's ``num_relays`` is the *analytically provisioned copy
        count* k for this edge; the runtime recruits the first k
        encountered nodes that qualify.  A node qualifies if the plan
        pre-ranked it among the best relays, or if its estimated contact
        rate to the target beats the parent's own (it is a strictly
        better carrier).  A distributed node cannot wait for specific
        relays it may never meet -- recruitment must work with whoever
        shows up, which is exactly why the provisioning is
        probabilistic.
        """
        if peer_id in plan.relays:
            return True
        if self.rates is None:
            return False
        peer_rate = self.rates.rate(peer_id, target)
        own_rate = self.rates.rate(self.node.node_id, target)
        return peer_rate > own_rate

    def _maybe_recruit(
        self,
        item: DataItem,
        target: int,
        task: _PendingRefresh,
        peer: Node,
        peer_handler: Optional[ProtocolHandler],
    ) -> None:
        plan = self.plans.get((item.item_id, self.node.node_id, target))
        if plan is None or plan.num_relays == 0:
            return
        if peer.node_id in task.handed_to or len(task.handed_to) >= plan.num_relays:
            return
        budget_key = (item.item_id, task.version)
        if (
            self.relay_budget is not None
            and self._recruits_used.get(budget_key, 0) >= self.relay_budget
        ):
            self.stats.counter("refresh.budget_exhausted").add(1)
            return
        if not self._relay_qualifies(plan, target, peer.node_id):
            return
        if isinstance(peer_handler, HdrRefreshHandler):
            if peer_handler.known_version(item.item_id) >= task.version:
                return
            if peer_handler.pending_version_for(item.item_id, target) >= task.version:
                task.handed_to.add(peer.node_id)
                return
        message = Message(
            kind="refresh_relay",
            src=self.node.node_id,
            dst=peer.node_id,
            created_at=self.node.sim.now,
            size=item.size + REFRESH_OVERHEAD,
            payload={
                "item_id": item.item_id,
                "version": task.version,
                "version_time": task.version_time,
                "target": target,
            },
        )
        if self.node.send(message, peer):
            task.handed_to.add(peer.node_id)
            self._recruits_used[budget_key] = self._recruits_used.get(budget_key, 0) + 1
            self.stats.counter("refresh.relays_recruited").add(1)

    # -- receiving ---------------------------------------------------------------

    def on_message(self, message: Message, sender: Node) -> None:
        item_id = message.payload["item_id"]
        version = message.payload["version"]
        version_time = message.payload["version_time"]
        item = self.catalog.get(item_id)
        if message.kind == "refresh_relay":
            target = message.payload["target"]
            self._set_task(item_id, target, version, version_time, may_recruit=False)
            return
        # kind == "refresh": this node is the target.  Record whether the
        # copy came straight from the tree parent or via a recruited relay.
        tree = self.trees.get(item_id)
        parent = tree.parent_of(self.node.node_id) if tree else None
        via = "direct" if parent == sender.node_id else "relay"
        self._apply_update(item, version, version_time, via=via)

    def _apply_update(self, item: DataItem, version: int, version_time: float, via: str) -> None:
        if self.store is None:
            # Not a caching node (can happen after reconfiguration); ignore.
            self.stats.counter("refresh.delivered_to_non_cache").add(1)
            return
        now = self.node.sim.now
        changed = self.store.put(
            CacheEntry(
                item_id=item.item_id,
                version=version,
                version_time=version_time,
                cached_at=now,
            ),
            now,
        )
        if not changed:
            self.stats.counter("refresh.stale_delivery").add(1)
            return
        self.update_log.append(
            RefreshUpdate(
                item_id=item.item_id,
                node=self.node.node_id,
                version=version,
                version_time=version_time,
                updated_at=now,
                via=via,
            )
        )
        self.stats.counter("refresh.updates").add(1)
        self.stats.tally("refresh.delay").observe(now - version_time)
        # Hierarchical cascade: now refresh my own children.
        self._assume_responsibility(item, version, version_time)


class InvalidationRefreshHandler(ProtocolHandler):
    """Invalidation-based consistency: the classic alternative baseline.

    Instead of pushing fresh *data*, the source gossips tiny
    **invalidation notices** ("item i is now at version v") epidemically
    through every node.  A caching node that learns its copy is outdated
    drops it immediately -- so it never serves data staler than the
    notice latency -- and re-acquires the item only on direct contact
    with the source (which pushes the current version, full size).

    The trade-off against refresh schemes: validity of what *is* served
    is excellent and the gossip is cheap in bytes, but availability and
    freshness collapse to source-only levels because invalidation
    removes copies without replacing them.  Classic cache-consistency
    literature; reproduced here as the E13 comparison.
    """

    handled_kinds = frozenset({"invalidate", "refresh"})

    INVALIDATION_SIZE = 64

    def __init__(
        self,
        catalog: DataCatalog,
        caching_nodes: frozenset[int],
        update_log: list[RefreshUpdate],
        stats: StatsRegistry,
        store: Optional[CacheStore] = None,
    ) -> None:
        super().__init__()
        self.catalog = catalog
        self.caching_nodes = caching_nodes
        self.update_log = update_log
        self.stats = stats
        self.store = store
        #: newest version this node has *heard of*, per item
        self.notices: dict[int, tuple[int, float]] = {}
        #: per-peer watermark: the newest notice each peer was *observed*
        #: holding (via handshake peeks and received messages).  Noticed
        #: versions only grow, so a watermark-skip corresponds exactly to
        #: a peek that would have suppressed the send anyway.
        self._peer_seen: dict[int, dict[int, int]] = {}
        #: per-peer count of notices whose watermark already covers our
        #: noticed version -- when it equals ``len(notices)`` the gossip
        #: scan is skipped outright (see FloodingRefreshHandler).
        self._peer_known: dict[int, int] = {}

    def noticed_version(self, item_id: int) -> int:
        return self.notices.get(item_id, (0, 0.0))[0]

    def _observe_peer(self, peer_id: int, item_id: int, version: int) -> None:
        seen = self._peer_seen.get(peer_id)
        if seen is None:
            seen = self._peer_seen[peer_id] = {}
            self._peer_known[peer_id] = 0
        wm = seen.get(item_id, 0)
        if version > wm:
            seen[item_id] = version
            notice = self.notices.get(item_id)
            if notice is not None and wm < notice[0] <= version:
                self._peer_known[peer_id] += 1

    def _set_notice(self, item_id: int, version: int, version_time: float) -> None:
        prev = self.notices.get(item_id)
        self.notices[item_id] = (version, version_time)
        old = prev[0] if prev is not None else None
        if old == version:
            return
        for peer_id, seen in self._peer_seen.items():
            wm = seen.get(item_id, 0)
            if (old is not None and wm >= old) is not (wm >= version):
                self._peer_known[peer_id] += 1 if wm >= version else -1

    def seed_entry(self, item: DataItem, version: int, version_time: float) -> None:
        self._set_notice(item.item_id, version, version_time)
        if self.store is not None:
            now = self.node.sim.now if self.node.network else version_time
            self.store.put(
                CacheEntry(
                    item_id=item.item_id,
                    version=version,
                    version_time=version_time,
                    cached_at=now,
                ),
                now,
            )
            self.update_log.append(
                RefreshUpdate(
                    item_id=item.item_id,
                    node=self.node.node_id,
                    version=version,
                    version_time=version_time,
                    updated_at=now,
                    via="seed",
                )
            )

    def source_published(self, item: DataItem, version: int, version_time: float) -> None:
        self._set_notice(item.item_id, version, version_time)
        self._gossip_open_contacts()

    def _my_source_handler(self) -> Optional[SourceHandler]:
        handler = self.node.find_handler(SourceHandler)
        return handler if isinstance(handler, SourceHandler) else None

    def on_contact_start(self, peer: Node) -> None:
        self._gossip_to(peer)
        self._push_data_if_source(peer)

    def _gossip_open_contacts(self) -> None:
        if self.node.network is None:
            return
        for peer_id in self.node.neighbors:
            self._gossip_to(self.node.network.nodes[peer_id])

    def _gossip_to(self, peer: Node) -> None:
        if not self.notices:
            return
        pid = peer.node_id
        if self._peer_known.get(pid) == len(self.notices):
            return
        seen = self._peer_seen.get(pid)
        if seen is None:
            seen = self._peer_seen[pid] = {}
            self._peer_known[pid] = 0
        peer_handler = peer.find_handler(InvalidationRefreshHandler)
        if not isinstance(peer_handler, InvalidationRefreshHandler):
            return
        now = self.node.sim.now
        for item_id, (version, version_time) in self.notices.items():
            wm = seen.get(item_id, 0)
            if wm >= version:
                continue
            peer_version = peer_handler.noticed_version(item_id)
            if peer_version > wm:
                seen[item_id] = peer_version
                if peer_version >= version:
                    self._peer_known[pid] += 1
            if peer_version >= version:
                continue
            message = Message(
                kind="invalidate",
                src=self.node.node_id,
                dst=peer.node_id,
                created_at=now,
                size=self.INVALIDATION_SIZE,
                payload={
                    "item_id": item_id,
                    "version": version,
                    "version_time": version_time,
                },
            )
            self.node.send(message, peer)

    def _push_data_if_source(self, peer: Node) -> None:
        source_handler = self._my_source_handler()
        if source_handler is None or peer.node_id not in self.caching_nodes:
            return
        peer_handler = peer.find_handler(InvalidationRefreshHandler)
        if not isinstance(peer_handler, InvalidationRefreshHandler):
            return
        now = self.node.sim.now
        for item in source_handler.items:
            version, version_time = source_handler.current_version(item.item_id)
            if version == 0 or now >= version_time + item.lifetime:
                continue
            entry = peer_handler.store.peek(item.item_id) if peer_handler.store else None
            if entry is not None and entry.version >= version:
                continue
            message = Message(
                kind="refresh",
                src=self.node.node_id,
                dst=peer.node_id,
                created_at=now,
                size=item.size + REFRESH_OVERHEAD,
                payload={
                    "item_id": item.item_id,
                    "version": version,
                    "version_time": version_time,
                },
            )
            self.node.send(message, peer)

    def on_message(self, message: Message, sender: Node) -> None:
        item_id = message.payload["item_id"]
        version = message.payload["version"]
        version_time = message.payload["version_time"]
        # The sender provably holds a notice for at least this version.
        self._observe_peer(sender.node_id, item_id, version)
        if message.kind == "invalidate":
            if self.noticed_version(item_id) >= version:
                return
            self._set_notice(item_id, version, version_time)
            if self.store is not None:
                entry = self.store.peek(item_id)
                if entry is not None and entry.version < version:
                    self.store.remove(item_id)
                    self.stats.counter("refresh.invalidated").add(1)
            self._gossip_open_contacts()
            return
        # kind == "refresh": data pushed by the source.
        if self.store is None:
            return
        now = self.node.sim.now
        if self.store.put(
            CacheEntry(
                item_id=item_id,
                version=version,
                version_time=version_time,
                cached_at=now,
            ),
            now,
        ):
            self._set_notice(
                item_id, max(version, self.noticed_version(item_id)), version_time
            )
            self.update_log.append(
                RefreshUpdate(
                    item_id=item_id,
                    node=self.node.node_id,
                    version=version,
                    version_time=version_time,
                    updated_at=now,
                    via="direct",
                )
            )
            self.stats.counter("refresh.updates").add(1)
            self.stats.tally("refresh.delay").observe(now - version_time)


class FloodingRefreshHandler(ProtocolHandler):
    """Epidemic version gossip: the freshness upper bound."""

    handled_kinds = frozenset({"refresh_flood"})

    def __init__(
        self,
        catalog: DataCatalog,
        update_log: list[RefreshUpdate],
        stats: StatsRegistry,
        store: Optional[CacheStore] = None,
    ) -> None:
        super().__init__()
        self.catalog = catalog
        self.update_log = update_log
        self.stats = stats
        self.store = store
        #: newest version this node carries, per item (caching or not)
        self.carried: dict[int, tuple[int, float]] = {}
        #: per-peer watermark of the newest version each peer was observed
        #: carrying; carried versions only grow, so skipping on the
        #: watermark suppresses exactly the sends the handshake peek
        #: would have filtered.
        self._peer_seen: dict[int, dict[int, int]] = {}
        #: per-peer count of carried items whose watermark already covers
        #: our carried version.  When it equals ``len(carried)`` the scan
        #: in :meth:`_push_to` would skip every item, so the whole
        #: exchange is a single dict lookup.  Maintained by the only two
        #: mutators of ``carried``/``_peer_seen``: :meth:`_carry` and
        #: :meth:`_observe_peer` (plus the inline peek in ``_push_to``).
        self._peer_known: dict[int, int] = {}

    def known_version(self, item_id: int) -> int:
        return self.carried.get(item_id, (0, 0.0))[0]

    def _observe_peer(self, peer_id: int, item_id: int, version: int) -> None:
        seen = self._peer_seen.get(peer_id)
        if seen is None:
            seen = self._peer_seen[peer_id] = {}
            self._peer_known[peer_id] = 0
        wm = seen.get(item_id, 0)
        if version > wm:
            seen[item_id] = version
            entry = self.carried.get(item_id)
            if entry is not None and wm < entry[0] <= version:
                self._peer_known[peer_id] += 1

    def _carry(self, item_id: int, version: int, version_time: float) -> None:
        prev = self.carried.get(item_id)
        self.carried[item_id] = (version, version_time)
        old = prev[0] if prev is not None else None
        if old == version:
            return
        for peer_id, seen in self._peer_seen.items():
            wm = seen.get(item_id, 0)
            if (old is not None and wm >= old) is not (wm >= version):
                self._peer_known[peer_id] += 1 if wm >= version else -1

    def seed_entry(self, item: DataItem, version: int, version_time: float) -> None:
        self._carry(item.item_id, version, version_time)
        if self.store is not None:
            now = self.node.sim.now if self.node.network else version_time
            self.store.put(
                CacheEntry(
                    item_id=item.item_id,
                    version=version,
                    version_time=version_time,
                    cached_at=now,
                ),
                now,
            )
            self.update_log.append(
                RefreshUpdate(
                    item_id=item.item_id,
                    node=self.node.node_id,
                    version=version,
                    version_time=version_time,
                    updated_at=now,
                    via="seed",
                )
            )

    def source_published(self, item: DataItem, version: int, version_time: float) -> None:
        self._carry(item.item_id, version, version_time)
        self._push_open_contacts()

    def on_contact_start(self, peer: Node) -> None:
        self._push_to(peer)

    def _push_open_contacts(self) -> None:
        if self.node.network is None:
            return
        for peer_id in self.node.neighbors:
            self._push_to(self.node.network.nodes[peer_id])

    def _push_to(self, peer: Node) -> None:
        if not self.carried:
            return
        pid = peer.node_id
        if self._peer_known.get(pid) == len(self.carried):
            # Every carried version was already observed at the peer,
            # so the scan below would skip every item.
            return
        seen = self._peer_seen.get(pid)
        if seen is None:
            seen = self._peer_seen[pid] = {}
            self._peer_known[pid] = 0
        peer_handler = peer.find_handler(FloodingRefreshHandler)
        if not isinstance(peer_handler, FloodingRefreshHandler):
            return
        now = self.node.sim.now
        for item_id, (version, version_time) in self.carried.items():
            wm = seen.get(item_id, 0)
            if wm >= version:
                continue
            item = self.catalog.get(item_id)
            if now >= version_time + item.lifetime:
                continue
            peer_version = peer_handler.known_version(item_id)
            if peer_version > wm:
                seen[item_id] = peer_version
                if peer_version >= version:
                    self._peer_known[pid] += 1
            if peer_version >= version:
                continue
            message = Message(
                kind="refresh_flood",
                src=self.node.node_id,
                dst=peer.node_id,
                created_at=now,
                size=item.size + REFRESH_OVERHEAD,
                payload={
                    "item_id": item_id,
                    "version": version,
                    "version_time": version_time,
                },
            )
            self.node.send(message, peer)

    def on_message(self, message: Message, sender: Node) -> None:
        item_id = message.payload["item_id"]
        version = message.payload["version"]
        version_time = message.payload["version_time"]
        # The sender provably carries at least this version.
        self._observe_peer(sender.node_id, item_id, version)
        if self.known_version(item_id) >= version:
            return
        self._carry(item_id, version, version_time)
        if self.store is not None:
            item = self.catalog.get(item_id)
            now = self.node.sim.now
            if self.store.put(
                CacheEntry(
                    item_id=item_id,
                    version=version,
                    version_time=version_time,
                    cached_at=now,
                ),
                now,
            ):
                self.update_log.append(
                    RefreshUpdate(
                        item_id=item_id,
                        node=self.node.node_id,
                        version=version,
                        version_time=version_time,
                        updated_at=now,
                        via="flood",
                    )
                )
                self.stats.counter("refresh.updates").add(1)
                self.stats.tally("refresh.delay").observe(now - version_time)
        # Gossip onward over currently open contacts.
        self._push_open_contacts()
