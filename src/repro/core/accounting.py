"""Incremental freshness/validity accounting.

The freshness probe used to recompute an O(caching_nodes x catalog)
snapshot at every probe interval.  :class:`FreshnessAccountant` keeps
the same three numbers -- fresh slots, valid slots, total online slots
-- as running counters updated from three event streams:

* **store changes** (insert/upgrade/evict/remove) via
  :attr:`repro.caching.store.CacheStore.change_listener`;
* **version publishes** via a :meth:`SourceHandler.on_new_version
  <repro.core.refresh.SourceHandler.on_new_version>` listener;
* **churn** via :meth:`ContactNetwork.add_online_listener
  <repro.sim.network.ContactNetwork.add_online_listener>`.

Expiry is time-driven rather than event-driven, so validity is handled
lazily: every cached version pushes its expiry time onto a min-heap and
:meth:`FreshnessAccountant.snapshot` drains the entries that are due
before reading the counters.  A drained entry whose slot has since been
replaced by a newer version is ignored (the version stamp on the heap
entry acts as a tombstone check).

The brute-force recompute in
:meth:`SchemeRuntime.freshness_snapshot
<repro.core.scheme.SchemeRuntime.freshness_snapshot>` (``recompute=True``)
is kept as the reference the accountant is tested against.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Optional

from repro.caching.items import CacheEntry, DataCatalog


class _Slot:
    """Mirror of one (caching node, item) cache slot."""

    __slots__ = ("version", "expiry", "valid")

    def __init__(self, version: int, expiry: float, valid: bool) -> None:
        self.version = version
        self.expiry = expiry
        self.valid = valid


class FreshnessAccountant:
    """Running fresh/valid/total counters over all caching slots.

    Counter semantics match the brute-force snapshot exactly:

    * ``total`` counts every (online caching node, item) pair; offline
      nodes contribute nothing.
    * ``valid`` counts online slots holding an unexpired entry
      (``now < version_time + lifetime``).
    * ``fresh`` counts online slots holding the source's current version.

    Freshness membership is tracked independently of online state (an
    offline node keeps its store), so churn only shifts the node's
    contribution in and out of the online counters.
    """

    def __init__(self, catalog: DataCatalog, caching_nodes: Iterable[int]) -> None:
        self._lifetimes = {item.item_id: item.lifetime for item in catalog}
        self._num_items = len(self._lifetimes)
        self._nodes = sorted(int(n) for n in caching_nodes)
        self._online = {n: True for n in self._nodes}
        self._online_count = len(self._nodes)
        #: source's current version per item (0 = nothing published yet)
        self._current = {item_id: 0 for item_id in self._lifetimes}
        self._slots: dict[tuple[int, int], _Slot] = {}
        #: per item, the caching nodes holding the current version
        self._fresh: dict[int, set[int]] = {i: set() for i in self._lifetimes}
        self._fresh_online = 0
        self._valid_online = 0
        #: lazy expiry queue of (expiry, node, item, version)
        self._expiries: list[tuple[float, int, int, int]] = []

    # -- event streams -----------------------------------------------------

    def store_listener(self, node_id: int):
        """A :data:`~repro.caching.store.ChangeListener` bound to one node."""

        def on_change(
            item_id: int,
            old: Optional[CacheEntry],
            new: Optional[CacheEntry],
            now: float,
        ) -> None:
            self.entry_changed(node_id, item_id, new, now)

        return on_change

    def entry_changed(
        self,
        node_id: int,
        item_id: int,
        new: Optional[CacheEntry],
        now: float,
    ) -> None:
        """The slot ``(node_id, item_id)`` now holds ``new`` (or nothing)."""
        online = self._online[node_id]
        key = (node_id, item_id)
        slot = self._slots.get(key)
        if slot is not None:
            fresh_set = self._fresh[item_id]
            if node_id in fresh_set:
                fresh_set.discard(node_id)
                if online:
                    self._fresh_online -= 1
            if slot.valid and online:
                self._valid_online -= 1
        if new is None:
            if slot is not None:
                del self._slots[key]
            return
        expiry = new.version_time + self._lifetimes[item_id]
        valid = now < expiry
        self._slots[key] = _Slot(new.version, expiry, valid)
        if valid:
            # A superseded heap entry for the old version is left behind;
            # the version stamp makes the drain skip it.
            heappush(self._expiries, (expiry, node_id, item_id, new.version))
            if online:
                self._valid_online += 1
        if new.version == self._current[item_id]:
            self._fresh[item_id].add(node_id)
            if online:
                self._fresh_online += 1

    def version_published(self, item, version: int, time: float) -> None:
        """`SourceHandler.on_new_version` listener: a new version exists.

        Warm starts seed version 1 into stores *before* the source
        publishes it at t=0, so holders of the just-published version can
        already exist -- the fresh set is rebuilt by scanning the item's
        slots (O(caching_nodes), and publishes are rare next to probes).
        """
        item_id = item.item_id
        self._current[item_id] = version
        old_set = self._fresh[item_id]
        if old_set:
            online = self._online
            self._fresh_online -= sum(1 for n in old_set if online[n])
        new_set = set()
        for node_id in self._nodes:
            slot = self._slots.get((node_id, item_id))
            if slot is not None and slot.version == version:
                new_set.add(node_id)
                if self._online[node_id]:
                    self._fresh_online += 1
        self._fresh[item_id] = new_set

    def online_changed(self, node_id: int, online: bool, now: float) -> None:
        """`ContactNetwork` online listener: churn moved a node."""
        state = self._online.get(node_id)
        if state is None or state == online:
            return  # not a caching node, or no transition
        # Drain first so the valid flags reflect `now` before they are
        # added to / removed from the online totals.
        self._drain(now)
        self._online[node_id] = online
        sign = 1 if online else -1
        self._online_count += sign
        for item_id in self._lifetimes:
            slot = self._slots.get((node_id, item_id))
            if slot is None:
                continue
            if node_id in self._fresh[item_id]:
                self._fresh_online += sign
            if slot.valid:
                self._valid_online += sign

    # -- reads -------------------------------------------------------------

    def _drain(self, now: float) -> None:
        heap = self._expiries
        while heap and heap[0][0] <= now:
            _, node_id, item_id, version = heappop(heap)
            slot = self._slots.get((node_id, item_id))
            if slot is not None and slot.valid and slot.version == version:
                slot.valid = False
                if self._online[node_id]:
                    self._valid_online -= 1

    def snapshot(self, now: float) -> tuple[int, int, int]:
        """``(fresh, valid, total)`` -- O(expired entries since last read)."""
        self._drain(now)
        return (
            self._fresh_online,
            self._valid_online,
            self._online_count * self._num_items,
        )
