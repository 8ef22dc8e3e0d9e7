"""Vectorised struct-of-arrays backend for the refresh simulation.

The object backend (:mod:`repro.core.scheme`) dispatches every contact
through per-node :class:`~repro.sim.node.Node` objects and the event
heap -- two Python callbacks and a handler walk per contact, even when
neither endpoint carries any protocol state.  At city scale (10k-100k
nodes) almost every contact is such a no-op: only the sources, the
caching nodes and the currently recruited relays can move data.

:class:`SoaRuntime` replays the *same* simulation from a
:class:`~repro.sim.soa.ContactEventStream`: the contact schedule lives
in sorted NumPy arrays, each slab of events is masked down to the
contacts with at least one protocol-active endpoint in one vector
operation, and only the survivors run protocol logic.  Control events
(freshness probes, source version bumps) live in a tiny heap and
deliveries in a FIFO, replicating the heap's ``(time, priority, seq)``
order exactly:

1. contact starts at time T, in trace sequence order (priority 0,
   static sequence numbers precede all dynamic ones);
2. controls at T (priority 0, dynamic) in scheduling order;
3. deliveries at T (priority 5) in scheduling order -- a FIFO, because
   deliveries are always scheduled at the current time and cascades
   append behind earlier sends;
4. contact ends at T (priority 10).

The per-node protocol state (task tables, neighbour sets, carried
version maps) mirrors :mod:`repro.core.refresh` operation-for-operation
-- including dict-slot and set-iteration order -- so a SoA run is
``RunMetrics.same_as``-identical to the object backend on every
supported scheme.  The cross-check lives in ``tests/test_soa.py``.

What this backend cannot run is listed once, in :data:`UNSUPPORTED`
(plus churn, which no run description can ask for); the build, sweep
validation and the scenario registry all reject those features from
that table.  The object backend stays the default and fully featured
path.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Optional

import numpy as np

from repro.caching.items import CacheEntry, DataCatalog, VersionHistory
from repro.caching.ncl import select_caching_nodes
from repro.caching.store import CacheStore, EvictionPolicy
from repro.contacts.rates import RateTable, mle_rates
from repro.core.accounting import FreshnessAccountant
from repro.core.refresh import REFRESH_OVERHEAD, RefreshUpdate, _PendingRefresh
from repro.mobility.arrays import ContactArrays
from repro.mobility.trace import ContactTrace
from repro.obs.registry import MetricsRegistry
from repro.sim.soa import KIND_START, ContactEventStream

#: Events per slab before timestamp alignment.  Big enough that the
#: per-slab numpy overhead amortises; small enough that the slab's
#: Python-side relevant-event lists stay cache friendly.  The equivalence
#: tests shrink it to force many slab boundaries.
SLAB_EVENTS = 65536

#: Features the soa executor cannot run: the key callers pass to
#: :func:`soa_unsupported` and the name errors report it under.
#: ``build_simulation``, ``RunSpec.validate`` (and so sweep validation)
#: and the scenario registry all read this one table.
UNSUPPORTED = {
    "queries": "the query plane",
    "cycle": "query cycles",
    "faults": "fault injection",
    "tracing": "event tracing",
    "placement": "placement policies",
    "onpath": "on-path caching",
    "link_model": "link models",
    "record_transfers": "transfer recording",
    "invalidate": "the invalidate scheme",
}


def soa_unsupported(**active: bool) -> list[str]:
    """The :data:`UNSUPPORTED` keys switched on in ``active``, in table
    order."""
    unknown = sorted(set(active) - set(UNSUPPORTED))
    if unknown:
        raise TypeError(f"not a soa feature: {', '.join(unknown)}")
    return [key for key in UNSUPPORTED if active.get(key)]


def check_soa_supports(**active: bool) -> None:
    """Raise ``ValueError`` naming every active feature the soa executor
    cannot run."""
    missing = soa_unsupported(**active)
    if missing:
        names = ", ".join(UNSUPPORTED[key] for key in missing)
        raise ValueError(
            f"the soa backend does not support {names}; use backend='object'"
        )


_PROBE = 0
_BUMP = 1

#: delivery kinds in the FIFO
_D_REFRESH = 0
_D_RELAY = 1


class _Clock:
    """Duck-typed ``sim`` for the metrics layer: just a settable clock."""

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0) -> None:
        self.now = now


class _TaskState:
    """Per-node HDR task machinery, mirroring ``HdrRefreshHandler``.

    Field-for-field the same bookkeeping: the task dict (whose slot
    order the processing order depends on), the per-target index, the
    recruit-capable subset, the expiry heap and the per-version recruit
    budget usage.
    """

    __slots__ = ("tasks", "by_target", "recruitable", "task_seq",
                 "expiry", "recruits_used")

    def __init__(self) -> None:
        self.tasks: dict[tuple[int, int], _PendingRefresh] = {}
        self.by_target: dict[int, set[tuple[int, int]]] = {}
        self.recruitable: set[tuple[int, int]] = set()
        self.task_seq = 0
        self.expiry: list[tuple[float, tuple[int, int], int]] = []
        self.recruits_used: dict[tuple[int, int], int] = {}


class SoaRuntime:
    """A wired SoA simulation: same measurement surface as
    :class:`~repro.core.scheme.SchemeRuntime`, vectorised execution.

    Construct via :func:`build_soa_simulation` (or
    ``build_simulation(..., backend="soa")``).
    """

    def __init__(
        self,
        config,
        stream: ContactEventStream,
        catalog: DataCatalog,
        history: VersionHistory,
        rates: RateTable,
        caching_nodes: list[int],
        sources: list[int],
        stores: dict[int, CacheStore],
        trees: dict,
        plans: dict,
        update_log: list[RefreshUpdate],
        stats: MetricsRegistry,
        accountant: FreshnessAccountant,
        rng: np.random.Generator,
        refresh_jitter: float,
    ) -> None:
        self.config = config
        self.stream = stream
        #: every node id of the simulated population, ascending
        self.node_ids = stream.node_ids
        self.catalog = catalog
        self.history = history
        self.rates = rates
        self.caching_nodes = caching_nodes
        self.sources = sources
        self.stores = stores
        self.trees = trees
        self.plans = plans
        self.update_log = update_log
        self.stats = stats
        self.accountant = accountant
        self.rng = rng
        self.refresh_jitter = refresh_jitter
        self.relay_budget = config.effective_relay_budget
        self.trace = None  # tracing is unsupported; kept for duck typing

        self.sim = _Clock()
        self._family = {"tree": "tree", "star": "tree",
                        "flood": "flood", "none": "none"}[config.structure]
        self._started = False

        # -- item lookup tables (hot path avoids catalog.get) -----------
        self._items = {item.item_id: item for item in catalog}
        self._item_source = {i.item_id: i.source for i in catalog}
        self._item_lifetime = {i.item_id: i.lifetime for i in catalog}
        self._item_interval = {i.item_id: i.refresh_interval for i in catalog}
        self._item_size = {i.item_id: i.size + REFRESH_OVERHEAD for i in catalog}
        self._item_pos = {item_id: pos
                          for pos, item_id in enumerate(sorted(self._items))}
        self._num_items = len(self._items)
        #: authoritative (version, version_time) per item (each item has
        #: exactly one source, so one flat dict replaces the per-source
        #: ``SourceHandler.current`` dicts)
        self._current: dict[int, tuple[int, float]] = {}

        # -- control heap / delivery FIFO -------------------------------
        self._ctrl: list[tuple[float, int, int, int, int]] = []
        self._ctrl_ctr = itertools.count()
        self._fifo: deque = deque()
        self._probe_interval: Optional[float] = None
        self._probe_until = 0.0

        # -- scheme state ------------------------------------------------
        #: HDR family: per-node task state, created lazily
        self._tstate: dict[int, _TaskState] = {}
        #: HDR family: neighbour sets for cascading nodes only (sources
        #: and caching nodes -- the only nodes that ever walk their open
        #: contacts).  Maintained with the exact add/discard sequence of
        #: ``Node._neighbors`` so ``frozenset`` iteration order matches.
        self._nbr: dict[int, set[int]] = {}
        #: flooding: carried versions + neighbour sets for every node
        self._carried: dict[int, dict[int, tuple[int, float]]] = {}
        self._nbrf: dict[int, set[int]] = {}
        #: flooding: per-node version vector (position-indexed by item);
        #: equal vectors on both endpoints => the push scans would send
        #: nothing in either direction, so the contact is skipped
        self._vsig: dict[int, list[int]] = {}
        #: cached frozenset views of relay plans for recruit checks
        self._relay_sets: dict[tuple[int, int, int], frozenset[int]] = {}

        #: protocol-active mask over node indices (tree family): sources,
        #: caching nodes, and nodes holding a relayed task.  Contacts
        #: with both endpoints inactive are provably no-ops.
        self._active = np.zeros(stream.num_nodes, dtype=bool)
        if self._family == "tree":
            for nid in self.sources:
                self._active[stream.index_of[nid]] = True
                self._nbr[nid] = set()
            for nid in self.caching_nodes:
                self._active[stream.index_of[nid]] = True
                self._nbr[nid] = set()
        self._recompute = False

        # -- slab cursor -------------------------------------------------
        self._pos = 0
        self._rel_time: list[float] = []
        self._rel_kind: list[int] = []
        self._rel_a: list[int] = []
        self._rel_b: list[int] = []
        self._ri = 0
        self._slab_time = stream.time[:0]
        self._slab_aidx = stream.a_idx[:0]
        self._slab_bidx = stream.b_idx[:0]
        self._slab_kind = stream.kind[:0]

        # -- event accounting (comparable to sim.events_executed) --------
        self._static_counted = 0
        self._contacts_counted = 0
        self._ctrl_fired = 0
        self._deliveries = 0

        # -- cached stat handles -----------------------------------------
        stats.counter("net.contacts_scheduled").add(stream.num_contacts)
        self._c_contacts = stats.counter("net.contacts")
        self._c_transfers = stats.counter("net.transfers")
        self._c_bytes = stats.counter("net.bytes")
        self._c_kind_refresh = stats.counter("net.transfers.refresh")
        self._c_kind_relay = stats.counter("net.transfers.refresh_relay")
        self._c_kind_flood = stats.counter("net.transfers.refresh_flood")
        self._c_published = stats.counter("refresh.versions_published")
        self._c_updates = stats.counter("refresh.updates")
        self._c_suppressed = stats.counter("refresh.suppressed")
        self._c_expired = stats.counter("refresh.tasks_expired")
        self._c_recruited = stats.counter("refresh.relays_recruited")
        self._c_budget = stats.counter("refresh.budget_exhausted")
        self._c_stale = stats.counter("refresh.stale_delivery")
        self._c_non_cache = stats.counter("refresh.delivered_to_non_cache")
        self._t_delay = stats.tally("refresh.delay")

    # ------------------------------------------------------------------
    # public surface (duck-typed against SchemeRuntime)
    # ------------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Simulation events handled so far, counted like the object
        backend's ``sim.events_executed``: every static contact event up
        to the horizon (processed or vector-skipped), every control
        firing, and every message delivery."""
        return self._static_counted + self._ctrl_fired + self._deliveries

    def install_freshness_probe(self, interval: float, until: float) -> None:
        """Record freshness/validity ratios every ``interval`` seconds.

        Must be installed before :meth:`run` (the object backend's probe
        is scheduled before the network starts; installing later would
        change control ordering)."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        if self._started:
            raise RuntimeError("install the probe before run()")
        self._probe_interval = float(interval)
        self._probe_until = float(until)
        self._g_fresh = self.stats.gauge("probe.fresh_slots")
        self._g_valid = self.stats.gauge("probe.valid_slots")
        self._g_total = self.stats.gauge("probe.total_slots")
        self._s_fresh = self.stats.series("probe.freshness")
        self._s_valid = self.stats.series("probe.validity")
        heapq.heappush(
            self._ctrl,
            (self.sim.now + self._probe_interval, next(self._ctrl_ctr),
             _PROBE, 0, 0),
        )

    def freshness_snapshot(self) -> tuple[int, int, int]:
        """``(fresh, valid, total)`` from the incremental accountant."""
        return self.accountant.snapshot(self.sim.now)

    def refresh_overhead(self) -> float:
        """Total refresh-plane transmissions (messages)."""
        return (
            self.stats.counter_value("net.transfers.refresh")
            + self.stats.counter_value("net.transfers.refresh_relay")
            + self.stats.counter_value("net.transfers.refresh_flood")
            + self.stats.counter_value("net.transfers.invalidate")
        )

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation to ``until`` (required: the vectorised
        schedule has no notion of 'run until the heap drains')."""
        if until is None:
            raise ValueError("the soa backend needs an explicit horizon")
        until = float(until)
        if until < self.sim.now:
            raise ValueError(
                f"cannot run to t={until}, now is t={self.sim.now}"
            )
        if not self._started:
            self._started = True
            self._start()
        self._execute(until)
        # Static events up to the horizon count as handled whether they
        # ran protocol logic or were skipped by the relevance mask -- the
        # object backend pops a callback for every one of them.
        executed = self.stream.events_until(until)
        if executed > self._static_counted:
            self._static_counted = executed
        opened = self.stream.contacts_opened_until(until)
        if opened > self._contacts_counted:
            self._c_contacts.add(opened - self._contacts_counted)
            self._contacts_counted = opened
        if self.sim.now < until:
            self.sim.now = until
        return self.sim.now

    def describe(self) -> str:
        """Human-readable wiring summary (mirrors SchemeRuntime)."""
        return (
            f"scheme {self.config.name!r} ({self.config.structure}, "
            f"backend=soa)\n"
            f"  nodes: {self.stream.num_nodes}, sources: {self.sources}, "
            f"caching: {self.caching_nodes}\n"
            f"  items: {len(self.catalog)}, contacts: "
            f"{self.stream.num_contacts}"
        )

    # ------------------------------------------------------------------
    # warm start + t=0 source kick
    # ------------------------------------------------------------------

    def _seed_entry(self, item, nid: int) -> None:
        """Warm-start seeding for one (item, caching node), replicating
        the per-scheme handler's ``seed_entry`` (the 'none' scheme seeds
        the bare store with no update-log entry)."""
        entry = CacheEntry(item_id=item.item_id, version=1,
                           version_time=0.0, cached_at=0.0)
        if self._family == "flood":
            self._flood_carry(nid, item.item_id, 1, 0.0)
        self.stores[nid].put(entry, 0.0)
        if self._family != "none":
            self.update_log.append(
                RefreshUpdate(item_id=item.item_id, node=nid, version=1,
                              version_time=0.0, updated_at=0.0, via="seed")
            )

    def _start(self) -> None:
        """t=0 kick: each source (in sorted id order, like
        ``ContactNetwork.start``) publishes v1 of each of its items and
        schedules the first jittered bump -- publish-then-draw per item,
        preserving the RNG draw order."""
        for source in sorted(self.sources):
            for item in self.catalog.items_of_source(source):
                self._publish(source, item, 0.0)
                gap = self._gap(item)
                heapq.heappush(
                    self._ctrl,
                    (0.0 + gap, next(self._ctrl_ctr), _BUMP,
                     source, item.item_id),
                )

    def _gap(self, item) -> float:
        if self.refresh_jitter > 0:
            span = self.refresh_jitter * item.refresh_interval
            return item.refresh_interval + float(self.rng.uniform(-span, span))
        return item.refresh_interval

    def _publish(self, source: int, item, now: float) -> None:
        item_id = item.item_id
        version = self._current.get(item_id, (0, 0.0))[0] + 1
        self._current[item_id] = (version, now)
        self.history.record(item_id, version, now)
        self._c_published.add(1)
        # Listener order from build_simulation: accountant first, then
        # the distribution handler.
        self.accountant.version_published(item, version, now)
        if self._family == "tree":
            self._assume_responsibility(source, item_id, version, now, now)
        elif self._family == "flood":
            self._flood_carry(source, item_id, version, now)
            self._flood_push_open(source, now)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _execute(self, until: float) -> None:
        ctrl = self._ctrl
        inf = math.inf
        while True:
            t_static = self._peek_static()
            t_ctrl = ctrl[0][0] if ctrl else inf
            T = t_static if t_static <= t_ctrl else t_ctrl
            if T > until:
                break
            self.sim.now = T
            self._run_timestamp(T)

    def _peek_static(self) -> float:
        """Time of the next relevant static event, loading slabs as
        needed; +inf when the schedule is exhausted."""
        while True:
            rt = self._rel_time
            if self._ri < len(rt):
                return rt[self._ri]
            if not self._load_next_slab():
                return math.inf

    def _load_next_slab(self) -> bool:
        stream = self.stream
        pos = self._pos
        if pos >= stream.num_events:
            return False
        hi = stream.slab_end(pos, SLAB_EVENTS)
        self._pos = hi
        self._slab_time = stream.time[pos:hi]
        self._slab_kind = stream.kind[pos:hi]
        self._slab_aidx = stream.a_idx[pos:hi]
        self._slab_bidx = stream.b_idx[pos:hi]
        self._fill_rel(0)
        return True

    def _fill_rel(self, lo: int) -> None:
        """Build the slab's relevant-event lists from offset ``lo`` on,
        under the current active mask."""
        ids = self.stream._id_arr
        if self._family == "flood":
            # Every contact maintains neighbour sets; the cheap skip
            # happens per-push via the version vectors.
            rel = slice(lo, len(self._slab_time))
            self._rel_time = self._slab_time[rel].tolist()
            self._rel_kind = self._slab_kind[rel].tolist()
            self._rel_a = ids[self._slab_aidx[rel]].tolist()
            self._rel_b = ids[self._slab_bidx[rel]].tolist()
        elif self._family == "tree":
            act = self._active
            mask = act[self._slab_aidx[lo:]] | act[self._slab_bidx[lo:]]
            rel = np.nonzero(mask)[0] + lo
            self._rel_time = self._slab_time[rel].tolist()
            self._rel_kind = self._slab_kind[rel].tolist()
            self._rel_a = ids[self._slab_aidx[rel]].tolist()
            self._rel_b = ids[self._slab_bidx[rel]].tolist()
        else:  # "none": no handlers anywhere; skip the entire schedule
            self._rel_time = []
            self._rel_kind = []
            self._rel_a = []
            self._rel_b = []
        self._ri = 0

    def _run_timestamp(self, T: float) -> None:
        rt = self._rel_time
        rk = self._rel_kind
        ra = self._rel_a
        rb = self._rel_b
        n = len(rt)
        ri = self._ri
        flood = self._family == "flood"
        # phase 1: contact starts at T (priority 0, static seqs first)
        if flood:
            while ri < n and rt[ri] == T and rk[ri] == KIND_START:
                self._flood_contact_start(ra[ri], rb[ri], T)
                ri += 1
        else:
            while ri < n and rt[ri] == T and rk[ri] == KIND_START:
                self._tree_contact_start(ra[ri], rb[ri], T)
                ri += 1
        # phase 2: controls at T (priority 0, dynamic seqs)
        ctrl = self._ctrl
        while ctrl and ctrl[0][0] == T:
            _, _, ckind, carg1, carg2 = heapq.heappop(ctrl)
            self._ctrl_fired += 1
            if ckind == _PROBE:
                self._fire_probe(T)
            else:
                self._fire_bump(T, carg1, carg2)
        # phase 3: deliveries at T (priority 5); cascades append in FIFO
        # order, exactly like same-time heap entries with growing seqs
        if self._fifo:
            self._drain_deliveries(T)
        # phase 4: contact ends at T (priority 10)
        nbr = self._nbrf if flood else self._nbr
        while ri < n and rt[ri] == T:
            a, b = ra[ri], rb[ri]
            sa = nbr.get(a)
            if sa is not None:
                sa.discard(b)
            sb = nbr.get(b)
            if sb is not None:
                sb.discard(a)
            ri += 1
        self._ri = ri
        if self._recompute:
            # A plain node was recruited mid-slab; re-filter the rest of
            # the slab (strictly after T) under the grown active mask.
            self._recompute = False
            lo = int(np.searchsorted(self._slab_time, T, side="right"))
            self._fill_rel(lo)

    # ------------------------------------------------------------------
    # controls
    # ------------------------------------------------------------------

    def _fire_probe(self, now: float) -> None:
        fresh, valid, total = self.accountant.snapshot(now)
        self._g_fresh.set(fresh)
        self._g_valid.set(valid)
        self._g_total.set(total)
        if total:
            self._s_fresh.record(now, fresh / total)
            self._s_valid.record(now, valid / total)
        if now + self._probe_interval <= self._probe_until:
            heapq.heappush(
                self._ctrl,
                (now + self._probe_interval, next(self._ctrl_ctr),
                 _PROBE, 0, 0),
            )

    def _fire_bump(self, now: float, source: int, item_id: int) -> None:
        item = self._items[item_id]
        self._publish(source, item, now)
        heapq.heappush(
            self._ctrl,
            (now + self._gap(item), next(self._ctrl_ctr), _BUMP,
             source, item_id),
        )

    # ------------------------------------------------------------------
    # deliveries
    # ------------------------------------------------------------------

    def _drain_deliveries(self, now: float) -> None:
        fifo = self._fifo
        flood = self._family == "flood"
        while fifo:
            kind, sender, receiver, item_id, version, vtime, target = (
                fifo.popleft()
            )
            self._deliveries += 1
            if flood:
                self._flood_receive(receiver, item_id, version, vtime, now)
            elif kind == _D_RELAY:
                st = self._tstate.get(receiver)
                if st is None:
                    st = self._tstate[receiver] = _TaskState()
                self._set_task(st, item_id, target, version, vtime, False)
                idx = self.stream.index_of[receiver]
                if not self._active[idx]:
                    self._active[idx] = True
                    self._recompute = True
            else:
                self._apply_update(receiver, sender, item_id, version,
                                   vtime, now)

    def _count_send(self, kind_counter, item_id: int) -> None:
        self._c_transfers.add(1)
        kind_counter.add(1)
        self._c_bytes.add(self._item_size[item_id])

    # ------------------------------------------------------------------
    # tree family (hdr / flat / random / source)
    # ------------------------------------------------------------------

    def _tree_contact_start(self, a: int, b: int, now: float) -> None:
        # Exact object order: a adds b and runs its handler, then b.
        nbr = self._nbr
        sa = nbr.get(a)
        if sa is not None:
            sa.add(b)
        self._process_tasks(a, b, now)
        sb = nbr.get(b)
        if sb is not None:
            sb.add(a)
        self._process_tasks(b, a, now)

    def _known_version(self, nid: int, item_id: int) -> int:
        """``HdrRefreshHandler.known_version`` for any node: a source is
        authoritative for its own items, a caching node serves its
        store, everyone else knows nothing."""
        if self._item_source[item_id] == nid:
            version = self._current.get(item_id, (0, 0.0))[0]
            if version > 0:
                return version
        store = self.stores.get(nid)
        if store is not None:
            entry = store.peek(item_id)
            if entry is not None:
                return entry.version
        return 0

    def _assume_responsibility(self, nid: int, item_id: int, version: int,
                               version_time: float, now: float) -> None:
        tree = self.trees.get(item_id)
        if tree is None:
            return
        children = tree.children_of(nid)
        if children:
            st = self._tstate.get(nid)
            if st is None:
                st = self._tstate[nid] = _TaskState()
            for child in children:
                self._set_task(st, item_id, child, version, version_time, True)
        neighbors = self._nbr.get(nid)
        if neighbors:
            for pid in frozenset(neighbors):
                self._process_tasks(nid, pid, now)

    def _set_task(self, st: _TaskState, item_id: int, target: int,
                  version: int, version_time: float,
                  may_recruit: bool) -> None:
        key = (item_id, target)
        existing = st.tasks.get(key)
        if existing is not None and existing.version >= version:
            return
        if existing is not None:
            seq = existing.seq  # value replacement keeps the dict position
        else:
            st.task_seq += 1
            seq = st.task_seq
            st.by_target.setdefault(target, set()).add(key)
        st.tasks[key] = _PendingRefresh(
            version=version, version_time=version_time,
            may_recruit=may_recruit, seq=seq,
        )
        heapq.heappush(
            st.expiry,
            (version_time + self._item_lifetime[item_id], key, version),
        )
        if may_recruit:
            st.recruitable.add(key)
        else:
            st.recruitable.discard(key)

    @staticmethod
    def _drop_task(st: _TaskState, key: tuple[int, int]) -> None:
        del st.tasks[key]
        bucket = st.by_target.get(key[1])
        if bucket is not None:
            bucket.discard(key)
            if not bucket:
                del st.by_target[key[1]]
        st.recruitable.discard(key)

    def _process_tasks(self, me: int, pid: int, now: float) -> None:
        """``HdrRefreshHandler._process_tasks`` (the indexed path),
        against executor state."""
        st = self._tstate.get(me)
        if st is None:
            return
        tasks = st.tasks
        expiry_heap = st.expiry
        while expiry_heap and expiry_heap[0][0] <= now:
            _, key, version = heapq.heappop(expiry_heap)
            stale = tasks.get(key)
            if stale is not None and stale.version == version:
                self._drop_task(st, key)
                self._c_expired.add(1)
        if not tasks:
            return
        targeted = st.by_target.get(pid)
        if targeted:
            keys = st.recruitable | targeted
        elif st.recruitable:
            keys = set(st.recruitable)
        else:
            return
        candidates = sorted((tasks[key].seq, key) for key in keys)
        lifetimes = self._item_lifetime
        for _, key in candidates:
            task = tasks.get(key)
            if task is None:
                continue
            if now >= task.version_time + lifetimes[key[0]]:
                self._drop_task(st, key)
                self._c_expired.add(1)
                continue
            if pid == key[1]:
                self._deliver_to_target(st, me, pid, key, task)
            elif task.may_recruit:
                self._maybe_recruit(st, me, pid, key, task)

    def _deliver_to_target(self, st: _TaskState, me: int, pid: int,
                           key: tuple[int, int],
                           task: _PendingRefresh) -> None:
        item_id = key[0]
        if self._known_version(pid, item_id) >= task.version:
            # Another copy beat us to it: the handshake suppresses the send.
            self._drop_task(st, key)
            self._c_suppressed.add(1)
            return
        self._count_send(self._c_kind_refresh, item_id)
        self._fifo.append((_D_REFRESH, me, pid, item_id, task.version,
                           task.version_time, 0))
        self._drop_task(st, key)

    def _relay_set(self, plan_key: tuple[int, int, int]) -> frozenset[int]:
        cached = self._relay_sets.get(plan_key)
        if cached is None:
            cached = self._relay_sets[plan_key] = frozenset(
                self.plans[plan_key].relays
            )
        return cached

    def _maybe_recruit(self, st: _TaskState, me: int, pid: int,
                       key: tuple[int, int],
                       task: _PendingRefresh) -> None:
        item_id, target = key
        plan_key = (item_id, me, target)
        plan = self.plans.get(plan_key)
        if plan is None or plan.num_relays == 0:
            return
        handed = task.handed_to
        if pid in handed or len(handed) >= plan.num_relays:
            return
        budget_key = (item_id, task.version)
        if st.recruits_used.get(budget_key, 0) >= self.relay_budget:
            self._c_budget.add(1)
            return
        if pid not in self._relay_set(plan_key):
            rates = self.rates
            if rates.rate(pid, target) <= rates.rate(me, target):
                return
        if self._known_version(pid, item_id) >= task.version:
            return
        pst = self._tstate.get(pid)
        if pst is not None:
            pending = pst.tasks.get(key)
            if pending is not None and pending.version >= task.version:
                handed.add(pid)
                return
        self._count_send(self._c_kind_relay, item_id)
        self._fifo.append((_D_RELAY, me, pid, item_id, task.version,
                           task.version_time, target))
        handed.add(pid)
        st.recruits_used[budget_key] = st.recruits_used.get(budget_key, 0) + 1
        self._c_recruited.add(1)

    def _apply_update(self, receiver: int, sender: int, item_id: int,
                      version: int, version_time: float, now: float) -> None:
        store = self.stores.get(receiver)
        if store is None:
            self._c_non_cache.add(1)
            return
        changed = store.put(
            CacheEntry(item_id=item_id, version=version,
                       version_time=version_time, cached_at=now),
            now,
        )
        if not changed:
            self._c_stale.add(1)
            return
        tree = self.trees.get(item_id)
        parent = tree.parent_of(receiver) if tree else None
        via = "direct" if parent == sender else "relay"
        self.update_log.append(
            RefreshUpdate(item_id=item_id, node=receiver, version=version,
                          version_time=version_time, updated_at=now, via=via)
        )
        self._c_updates.add(1)
        self._t_delay.observe(now - version_time)
        # Hierarchical cascade: now refresh my own children.
        self._assume_responsibility(receiver, item_id, version,
                                    version_time, now)

    # ------------------------------------------------------------------
    # flooding
    # ------------------------------------------------------------------

    def _flood_contact_start(self, a: int, b: int, now: float) -> None:
        nbrf = self._nbrf
        sa = nbrf.get(a)
        if sa is None:
            sa = nbrf[a] = set()
        sa.add(b)
        self._flood_push_to(a, b, now)
        sb = nbrf.get(b)
        if sb is None:
            sb = nbrf[b] = set()
        sb.add(a)
        self._flood_push_to(b, a, now)

    def _flood_carry(self, nid: int, item_id: int, version: int,
                     version_time: float) -> None:
        carried = self._carried.get(nid)
        if carried is None:
            carried = self._carried[nid] = {}
            self._vsig[nid] = [0] * self._num_items
        carried[item_id] = (version, version_time)
        self._vsig[nid][self._item_pos[item_id]] = version

    def _flood_push_open(self, nid: int, now: float) -> None:
        neighbors = self._nbrf.get(nid)
        if neighbors:
            for pid in frozenset(neighbors):
                self._flood_push_to(nid, pid, now)

    def _flood_push_to(self, me: int, pid: int, now: float) -> None:
        carried = self._carried.get(me)
        if not carried:
            return
        vsig = self._vsig
        if vsig.get(pid) == vsig[me]:
            # Identical version vectors: the peek scan would suppress
            # every item in both directions.  O(items) list compare
            # instead of the full handler walk.
            return
        carried_p = self._carried.get(pid)
        lifetimes = self._item_lifetime
        fifo = self._fifo
        for item_id, (version, version_time) in carried.items():
            if now >= version_time + lifetimes[item_id]:
                continue
            if carried_p is not None:
                peer_version = carried_p.get(item_id, (0, 0.0))[0]
                if peer_version >= version:
                    continue
            self._count_send(self._c_kind_flood, item_id)
            fifo.append((_D_REFRESH, me, pid, item_id, version,
                         version_time, 0))

    def _flood_receive(self, receiver: int, item_id: int, version: int,
                       version_time: float, now: float) -> None:
        carried = self._carried.get(receiver)
        if carried is not None:
            if carried.get(item_id, (0, 0.0))[0] >= version:
                return
        self._flood_carry(receiver, item_id, version, version_time)
        store = self.stores.get(receiver)
        if store is not None:
            if store.put(
                CacheEntry(item_id=item_id, version=version,
                           version_time=version_time, cached_at=now),
                now,
            ):
                self.update_log.append(
                    RefreshUpdate(item_id=item_id, node=receiver,
                                  version=version,
                                  version_time=version_time,
                                  updated_at=now, via="flood")
                )
                self._c_updates.add(1)
                self._t_delay.observe(now - version_time)
        # Gossip onward over currently open contacts.
        self._flood_push_open(receiver, now)


def build_soa_simulation(
    trace: "ContactTrace | ContactArrays",
    catalog: DataCatalog,
    scheme="hdr",
    num_caching_nodes: int = 12,
    caching_nodes: Optional[list[int]] = None,
    rates: Optional[RateTable] = None,
    seed: int = 0,
    refresh_jitter: float = 0.0,
    store_capacity: Optional[int] = None,
    eviction_policy: EvictionPolicy = EvictionPolicy.LRU,
    ncl_metric: str = "contact",
) -> SoaRuntime:
    """Wire a :class:`SoaRuntime` over ``trace``.

    Mirrors :func:`repro.core.scheme.build_simulation` step-for-step --
    same RNG consumption order (NCL selection, tree assignment), same
    structures, same warm seeding -- so a SoA run and an object run from
    the same ``(trace, catalog, scheme, seed)`` are metric-identical.

    ``trace`` may be a :class:`~repro.mobility.arrays.ContactArrays`,
    in which case the event stream (and, when ``rates`` is not given,
    the rate estimation) is built array-natively without ever
    materialising ``Contact`` objects.
    """
    from repro.core.scheme import (
        CENTRALITY_WINDOW,
        SCHEMES,
        _build_structure,
        _plan_tree,
    )

    config = SCHEMES[scheme] if isinstance(scheme, str) else scheme
    check_soa_supports(invalidate=config.structure == "invalidate")
    if not 0.0 <= refresh_jitter < 1.0:
        raise ValueError("jitter must be in [0, 1)")

    rng = np.random.default_rng(seed)
    stats = MetricsRegistry()
    history = VersionHistory()
    update_log: list[RefreshUpdate] = []

    if rates is None:
        rates = mle_rates(trace)
    sources = sorted({item.source for item in catalog})
    unknown_sources = [s for s in sources if s not in trace.node_ids]
    if unknown_sources:
        raise ValueError(
            f"catalog sources {unknown_sources} are not in the trace"
        )

    if caching_nodes is None:
        caching_nodes = select_caching_nodes(
            rates,
            num_caching_nodes,
            metric=ncl_metric,
            window=CENTRALITY_WINDOW,
            exclude=set(sources),
            rng=rng if ncl_metric == "random" else None,
        )
    caching_nodes = sorted(int(n) for n in caching_nodes)
    overlap = set(caching_nodes) & set(sources)
    if overlap:
        raise ValueError(
            f"nodes {sorted(overlap)} are both sources and caching nodes"
        )

    trees: dict = {}
    plans: dict = {}
    if config.structure in ("tree", "star"):
        for item in catalog:
            tree = _build_structure(config, item.source, caching_nodes,
                                    rates, rng)
            trees[item.item_id] = tree
            if config.max_relays >= 0:
                _plan_tree(
                    item.item_id,
                    tree,
                    rates,
                    window=item.refresh_interval,
                    p_req=item.freshness_requirement,
                    max_relays=config.max_relays,
                    all_nodes=trace.node_ids,
                    plans=plans,
                )

    if isinstance(trace, ContactArrays):
        stream = ContactEventStream.from_arrays(trace)
    else:
        stream = ContactEventStream(trace, trace.node_ids)

    stores: dict[int, CacheStore] = {
        nid: CacheStore(capacity=store_capacity, policy=eviction_policy)
        for nid in caching_nodes
    }
    accountant = FreshnessAccountant(catalog, caching_nodes)
    for nid in caching_nodes:
        stores[nid].change_listener = accountant.store_listener(nid)

    runtime = SoaRuntime(
        config=config,
        stream=stream,
        catalog=catalog,
        history=history,
        rates=rates,
        caching_nodes=caching_nodes,
        sources=sources,
        stores=stores,
        trees=trees,
        plans=plans,
        update_log=update_log,
        stats=stats,
        accountant=accountant,
        rng=rng,
        refresh_jitter=refresh_jitter,
    )

    # -- warm start: version 1 everywhere at t=0 -------------------------
    for item in catalog:
        for nid in caching_nodes:
            runtime._seed_entry(item, nid)

    return runtime
