"""Test-local copies of the scalar paths the optimised code replaced.

Each function below is a body that a module-level switch or a second
code path used to select in the program: the full task scan, gossip
that peeks the peer for every item (no per-peer watermarks), the tree
builder with per-child rate lookups, relay enumeration over every node,
the dict-loop rate matrix, and each contact model's per-contact trace
assembly (Poisson, diurnal thinning, proximity on sampled positions,
working-day co-location).  The program keeps only the fast path; tests
compare it against these references, and :func:`legacy_paths` swaps in
every one that a run reaches.  No reference calls back into a program
contact generator.
"""

import heapq
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from repro.core import plan as plan_module
from repro.core.hierarchy import (
    RefreshTree,
    _check_capacity,
    _clean_members,
    _shallowest_open,
)
from repro.core.refresh import (
    REFRESH_OVERHEAD,
    FloodingRefreshHandler,
    HdrRefreshHandler,
    InvalidationRefreshHandler,
)
from repro.core.scheme import SchemeRuntime
from repro.mobility import trace as trace_module
from repro.mobility.community import DiurnalModel
from repro.mobility.levy import LevyWalkModel
from repro.mobility.rwp import RandomWaypointModel
from repro.mobility.synthetic import PoissonContactModel
from repro.mobility.trace import Contact, ContactTrace
from repro.mobility.workingday import HOUR, WorkingDayModel
from repro.sim.messages import Message


def process_tasks_scan(self, peer):
    """``HdrRefreshHandler._process_tasks`` visiting every task in dict
    order and dropping every expired one on every contact."""
    now = self.node.sim.now
    peer_handler = peer.find_handler(HdrRefreshHandler)
    for (item_id, target), task in list(self.tasks.items()):
        item = self.catalog.get(item_id)
        if now >= task.version_time + item.lifetime:
            self._drop_task((item_id, target), reason="expired")
            self.stats.counter("refresh.tasks_expired").add(1)
            continue
        if peer.node_id == target:
            self._deliver_to_target(item, target, task, peer, peer_handler)
        elif task.may_recruit:
            self._maybe_recruit(item, target, task, peer, peer_handler)


def flood_push_peek_all(self, peer):
    """``FloodingRefreshHandler._push_to`` without watermarks."""
    if not self.carried:
        return
    peer_handler = peer.find_handler(FloodingRefreshHandler)
    if not isinstance(peer_handler, FloodingRefreshHandler):
        return
    now = self.node.sim.now
    for item_id, (version, version_time) in self.carried.items():
        item = self.catalog.get(item_id)
        if now >= version_time + item.lifetime:
            continue
        if peer_handler.known_version(item_id) >= version:
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


def invalidation_gossip_peek_all(self, peer):
    """``InvalidationRefreshHandler._gossip_to`` without watermarks."""
    if not self.notices:
        return
    peer_handler = peer.find_handler(InvalidationRefreshHandler)
    if not isinstance(peer_handler, InvalidationRefreshHandler):
        return
    now = self.node.sim.now
    for item_id, (version, version_time) in self.notices.items():
        if peer_handler.noticed_version(item_id) >= version:
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


def build_tree_scalar(root, caching_nodes, rates, fanout=3, max_depth=3,
                      root_fanout=None):
    """``build_tree`` pushing candidates by one rate lookup per child."""
    members = _clean_members(root, caching_nodes)
    _check_capacity(len(members), fanout, max_depth, root_fanout or fanout)
    tree = RefreshTree(root=root)
    unplaced = set(members)
    root_cap = root_fanout or fanout

    def capacity_of(node):
        cap = root_cap if node == root else fanout
        return cap - len(tree.children_of(node))

    heap = []

    def push_candidates(parent):
        if tree.depth[parent] >= max_depth:
            return
        for child in unplaced:
            rate = rates.rate(parent, child)
            if rate > 0:
                heapq.heappush(heap, (-rate, tree.depth[parent], parent, child))

    push_candidates(root)
    while unplaced and heap:
        _, parent_depth, parent, child = heapq.heappop(heap)
        if child not in unplaced:
            continue
        if tree.depth.get(parent) != parent_depth or capacity_of(parent) <= 0:
            continue
        tree.attach(child, parent)
        unplaced.discard(child)
        push_candidates(child)
    for child in sorted(unplaced):
        tree.attach(child, _shallowest_open(tree, capacity_of, max_depth))
    return tree


def relay_candidates_all(rates, parent, child, all_nodes_arr):
    """``plan._relay_candidates`` enumerating every node, zero-rate
    relays included (``plan_edge`` discards those)."""
    return [
        (relay, rates.rate(parent, relay), rates.rate(relay, child))
        for relay in all_nodes_arr.tolist()
        if relay not in (parent, child)
    ]


def rate_matrix_loop(table, node_ids):
    """``RateTable.matrix`` filled one pair at a time."""
    index = {nid: k for k, nid in enumerate(node_ids)}
    out = np.zeros((len(node_ids), len(node_ids)))
    for (a, b), rate in table.pairs():
        if a in index and b in index:
            out[index[a], index[b]] = rate
            out[index[b], index[a]] = rate
    return out


def poisson_generate_scalar(self, duration, rng):
    """``PoissonContactModel.generate`` building one ``Contact`` at a time
    from the same per-pair draw sequence."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    n = self.rates.shape[0]
    contacts = []
    for i in range(n):
        for j in range(i + 1, n):
            rate = self.rates[i, j]
            if rate <= 0:
                continue
            count = rng.poisson(rate * duration)
            if count == 0:
                continue
            starts = np.sort(rng.random(count)) * duration
            lengths = rng.exponential(self.mean_duration, size=count)
            ends = np.minimum(starts + lengths, duration)
            a, b = self.node_ids[i], self.node_ids[j]
            for s, e in zip(starts, ends):
                if e > s:
                    contacts.append(Contact.make(a, b, s, e))
    return ContactTrace(contacts, node_ids=self.node_ids, name=self.name)


def diurnal_generate_scalar(self, duration, rng):
    """``DiurnalModel.generate`` drawing one uniform per candidate."""
    candidate = poisson_generate_scalar(self._peak_model, duration, rng)
    kept = [c for c in candidate if rng.random() < self.activity_at(c.start)]
    return ContactTrace(kept, node_ids=self.node_ids, name=self.name)


def proximity_generate_scalar(self, duration, rng):
    """``RandomWaypointModel.generate`` and ``LevyWalkModel.generate``
    opening and closing one pair at a time from the sampled positions."""
    samples = self.positions(duration, rng)
    num_samples = samples.shape[0]
    dt = self.sample_interval
    open_since = {}
    contacts = []
    range2 = self.radio_range**2
    for k in range(num_samples):
        t = k * dt
        pts = samples[k]
        diff = pts[:, None, :] - pts[None, :, :]
        dist2 = (diff**2).sum(axis=2)
        near = dist2 <= range2
        for i, j in zip(*np.triu_indices(self.n, k=1)):
            pair = (int(i), int(j))
            if near[i, j]:
                open_since.setdefault(pair, t)
            elif pair in open_since:
                start = open_since.pop(pair)
                contacts.append(Contact.make(pair[0], pair[1], start, t))
    horizon = (num_samples - 1) * dt
    for pair, start in open_since.items():
        if horizon > start:
            contacts.append(Contact.make(pair[0], pair[1], start, horizon))
    return ContactTrace(contacts, node_ids=self.node_ids, name=self.name)


def workingday_generate_scalar(self, duration, rng):
    """``WorkingDayModel.generate`` building one ``Contact`` per
    co-located pair and hour."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    mean_len = self.contact_fraction * HOUR
    contacts = []
    for hour_index in range(int(duration // HOUR)):
        locations = self._locations_at(hour_index % 24, rng)
        slot_start = hour_index * HOUR
        by_place = {}
        for node, place in enumerate(locations):
            if place >= 0:
                by_place.setdefault(int(place), []).append(node)
        for members in by_place.values():
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    offset = rng.uniform(0.0, 0.5 * HOUR)
                    length = min(float(rng.exponential(mean_len)),
                                 HOUR - offset)
                    if length <= 0:
                        continue
                    start = slot_start + offset
                    end = min(start + length, slot_start + HOUR, duration)
                    if end > start:
                        contacts.append(Contact.make(a, b, start, end))
    return ContactTrace(contacts, node_ids=self.node_ids, name=self.name)


def sort_contacts_dataclass(contacts):
    """``trace._sort_contacts`` through ``Contact``'s own ordering."""
    contacts.sort()


_freshness_snapshot = SchemeRuntime.freshness_snapshot


def brute_force_snapshot(self, recompute=True):
    """``SchemeRuntime.freshness_snapshot`` always rescanning the stores."""
    return _freshness_snapshot(self, recompute=True)


@contextmanager
def legacy_paths():
    """Run everything inside on the references above."""
    patches = [
        (HdrRefreshHandler, "_process_tasks", process_tasks_scan),
        (FloodingRefreshHandler, "_push_to", flood_push_peek_all),
        (InvalidationRefreshHandler, "_gossip_to", invalidation_gossip_peek_all),
        (SchemeRuntime, "freshness_snapshot", brute_force_snapshot),
        (plan_module, "build_tree", build_tree_scalar),
        (plan_module, "_relay_candidates", relay_candidates_all),
        (PoissonContactModel, "generate", poisson_generate_scalar),
        (DiurnalModel, "generate", diurnal_generate_scalar),
        (RandomWaypointModel, "generate", proximity_generate_scalar),
        (LevyWalkModel, "generate", proximity_generate_scalar),
        (WorkingDayModel, "generate", workingday_generate_scalar),
        (trace_module, "_sort_contacts", sort_contacts_dataclass),
    ]
    with ExitStack() as stack:
        for owner, name, reference in patches:
            stack.enter_context(mock.patch.object(owner, name, reference))
        yield
