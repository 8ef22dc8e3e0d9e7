"""Protocol-level tests of the refresh handlers on hand-built traces."""

import numpy as np
import pytest

from repro.caching.items import DataCatalog, DataItem, VersionHistory
from repro.caching.store import CacheStore
from repro.contacts.rates import RateTable
from repro.core.hierarchy import RefreshTree
from repro.core.refresh import (
    FloodingRefreshHandler,
    HdrRefreshHandler,
    SourceHandler,
)
from repro.core.replication import RelayPlan
from repro.mobility.trace import Contact, ContactTrace
from repro.sim.stats import StatsRegistry
from tests.conftest import build_network


def make_item(**overrides):
    defaults = dict(
        item_id=0, source=0, refresh_interval=100.0, lifetime=1e6, size=100
    )
    defaults.update(overrides)
    return DataItem(**defaults)


class HdrTestbed:
    """Source 0 with a chain tree 0 -> 1 -> 2 over a repeating line trace."""

    def __init__(self, trace, item=None, tree_edges=((0, 1), (1, 2)),
                 caching=(1, 2), plans=None, rates=None, relay_budget=None):
        self.item = item or make_item()
        self.catalog = DataCatalog([self.item])
        self.history = VersionHistory()
        self.stats = StatsRegistry()
        self.update_log = []
        tree = RefreshTree(root=0)
        for parent, child in tree_edges:
            tree.attach(child, parent)
        self.tree = tree
        self.net = build_network(trace, stats=self.stats)
        self.handlers = {}
        for nid, node in self.net.nodes.items():
            handler = HdrRefreshHandler(
                catalog=self.catalog,
                trees={0: tree},
                plans=plans or {},
                update_log=self.update_log,
                stats=self.stats,
                store=CacheStore() if nid in caching else None,
                rates=rates,
                relay_budget=relay_budget,
            )
            node.add_handler(handler)
            self.handlers[nid] = handler
        self.source = SourceHandler(
            items=[self.item], history=self.history, stats=self.stats
        )
        self.net.nodes[0].add_handler(self.source)
        self.source.on_new_version(self.handlers[0].source_published)


class TestHdrCascade:
    def test_version_cascades_down_tree(self, line_trace):
        bed = HdrTestbed(line_trace)
        bed.net.run(until=100.0)  # version 1 published at t=0
        # v1 reaches node 1 at the 0-1 contact (t=10), node 2 at t=30
        assert bed.handlers[1].store.peek(0).version == 1
        assert bed.handlers[2].store.peek(0).version == 1
        vias = [u.via for u in bed.update_log]
        assert vias == ["direct", "direct"]

    def test_new_versions_keep_flowing(self, line_trace):
        bed = HdrTestbed(line_trace)
        bed.net.run(until=1000.0)
        # versions published every 100 s; each sweep carries the newest
        assert bed.handlers[2].store.peek(0).version >= 8

    def test_child_not_in_contact_stays_stale(self):
        trace = ContactTrace(
            [Contact.make(0, 1, 10.0, 20.0)], node_ids=[0, 1, 2]
        )
        bed = HdrTestbed(trace)
        bed.net.run(until=100.0)
        assert bed.handlers[1].store.peek(0).version == 1
        assert bed.handlers[2].store.peek(0) is None

    def test_refresh_delay_recorded(self, line_trace):
        bed = HdrTestbed(line_trace)
        bed.net.run(until=60.0)
        delays = [u.delay for u in bed.update_log]
        assert delays == [pytest.approx(10.0), pytest.approx(30.0)]

    def test_suppression_when_target_already_fresh(self, line_trace):
        bed = HdrTestbed(line_trace)
        bed.handlers[1].seed_entry(bed.item, version=1, version_time=0.0)
        bed.net.run(until=25.0)
        # node 1 already had v1: the 0-1 contact suppresses the send
        assert bed.stats.counter_value("refresh.suppressed") >= 1
        assert bed.stats.counter_value("net.transfers.refresh") == 0

    def test_expired_task_dropped(self):
        # item expires after 5 s; first 0-1 contact at t=10
        trace = ContactTrace([Contact.make(0, 1, 10.0, 20.0)], node_ids=[0, 1, 2])
        bed = HdrTestbed(trace, item=make_item(lifetime=5.0))
        bed.net.run(until=100.0)
        assert bed.handlers[1].store.peek(0) is None
        assert bed.stats.counter_value("refresh.tasks_expired") >= 1

    def test_stale_delivery_counted_not_applied(self, line_trace):
        bed = HdrTestbed(line_trace)
        bed.handlers[1].seed_entry(bed.item, version=5, version_time=0.0)
        bed.net.run(until=25.0)
        # v1 delivery is suppressed by the peek; make node 1 look stale
        # through the pending-task path instead: hand a direct message.
        assert bed.handlers[1].store.peek(0).version == 5


class TestRelayPath:
    def relay_plan(self, relays):
        return {
            (0, 0, 2): RelayPlan(
                parent=0, child=2, window=50.0, target=0.9,
                direct_probability=0.0, relays=list(relays),
                relay_probabilities=[0.5] * len(relays),
                achieved=0.9, meets_target=True,
            )
        }

    def relay_trace(self):
        """0 never meets 2, but 1 shuttles between them."""
        contacts = []
        for start in range(0, 500, 100):
            contacts.append(Contact.make(0, 1, start + 10.0, start + 20.0))
            contacts.append(Contact.make(1, 2, start + 40.0, start + 50.0))
        return ContactTrace(contacts, node_ids=[0, 1, 2])

    def test_planned_relay_carries_refresh(self):
        bed = HdrTestbed(
            self.relay_trace(),
            tree_edges=((0, 2),),
            caching=(2,),
            plans=self.relay_plan([1]),
        )
        bed.net.run(until=99.0)
        assert bed.handlers[2].store.peek(0).version == 1
        assert bed.update_log[0].via == "relay"
        assert bed.stats.counter_value("refresh.relays_recruited") == 1

    def test_unqualified_peer_not_recruited(self):
        # empty relay list and no rates: node 1 never qualifies
        bed = HdrTestbed(
            self.relay_trace(),
            tree_edges=((0, 2),),
            caching=(2,),
            plans=self.relay_plan([]),
        )
        bed.net.run(until=500.0)
        assert bed.handlers[2].store.peek(0) is None

    def test_rate_gradient_recruits_encountered_peer(self):
        # peer 1 not pre-planned, but rates say 1 reaches 2 better than 0
        rates = RateTable({(0, 2): 0.0001, (1, 2): 1.0})
        plans = self.relay_plan([99])  # plan names an unknown relay
        bed = HdrTestbed(
            self.relay_trace(),
            tree_edges=((0, 2),),
            caching=(2,),
            plans=plans,
            rates=rates,
        )
        bed.net.run(until=99.0)
        assert bed.handlers[2].store.peek(0).version == 1

    def test_relay_budget_caps_recruitment(self):
        rates = RateTable({(0, 2): 0.0001, (1, 2): 1.0})
        bed = HdrTestbed(
            self.relay_trace(),
            tree_edges=((0, 2),),
            caching=(2,),
            plans=self.relay_plan([99]),
            rates=rates,
            relay_budget=0,
        )
        bed.net.run(until=500.0)
        assert bed.stats.counter_value("refresh.relays_recruited") == 0
        assert bed.stats.counter_value("refresh.budget_exhausted") >= 1

    def test_relay_does_not_rerelay(self):
        """A recruited relay must deliver itself, not recruit others."""
        contacts = []
        for start in range(0, 500, 100):
            contacts.append(Contact.make(0, 1, start + 10.0, start + 20.0))
            contacts.append(Contact.make(1, 3, start + 30.0, start + 40.0))
            contacts.append(Contact.make(3, 2, start + 50.0, start + 60.0))
        trace = ContactTrace(contacts, node_ids=[0, 1, 2, 3])
        rates = RateTable({(1, 2): 1.0, (3, 2): 5.0})
        bed = HdrTestbed(
            trace, tree_edges=((0, 2),), caching=(2,),
            plans=self.relay_plan([1]), rates=rates,
        )
        bed.net.run(until=500.0)
        # the source recruited node 1 (once per version), but node 1 must
        # never recruit node 3 onward -- so 3 holds no tasks and node 2
        # (reachable only through 3) never receives anything.
        assert bed.stats.counter_value("refresh.relays_recruited") > 0
        assert bed.handlers[3].tasks == {}
        assert bed.handlers[2].store.peek(0) is None


class TestSourceHandler:
    def test_periodic_publishing(self, line_trace):
        bed = HdrTestbed(line_trace)
        bed.net.run(until=350.0)
        assert bed.history.num_versions(0) == 4  # t=0,100,200,300
        assert bed.source.current_version(0)[0] == 4

    def test_jitter_validated(self):
        with pytest.raises(ValueError):
            SourceHandler(items=[], history=VersionHistory(), jitter=1.0)

    def test_jittered_intervals_vary(self, line_trace):
        item = make_item()
        history = VersionHistory()
        net = build_network(line_trace)
        source = SourceHandler(
            items=[item], history=history, jitter=0.4,
            rng=np.random.default_rng(1),
        )
        net.nodes[0].add_handler(source)
        net.run(until=1000.0)
        times = [history.version_time(0, v) for v in range(1, history.num_versions(0) + 1)]
        gaps = {round(b - a, 3) for a, b in zip(times, times[1:])}
        assert len(gaps) > 1  # not all identical

    def test_answer_provider(self, line_trace):
        bed = HdrTestbed(line_trace)
        bed.net.run(until=150.0)
        version, vtime = bed.source.answer_provider(0)
        assert version == 2
        assert vtime == 100.0


class TestFlooding:
    def wire_flooding(self, trace, caching=(3,)):
        item = make_item()
        catalog = DataCatalog([item])
        history = VersionHistory()
        stats = StatsRegistry()
        update_log = []
        net = build_network(trace, stats=stats)
        handlers = {}
        for nid, node in net.nodes.items():
            handler = FloodingRefreshHandler(
                catalog=catalog,
                update_log=update_log,
                stats=stats,
                store=CacheStore() if nid in caching else None,
            )
            node.add_handler(handler)
            handlers[nid] = handler
        source = SourceHandler(items=[item], history=history, stats=stats)
        net.nodes[0].add_handler(source)
        source.on_new_version(handlers[0].source_published)
        return net, handlers, stats

    def test_version_spreads_multihop(self, line_trace):
        net, handlers, stats = self.wire_flooding(line_trace)
        net.run(until=95.0)  # stop before v2 is published at t=100
        assert handlers[3].store.peek(0).version == 1
        # every node carries it
        assert all(h.known_version(0) == 1 for h in handlers.values())

    def test_no_redundant_pushes(self, line_trace):
        net, handlers, stats = self.wire_flooding(line_trace)
        net.run(until=95.0)
        # chain of 3 transfers carries v1 to everyone exactly once
        assert stats.counter_value("net.transfers.refresh_flood") == 3

    def test_non_caching_nodes_relay_without_store(self, line_trace):
        net, handlers, stats = self.wire_flooding(line_trace, caching=(3,))
        net.run(until=100.0)
        assert handlers[1].store is None
        assert handlers[1].known_version(0) == 1
