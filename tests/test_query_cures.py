"""Cures: once a requester holds an answer, the responses to its query
stop travelling, and no requester's first answer moves."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.caching.items import CacheEntry, DataCatalog, DataItem
from repro.caching.query import Cures, QueryManager
from repro.caching.store import CacheStore
from repro.contacts.rates import mle_rates
from repro.core.scheme import SCHEMES, build_simulation
from repro.mobility.synthetic import PoissonContactModel, gamma_rate_matrix
from repro.mobility.trace import Contact, ContactTrace
from repro.routing.epidemic import EpidemicRouting
from repro.sim.messages import reset_message_ids
from repro.workloads.queries import schedule_queries
from tests.conftest import build_network
from tests.query_plane import QueryPlaneMonitor, uncured_paths

DAY = 86400.0


class TestCures:
    def test_add_is_idempotent(self):
        cures = Cures()
        assert cures.add(7, 100.0)
        assert not cures.add(7, 100.0)
        assert cures.expires == {7: 100.0}

    def test_pull_returns_only_what_is_new_since_the_last_pull(self):
        mine, theirs = Cures(), Cures()
        theirs.add(1, 100.0)
        theirs.add(2, 100.0)
        mine.add(2, 100.0)
        assert mine.pull(theirs, peer_id=5, now=0.0) == [1]
        theirs.add(3, 100.0)
        assert mine.pull(theirs, peer_id=5, now=0.0) == [3]
        assert mine.pull(theirs, peer_id=5, now=0.0) == []
        # another peer's watermark is its own
        other = Cures()
        other.add(4, 100.0)
        assert mine.pull(other, peer_id=6, now=0.0) == [4]

    def test_expiry_keeps_a_cure_through_its_expiry_time(self):
        cures = Cures()
        cures.add(1, 40.0)
        cures.add(2, 50.0)
        cures.add(3, 80.0)
        cures.expire(50.0)
        assert 1 not in cures and 2 in cures
        cures.expire(50.5)
        assert 2 not in cures and 3 in cures

    def test_expired_cures_are_not_pulled(self):
        mine, theirs = Cures(), Cures()
        theirs.add(1, 50.0)
        theirs.add(2, 90.0)
        assert mine.pull(theirs, peer_id=1, now=60.0) == [2]

    def test_pull_after_compaction(self):
        mine, theirs = Cures(), Cures()
        for query_id in range(10):
            theirs.add(query_id, 10.0 + query_id)
        assert mine.pull(theirs, peer_id=1, now=0.0) == list(range(10))
        theirs.expire(16.5)  # drops 0..6, compacting the log's head
        theirs.add(20, 100.0)
        assert mine.pull(theirs, peer_id=1, now=16.5) == [20]
        fresh = Cures()
        assert fresh.pull(theirs, peer_id=1, now=16.5) == [7, 8, 9, 20]


def make_catalog() -> DataCatalog:
    return DataCatalog(
        [DataItem(item_id=0, source=9, refresh_interval=100.0, lifetime=1e6)]
    )


def wire(trace, holder, ttl=1e6):
    """Routing + query manager on every node; ``holder`` caches item 0."""
    net = build_network(trace, record_transfers=True)
    managers, agents = {}, {}
    for nid, node in net.nodes.items():
        agents[nid] = node.add_handler(
            EpidemicRouting(kinds=frozenset({"response"}))
        )
        store = None
        if nid == holder:
            store = CacheStore()
            store.put(CacheEntry(item_id=0, version=1, version_time=0.0,
                                 cached_at=0.0), 0.0)
        managers[nid] = node.add_handler(
            QueryManager(make_catalog(), store=store, query_ttl=ttl)
        )
    net.start()
    return net, managers, agents


def chain(*contacts):
    return ContactTrace([Contact.make(*c) for c in contacts],
                        node_ids=[0, 1, 2, 3, 4, 9])


def holders(agents, nids=(1, 2, 3, 4)):
    """The nodes among ``nids`` that buffer a response."""
    return [nid for nid in nids if agents[nid].buffer]


class TestCuredPlane:
    def test_cure_spreads_back_along_the_response_path(self):
        # query 0 -> 1 -> 2 -> 3 (holder); response 3 -> 2 -> 1 -> 0
        net, managers, agents = wire(chain(
            (0, 1, 10, 20), (1, 2, 30, 40), (2, 3, 50, 60),
            (1, 2, 130, 140), (0, 1, 210, 220),
            (0, 1, 310, 320), (1, 2, 330, 340), (2, 3, 350, 360),
        ), holder=3, ttl=1000.0)
        net.sim.run(until=5.0)
        record = managers[0].issue_query(0)
        net.sim.run(until=209.0)
        assert holders(agents) == [1, 2, 3]
        # node 1 is in contact with the requester when the answer
        # arrives, so it drops its copy in that event; 2 and 3 drop
        # theirs at their next contact with a node that knows the cure
        net.sim.run(until=210.0)
        assert record.answered_at == 210.0 and record.served_by == 3
        assert managers[0].cures.expires == {record.query_id: 5.0 + 2000.0}
        assert holders(agents) == [2, 3]
        net.sim.run(until=329.0)
        assert holders(agents) == [2, 3]
        net.sim.run(until=330.0)
        assert holders(agents) == [3]
        net.sim.run(until=349.0)
        assert holders(agents) == [3]
        net.sim.run(until=350.0)
        assert holders(agents) == []
        for nid in (1, 2, 3):
            assert record.query_id in managers[nid].cures
            assert agents[nid].stats.counter_value("routing.dropped_cured") == 1

    def chain_world(self):
        """Copies at 1, 2, 3 (holder) and 4; at 250 the answer reaches
        the requester 0 over the chain 0-1-2-3 of open contacts, while
        4's only contact closed at 150 and its next opens at 400."""
        net, managers, agents = wire(chain(
            (0, 1, 10, 20), (1, 2, 30, 40), (2, 3, 50, 60),
            (1, 2, 130, 140), (2, 4, 140, 150),
            (1, 2, 200, 300), (2, 3, 200, 300), (0, 1, 250, 260),
            (1, 4, 400, 410),
        ), holder=3, ttl=1000.0)
        net.sim.run(until=5.0)
        record = managers[0].issue_query(0)
        net.sim.run(until=249.0)
        assert holders(agents) == [1, 2, 3, 4]
        return net, managers, agents, record

    def test_cure_crosses_a_chain_of_open_contacts_in_one_event(self):
        net, managers, agents, record = self.chain_world()
        net.sim.run(until=250.0)
        assert record.answered_at == 250.0
        assert holders(agents, (1, 2, 3)) == []
        for nid in (1, 2, 3):
            assert record.query_id in managers[nid].cures
            assert agents[nid].stats.counter_value("routing.dropped_cured") == 1
        sent = [t for t in net.transfers if t.kind == "response"]
        assert max(t.time for t in sent) == 250.0

    def test_node_out_of_contact_learns_the_cure_at_its_next_contact(self):
        net, managers, agents, record = self.chain_world()
        net.sim.run(until=399.0)
        assert record.query_id not in managers[4].cures
        assert holders(agents) == [4]
        net.sim.run(until=400.0)
        assert record.query_id in managers[4].cures
        assert holders(agents) == []
        assert not [t for t in net.transfers
                    if t.kind == "response" and t.sender == 4]

    def test_a_pulled_cure_crosses_the_puller_s_open_contacts(self):
        # 4 takes a copy from 2 and stays in contact with it; when 2
        # pulls the cure from 1 at 330, 4 drops its copy in that event
        net, managers, agents = wire(chain(
            (0, 1, 10, 20), (1, 2, 30, 40), (2, 3, 50, 60),
            (1, 2, 130, 140), (0, 1, 210, 220),
            (2, 4, 300, 400), (1, 2, 330, 340),
        ), holder=3, ttl=1000.0)
        net.sim.run(until=5.0)
        record = managers[0].issue_query(0)
        net.sim.run(until=329.0)
        assert holders(agents) == [2, 3, 4]
        net.sim.run(until=330.0)
        assert holders(agents) == [3]
        assert record.query_id in managers[4].cures

    def test_expired_cure_is_never_handed_on(self):
        # 0 asks 3 directly; the cure expires at 5 + 2 x 100 = 205, but
        # 3 keeps it until its own next expiry pass
        net, managers, _ = wire(chain(
            (0, 3, 10, 20), (1, 2, 290, 320), (2, 3, 300, 310),
        ), holder=3, ttl=100.0)
        net.sim.run(until=5.0)
        record = managers[0].issue_query(0)
        net.sim.run(until=20.0)
        assert record.answered_at == 10.0
        assert managers[3].cures.expires == {record.query_id: 205.0}
        # at 300, 2 pulls from 3 before 3 expires its own cures
        net.sim.run(until=300.0)
        for nid in (1, 2):
            assert managers[nid].cures.expires == {}

    def test_requester_does_not_take_back_its_answered_query(self):
        net, managers, _ = wire(chain(
            (0, 1, 10, 20), (1, 2, 30, 40), (2, 3, 50, 60),
            (1, 2, 130, 140), (0, 1, 210, 220),
            (0, 2, 300, 310), (0, 4, 400, 410),
        ), holder=3)
        net.sim.run(until=5.0)
        record = managers[0].issue_query(0)
        net.sim.run(until=500.0)
        assert record.answered_at == 210.0
        # node 2 still carries the query but does not offer it back
        carried = managers[2]._carried[record.query_id]
        back = [t for t in net.transfers if t.kind == "query" and t.receiver == 0]
        assert back == []
        assert record.query_id not in managers[4]._carried
        # and a copy that arrives anyway is not taken
        managers[0].on_message(carried, net.nodes[2])
        assert record.query_id not in managers[0]._carried

    def test_node_that_knows_the_cure_looks_up_but_does_not_answer(self):
        # 4 holds the item too, but hears the query only after the cure
        net, managers, agents = wire(chain(
            (0, 1, 10, 20), (1, 2, 30, 40), (2, 3, 50, 60),
            (1, 2, 130, 140), (0, 1, 210, 220),
            (0, 1, 310, 320), (1, 2, 330, 340), (2, 4, 400, 410),
        ), holder=3)
        looked_up = []
        managers[4].add_provider(lambda item: looked_up.append(item) or (1, 0.0))
        net.sim.run(until=5.0)
        record = managers[0].issue_query(0)
        net.sim.run(until=500.0)
        assert record.query_id in managers[4].cures
        assert looked_up == [0]
        assert record.query_id in managers[4]._answered
        assert agents[4].stats.counter_value("routing.originated.response") == 0
        assert not agents[4].buffer


@st.composite
def query_worlds(draw):
    """Small random worlds: trace, scheme, query workload, TTL and hop
    limit all vary, and caching nodes ask queries too in some."""
    n = draw(st.integers(min_value=4, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    mean_rate = draw(st.floats(min_value=5e-5, max_value=6e-4))
    sparsity = draw(st.sampled_from([0.0, 0.4]))
    num_items = draw(st.integers(min_value=1, max_value=3))
    num_caching = draw(st.integers(min_value=1, max_value=n - 2))
    scheme = draw(st.sampled_from(sorted(SCHEMES)))
    ttl = draw(st.sampled_from([1800.0, 6 * 3600.0, DAY]))
    hop_limit = draw(st.sampled_from([1, 2, 4, None]))
    queries_per_day = draw(st.sampled_from([3.0, 10.0, 30.0]))
    everyone_asks = draw(st.booleans())
    return (n, seed, mean_rate, sparsity, num_items, num_caching, scheme,
            ttl, hop_limit, queries_per_day, everyone_asks)


def run_world(world, monitored=False):
    """First answers, refresh transfers, query-plane transfers by kind
    and, ``monitored``, the invariant violations of one world's run.

    A monitored run is driven with ``step()`` and checks the open
    contacts after every event; the unmonitored reference uses ``run``.
    """
    (n, seed, mean_rate, sparsity, num_items, num_caching, scheme, ttl,
     hop_limit, queries_per_day, everyone_asks) = world
    horizon = 2 * DAY
    rng = np.random.default_rng(seed)
    rates = gamma_rate_matrix(n, mean_rate, 0.5, rng, sparsity=sparsity)
    trace = PoissonContactModel(rates, mean_duration=300.0).generate(horizon, rng)
    catalog = DataCatalog.uniform(num_items, sources=[0],
                                  refresh_interval=4 * 3600.0)
    reset_message_ids()
    runtime = build_simulation(
        trace, catalog, scheme=scheme,
        caching_nodes=list(range(1, 1 + num_caching)),
        rates=mle_rates(trace, t0=0.0, t1=horizon),
        seed=seed, with_queries=True, record_transfers=True,
    )
    for manager in runtime.query_managers.values():
        manager.query_ttl = ttl
        manager.hop_limit = hop_limit
    schedule_queries(
        runtime, rate_per_node=queries_per_day / DAY, duration=horizon,
        rng=np.random.default_rng(seed + 1),
        requesters=sorted(runtime.nodes) if everyone_asks else None,
    )
    monitor = QueryPlaneMonitor(runtime) if monitored else None
    if monitored:
        # one event at a time, checking the open contacts after each
        runtime.network.start()
        sim = runtime.sim
        while (next_time := sim.peek_time()) is not None and next_time <= horizon:
            sim.step()
            monitor.check_contacts()
    runtime.run(until=horizon)
    answers = [
        (r.requester, r.item_id, r.issued_at, r.answered_at, r.version,
         r.version_time, r.served_by)
        for r in runtime.query_records()
    ]
    transfers = runtime.network.transfers
    refresh = [(t.time, t.kind, t.sender, t.receiver, t.size)
               for t in transfers if t.kind not in ("query", "response")]
    plane = Counter(t.kind for t in transfers if t.kind in ("query", "response"))
    violations = monitor.check() if monitored else []
    return answers, refresh, plane, violations


class TestFirstAnswersUnchanged:
    @given(query_worlds())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cures_move_no_first_answer(self, world):
        answers, refresh, plane, violations = run_world(world, monitored=True)
        with uncured_paths():
            ref_answers, ref_refresh, ref_plane, _ = run_world(world)
        assert violations == []
        assert answers == ref_answers
        assert refresh == ref_refresh
        for kind in ("query", "response"):
            assert plane[kind] <= ref_plane[kind]

    def test_worlds_exercise_cures(self):
        """A fixed world where cures do prune: fewer response transfers."""
        world = (8, 3, 4e-4, 0.0, 2, 3, "hdr", 6 * 3600.0, 4, 30.0, True)
        answers, _, plane, violations = run_world(world, monitored=True)
        with uncured_paths():
            ref_answers, _, ref_plane, _ = run_world(world)
        assert violations == []
        assert answers == ref_answers
        assert sum(a[3] is not None for a in answers) > 10
        assert plane["response"] < ref_plane["response"]


@pytest.mark.parametrize("scheme", ["hdr", "flooding"])
def test_uncured_reference_monitor_sees_the_requester_take_back(scheme):
    """The monitor is not vacuous: on the uncured plane it flags what
    cures and the requester's own check forbid."""
    world = (8, 3, 4e-4, 0.0, 2, 3, scheme, 6 * 3600.0, 4, 30.0, True)
    with uncured_paths():
        *_, violations = run_world(world, monitored=True)
    assert any("requester" in v for v in violations)
