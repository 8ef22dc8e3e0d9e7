"""Tests for the DTN routing agent and epidemic routing.

The line trace (0-1, 1-2, 2-3 repeating every 100 s) lets epidemic
routing carry a message from node 0 to node 3 within one sweep.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.trace import Contact, ContactTrace
from repro.routing.base import RoutingAgent
from repro.routing.epidemic import EpidemicRouting
from repro.sim.messages import Message, reset_message_ids
from repro.sim.stats import StatsRegistry
from tests.conftest import build_network


def install(net, agent_class, **kwargs):
    agents = {}
    for nid, node in net.nodes.items():
        agents[nid] = node.add_handler(agent_class(**kwargs))
    net.start()
    return agents


def originate(net, agents, src, dst, at, kind="data"):
    message = Message(kind=kind, src=src, dst=dst, created_at=at)
    net.sim.run(until=at)
    agents[src].originate(message)
    return message


class TestEpidemicRouting:
    def test_multi_hop_delivery(self, line_trace, network_factory):
        net = network_factory(line_trace)
        agents = install(net, EpidemicRouting)
        originate(net, agents, 0, 3, at=5.0)
        net.sim.run(until=100.0)
        assert len(agents[3].deliveries) == 1
        # delivered within the first sweep: 0->1 at 10, 1->2 at 30, 2->3 at 50
        assert agents[3].deliveries[0].delivered_at == pytest.approx(50.0)

    def test_no_reinfection(self, line_trace, network_factory):
        net = network_factory(line_trace)
        agents = install(net, EpidemicRouting)
        originate(net, agents, 0, 3, at=5.0)
        net.sim.run(until=1000.0)
        # exactly one delivery despite repeated contacts
        assert len(agents[3].deliveries) == 1

    def test_hop_limit_respected(self, line_trace, network_factory):
        net = network_factory(line_trace)
        agents = install(net, EpidemicRouting)
        message = Message(kind="data", src=0, dst=3, created_at=5.0, hops_left=1)
        net.sim.run(until=5.0)
        agents[0].originate(message)
        net.sim.run(until=1000.0)
        # one hop reaches node 1 only; node 3 needs three hops
        assert len(agents[3].deliveries) == 0

    def test_ttl_expiry_stops_spread(self, line_trace, network_factory):
        net = network_factory(line_trace)
        agents = install(net, EpidemicRouting)
        message = Message(kind="data", src=0, dst=3, created_at=5.0, ttl=30.0)
        net.sim.run(until=5.0)
        agents[0].originate(message)
        net.sim.run(until=1000.0)
        # reaches node 1 (t=10) and node 2 (t=30) but expires before 2->3 at t=50
        assert len(agents[3].deliveries) == 0


class FullScanEpidemic(EpidemicRouting):
    """Reference: offer the whole buffer to every peer, scan it for expiry."""

    def _try_forward_all(self, peer):
        for message in list(self.buffer.values()):
            self._try_forward_one(message, peer)

    def _expire_buffer(self):
        now = self.node.sim.now
        dead = [mid for mid, m in self.buffer.items() if m.expired(now)]
        for mid in dead:
            del self.buffer[mid]
        if dead:
            self.stats.counter("routing.dropped_expired").add(len(dead))


@st.composite
def epidemic_scenarios(draw):
    """A small random trace with random originations.

    Integer times make ties common: contacts opening together,
    originations during open contacts, and messages whose age equals
    their TTL exactly.  A message may be originated some time after it
    was created, so buffers often hold messages out of creation order.
    """
    n = draw(st.integers(3, 5))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    contacts = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.integers(0, 300), st.integers(0, 60)),
        min_size=10, max_size=50,
    ))
    # A node without a routing agent takes only messages addressed to it.
    bare = draw(st.sets(st.integers(0, n - 1), max_size=1))
    carriers = [nid for nid in range(n) if nid not in bare]
    originations = draw(st.lists(
        st.tuples(
            st.integers(0, 300),
            st.integers(0, 100),
            st.sampled_from(carriers),
            st.integers(0, n - 1),
            st.sampled_from([None, 60.0, 150.0]),
            st.one_of(st.none(), st.integers(0, 3)),
        ),
        min_size=5, max_size=25,
    ))
    capacity = draw(st.one_of(st.none(), st.integers(1, 4)))
    return n, contacts, bare, originations, capacity


def run_epidemic(agent_class, scenario):
    n, contacts, bare, originations, capacity = scenario
    reset_message_ids()
    trace = ContactTrace(
        [Contact.make(a, b, start, start + length)
         for (a, b), start, length in contacts],
        node_ids=list(range(n)),
    )
    stats = StatsRegistry()
    net = build_network(trace, stats=stats, record_transfers=True)
    agents = {
        nid: net.nodes[nid].add_handler(agent_class(buffer_capacity=capacity, stats=stats))
        for nid in range(n) if nid not in bare
    }
    net.start()

    def originate_now(age, src, dst, ttl, hops_left):
        agents[src].originate(Message(
            kind="data", src=src, dst=dst, created_at=net.sim.now - age,
            ttl=ttl, hops_left=hops_left,
        ))

    for at, age, src, dst, ttl, hops_left in originations:
        net.sim.schedule_at(float(at), originate_now, age, src, dst, ttl, hops_left)
    buffers = []
    for until in range(10, 410, 10):
        net.sim.run(until=float(until))
        buffers.append([list(agent.buffer) for agent in agents.values()])
    return (
        net.transfers,
        {nid: agent.deliveries for nid, agent in agents.items()},
        buffers,
        stats.counters(),
    )


class TestEpidemicSummaryVector:
    @settings(max_examples=150, deadline=None)
    @given(epidemic_scenarios())
    def test_matches_full_scan_reference(self, scenario):
        assert run_epidemic(EpidemicRouting, scenario) == run_epidemic(
            FullScanEpidemic, scenario
        )


class TestRoutingAgentBase:
    def test_originate_to_self_delivers_immediately(self, line_trace, network_factory):
        net = network_factory(line_trace)
        agents = install(net, EpidemicRouting)
        message = Message(kind="data", src=0, dst=0, created_at=0.0)
        agents[0].originate(message)
        assert len(agents[0].deliveries) == 1

    def test_delivery_callback(self, line_trace, network_factory):
        net = network_factory(line_trace)
        agents = install(net, EpidemicRouting)
        received = []
        agents[1].on_delivery("data", received.append)
        originate(net, agents, 0, 1, at=5.0)
        net.sim.run(until=100.0)
        assert len(received) == 1

    def test_buffer_capacity_evicts_oldest(self, line_trace, network_factory):
        net = network_factory(line_trace)
        agents = install(net, EpidemicRouting, buffer_capacity=2)
        agent = agents[0]
        for k in range(3):
            agent.originate(Message(kind="data", src=0, dst=3, created_at=float(k)))
        assert len(agent.buffer) == 2
        oldest_left = min(m.created_at for m in agent.buffer.values())
        assert oldest_left == 1.0

    def test_delay_statistics_recorded(self, line_trace, network_factory):
        net = network_factory(line_trace)
        agents = install(net, EpidemicRouting)
        originate(net, agents, 0, 1, at=5.0)
        net.sim.run(until=100.0)
        assert agents[1].stats.tally("routing.delay.data").count == 1
        assert agents[1].stats.tally("routing.delay.data").mean == pytest.approx(5.0)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_buffer_capacity_below_one_rejected(self, capacity):
        with pytest.raises(ValueError):
            EpidemicRouting(buffer_capacity=capacity)

    def test_kinds_filter(self, line_trace, network_factory):
        net = network_factory(line_trace)
        agent = RoutingAgentStub(kinds=frozenset({"only"}))
        assert agent.handled_kinds == frozenset({"only"})


class RoutingAgentStub(RoutingAgent):
    def should_forward(self, message, peer):
        return False
