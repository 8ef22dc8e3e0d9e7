"""The contact schedule runs in exactly the event heap's order.

``ContactNetwork`` hands its trace to the simulator as one presorted
schedule, which the run loop merges with the heap.  The reference here
is the heap path that schedule replaced: a start and an end heap event
per contact, scheduled in contact order before anything else.  Both
must execute the same ``(time, callback, args)`` sequence, whatever the
protocol schedules on top and however the simulator is driven.
:class:`HeapDeliveryNetwork` also delivers every message through the
heap, the path the simulator's same-time FIFO replaced.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.trace import Contact, ContactTrace
from repro.sim.engine import SimulationError, Simulator
from repro.sim.messages import Message
from repro.sim.network import ContactNetwork
from repro.sim.node import Node, ProtocolHandler

#: the simulated population; contacts may also name ``UNKNOWN``
NODES = (0, 1, 2, 3)
UNKNOWN = 9


class RecordingNetwork(ContactNetwork):
    """Logs every contact callback it executes."""

    def __init__(self, *args, **kwargs):
        self.log = []
        super().__init__(*args, **kwargs)

    def _contact_start(self, a, b, duration):
        self.log.append((self.sim.now, "start", (a, b, duration)))
        super()._contact_start(a, b, duration)

    def _contact_end(self, a, b):
        self.log.append((self.sim.now, "end", (a, b)))
        super()._contact_end(a, b)


class ReferenceNetwork(RecordingNetwork):
    """The heap path: one ``schedule_at`` per contact start and end."""

    def _schedule_trace(self, contacts):
        entries = []
        for contact in contacts:
            if contact.a not in self.nodes or contact.b not in self.nodes:
                continue
            entries.append((contact.start, 0, self._contact_start,
                            (contact.a, contact.b, contact.end - contact.start)))
            entries.append((contact.end, 10, self._contact_end,
                            (contact.a, contact.b)))
        for time, priority, callback, args in entries:
            self.sim.schedule_at(time, callback, *args, priority=priority)
        self.stats.counter("net.contacts_scheduled").add(len(entries) // 2)


class HeapDeliveryNetwork(ReferenceNetwork):
    """The reference with every delivery a heap event as well, as
    ``transfer`` scheduled it before deliveries had their same-time FIFO."""

    def __init__(self, sim, *args, **kwargs):
        def schedule_now(callback, *call_args, priority=0):
            sim.schedule_at(sim.now, callback, *call_args, priority=priority)

        sim.schedule_now = schedule_now
        super().__init__(sim, *args, **kwargs)


class Chatter(ProtocolHandler):
    """On every contact start, sends the peer a message and schedules
    the planned ``(delay, priority, follow_up)`` events; a follow-up
    schedules one more event at the time it runs."""

    def __init__(self, log, plan):
        super().__init__()
        self.log = log
        self.plan = plan

    def on_contact_start(self, peer):
        sim = self.node.sim
        self.node.send(Message(kind="x", src=self.node.node_id,
                               dst=peer.node_id, created_at=sim.now), peer)
        for k, (delay, priority, follow_up) in enumerate(self.plan):
            sim.schedule_at(sim.now + delay, self.fire, peer.node_id, k,
                            follow_up, priority=priority)

    def on_message(self, message, sender):
        self.log.append((self.node.sim.now, "rx",
                         (self.node.node_id, sender.node_id)))

    def fire(self, peer, k, follow_up):
        sim = self.node.sim
        self.log.append((sim.now, "fire", (self.node.node_id, peer, k)))
        if follow_up is not None:
            sim.schedule_at(sim.now, self.fire, peer, -1 - k, None,
                            priority=follow_up)


def build(cls, contacts, plan):
    sim = Simulator()
    nodes = {nid: Node(nid) for nid in NODES}
    network = cls(sim, nodes, contacts)
    for node in nodes.values():
        node.add_handler(Chatter(network.log, plan))
    network.start()
    return network


def drive(network, mode, stops):
    sim = network.sim
    if mode == "run":
        sim.run()
    elif mode == "chunks":
        # ``max_events`` stops a chunk part-way through a timestamp
        for until, max_events in stops:
            sim.run(until=until, max_events=max_events)
        sim.run()
    else:
        # the live service's exclusive advance: peek, then step
        for until in [until for until, _ in stops] + [math.inf]:
            while True:
                next_time = sim.peek_time()
                if next_time is None or next_time >= until:
                    break
                sim.step()
                assert sim.now == next_time
        assert not sim.step()


times = st.integers(min_value=0, max_value=12).map(float)
contacts = st.lists(
    st.tuples(
        st.sampled_from(NODES + (UNKNOWN,)),
        st.sampled_from(NODES),
        times,
        st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0]),
    ).filter(lambda c: c[0] != c[1]).map(
        lambda c: Contact.make(c[0], c[1], c[2], c[2] + c[3])),
    max_size=25,
)
plans = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.5]),
        st.sampled_from([0, 5, 10]),
        st.sampled_from([None, 0, 5, 10]),
    ),
    max_size=3,
)
stops = st.lists(
    st.tuples(times, st.integers(min_value=1, max_value=6)), max_size=6,
).map(sorted)


class TestReferenceOrder:
    @given(contacts, st.booleans(), plans,
           st.sampled_from(["run", "chunks", "step"]), stops)
    @settings(max_examples=150, deadline=None)
    def test_executes_the_heap_order(self, raw, as_trace, plan, mode, stop):
        trace = ContactTrace(raw, merge_overlaps=False) if as_trace else raw
        expected = build(ReferenceNetwork, trace, plan)
        expected.sim.run()
        actual = build(RecordingNetwork, trace, plan)
        drive(actual, mode, stop)

        assert actual.log == expected.log
        assert actual.sim.events_executed == expected.sim.events_executed
        assert actual.sim.pending == 0
        assert actual.stats.counters() == expected.stats.counters()

    def test_ties_at_one_timestamp(self):
        """A zero-length contact, a start at another contact's end, and
        dynamic events at both priorities around them."""
        raw = [Contact.make(0, 1, 1.0, 2.0), Contact.make(1, 2, 2.0, 2.0),
               Contact.make(0, 2, 2.0, 3.0), Contact.make(2, UNKNOWN, 2.0, 4.0)]
        plan = [(1.0, 0, 10), (1.0, 10, 0), (0.0, 5, None)]
        expected = build(ReferenceNetwork, raw, plan)
        expected.sim.run()
        actual = build(RecordingNetwork, raw, plan)
        actual.sim.run()
        assert actual.log == expected.log
        # static starts, then dynamic events by priority: the contact
        # starts' deliveries and fires at 5, then the static ends ahead
        # of the dynamic priority-10 events
        at_2 = [entry[1] for entry in actual.log if entry[0] == 2.0]
        assert at_2 == ["start", "start", "fire", "fire"] + [
            "rx", "fire"] * 4 + ["end", "end"] + ["fire"] * 6


class TestDeliveryOrder:
    """Deliveries queued in the same-time FIFO run where their heap
    events did."""

    @given(contacts, st.booleans(), plans,
           st.sampled_from(["run", "chunks", "step"]), stops)
    @settings(max_examples=100, deadline=None)
    def test_executes_the_heap_order(self, raw, as_trace, plan, mode, stop):
        trace = ContactTrace(raw, merge_overlaps=False) if as_trace else raw
        expected = build(HeapDeliveryNetwork, trace, plan)
        expected.sim.run()
        actual = build(RecordingNetwork, trace, plan)
        drive(actual, mode, stop)

        assert actual.log == expected.log
        assert actual.sim.events_executed == expected.sim.events_executed
        assert actual.sim.pending == 0

    @pytest.mark.parametrize("mode", ["run", "chunks", "step"])
    def test_heap_event_scheduled_before_same_time_deliveries(self, mode):
        """At 1 both ends of 0-1 schedule a priority-5 heap event for 2.
        At 2 the contact 2-3 opens and both ends send: the deliveries
        are queued after those older priority-5 events, and run after
        them, ahead of the contact end at priority 10."""
        raw = [Contact.make(0, 1, 1.0, 2.0), Contact.make(2, 3, 2.0, 3.0)]
        plan = [(1.0, 5, None)]
        expected = build(HeapDeliveryNetwork, raw, plan)
        expected.sim.run()
        actual = build(RecordingNetwork, raw, plan)
        drive(actual, mode, [(2.0, 1), (2.0, 2), (2.0, 1)])
        assert actual.log == expected.log
        at_2 = [entry[1:] for entry in actual.log if entry[0] == 2.0]
        assert at_2 == [("start", (2, 3, 1.0)), ("fire", (0, 1, 0)),
                        ("fire", (1, 0, 0)), ("rx", (3, 2)), ("rx", (2, 3)),
                        ("end", (0, 1))]


class TestBadContacts:
    @pytest.mark.parametrize("start,end", [
        (math.nan, 5.0), (1.0, math.nan), (1.0, math.inf),
        (-math.inf, 1.0),
    ])
    def test_non_finite_contact_rejected(self, start, end):
        nodes = {0: Node(0), 1: Node(1)}
        contacts = [Contact.make(0, 1, 0.0, 1.0), Contact.make(0, 1, start, end)]
        with pytest.raises(SimulationError, match="non-finite"):
            ContactNetwork(Simulator(), nodes, contacts)

    def test_network_needs_a_fresh_simulator(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        nodes = {0: Node(0), 1: Node(1)}
        with pytest.raises(SimulationError, match="fresh simulator"):
            ContactNetwork(sim, nodes, [Contact.make(0, 1, 2.0, 3.0)])
