"""Epidemic routing: replicate every message to every new peer.

The flooding upper bound: minimum delivery delay, maximum transmission
overhead.  A summary-vector handshake (modelled by peeking at the peer's
``seen`` set) suppresses re-sending messages the peer already carries,
and, when the agent carries cures, first pulls the peer's new cures so
that nothing either side knows is cured is offered.
"""

from __future__ import annotations

from repro.routing.base import RoutingAgent
from repro.sim.messages import Message
from repro.sim.node import Node


def _has_hops(message: Message) -> bool:
    return message.hops_left is None or message.hops_left > 0


class EpidemicRouting(RoutingAgent):
    """Replicate to any peer that has not seen the message yet."""

    def should_forward(self, message: Message, peer: Node) -> bool:
        if not _has_hops(message):
            return False
        peer_agent = self.peer_agent(peer)
        if peer_agent is None:
            return message.dst == peer.node_id
        return message.msg_id not in peer_agent.seen

    def split_for(self, message: Message, peer: Node) -> Message:
        outgoing = message.copy()
        if outgoing.hops_left is not None:
            outgoing.hops_left -= 1
        return outgoing

    def _try_forward_all(self, peer: Node) -> None:
        # The summary-vector handshake: resolve the peer's agent once and
        # offer only what it has not seen, in buffer order.  Same result
        # as asking should_forward per message: sends are delivered
        # after this callback returns, so the peer's seen set cannot
        # change while this loop runs.  Cures are exchanged first, so nothing
        # the peer knows is cured is offered.
        peer_agent = self.peer_agent(peer)
        if peer_agent is None:
            offers = [m for m in self.buffer.values() if m.dst == peer.node_id]
        else:
            self._exchange_cures(peer_agent)
            seen = peer_agent.seen
            offers = [m for mid, m in self.buffer.items() if mid not in seen]
        now = self.node.sim.now
        for message in offers:
            if not message.expired(now) and _has_hops(message):
                self._forward(message, peer)
