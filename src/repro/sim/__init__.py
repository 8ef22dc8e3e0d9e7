"""Discrete-event simulation substrate.

This package provides the deterministic discrete-event engine that every
trace-driven experiment in this repository runs on:

- :mod:`repro.sim.engine` -- the run loop (schedule, event heap and
  same-time FIFO) and simulation clock.
- :mod:`repro.sim.messages` -- message data model exchanged over contacts.
- :mod:`repro.sim.node` -- protocol-hosting simulation nodes.
- :mod:`repro.sim.network` -- contact-driven network that replays a trace.
- :mod:`repro.sim.stats` -- counters and time-series recorders.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.messages import Message
from repro.sim.network import BandwidthLimitedLink, ContactNetwork, LinkModel
from repro.sim.node import Node, ProtocolHandler
from repro.sim.stats import Counter, StatsRegistry, TimeSeries

__all__ = [
    "BandwidthLimitedLink",
    "ContactNetwork",
    "Counter",
    "Event",
    "LinkModel",
    "Message",
    "Node",
    "ProtocolHandler",
    "Simulator",
    "StatsRegistry",
    "TimeSeries",
]
