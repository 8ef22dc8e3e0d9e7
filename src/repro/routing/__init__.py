"""DTN store-carry-forward routing substrate.

Query responses travel over opportunistic contacts, so every node runs
a routing agent that buffers messages and forwards them
contact-by-contact.  :class:`~repro.routing.base.RoutingAgent` holds the
mechanics; :class:`~repro.routing.epidemic.EpidemicRouting`, the policy
that carries responses back to their requesters, replicates to every
new peer (minimum delay, maximum overhead).
"""

from repro.routing.base import DeliveryRecord, RoutingAgent
from repro.routing.epidemic import EpidemicRouting

__all__ = [
    "DeliveryRecord",
    "EpidemicRouting",
    "RoutingAgent",
]
