"""Dynamic maintenance of the refresh hierarchy under churn.

Mobile devices leave (power off, move away) and return.  The hierarchy
must be *maintained*, not rebuilt: when a caching node departs, its
orphaned subtree is re-attached to the surviving structure; when a node
(re)joins, it is attached to the best reachable parent -- both using the
same rate-aware rule the builder uses, and both recomputing the relay
plans of exactly the edges that changed.

:class:`HierarchyManager` performs those structural repairs for one
item's tree in a :class:`~repro.core.plan.RefreshPlan`, provisioning
each changed edge through the planner's own
:meth:`~repro.core.plan.RefreshPlan.provision_edge`.
:class:`ChurnProcess` drives a simulation with a
memoryless leave/return process over the caching nodes, repairing every
item's hierarchy on each event -- the runtime counterpart of the paper's
"distributed maintenance".

In deployment the repair decisions are taken by the departing node's
parent and the orphans themselves from their local rate estimates; this
module computes the same result centrally for the simulation, exactly
like the builder in :mod:`repro.core.hierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.plan import RefreshPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheme import SchemeRuntime


@dataclass
class RepairStats:
    """Counters of structural operations performed by a manager."""

    joins: int = 0
    leaves: int = 0
    reattachments: int = 0
    replanned_edges: int = 0


class HierarchyManager:
    """Repairs one item's refresh tree, and the relays of its edges, in
    ``plan`` as members come and go."""

    def __init__(
        self,
        plan: RefreshPlan,
        item_id: int,
        fanout: int = 3,
        max_depth: int = 3,
    ) -> None:
        self.plan = plan
        self.item_id = item_id
        self.tree = plan.trees[item_id]
        self.fanout = fanout
        self.max_depth = max_depth
        self.stats = RepairStats()

    # -- structural operations ------------------------------------------

    def add_member(self, node: int) -> int:
        """Attach ``node`` to the best reachable parent; returns the parent."""
        if node in self.tree.nodes:
            raise ValueError(f"node {node} is already in the tree")
        parent = self._best_parent(node)
        self.tree.attach(node, parent)
        self._replan_edge(parent, node)
        self.stats.joins += 1
        return parent

    def remove_member(self, node: int) -> list[int]:
        """Detach ``node`` and re-attach its orphaned descendants.

        Returns the re-attached nodes.  The departed node's plans (as
        parent and as child) are dropped.
        """
        if node not in self.tree.nodes or node == self.tree.root:
            raise ValueError(f"node {node} is not a removable member")
        orphans = self.tree.detach(node)
        self._drop_plans_touching(node)
        # Strongest-rate orphans re-attach first, so they become anchor
        # points for the rest (mirrors the builder's greedy order).
        orphans.sort(key=lambda n: -self._best_rate_to_tree(n))
        for orphan in orphans:
            self._drop_plans_touching(orphan)
            new_parent = self._best_parent(orphan)
            self.tree.attach(orphan, new_parent)
            self._replan_edge(new_parent, orphan)
            self.stats.reattachments += 1
        self.stats.leaves += 1
        return orphans

    # -- internals -----------------------------------------------------------

    def _capacity_of(self, node: int) -> int:
        return self.fanout - len(self.tree.children_of(node))

    def _open_parents(self) -> list[int]:
        return [
            node
            for node in self.tree.nodes
            if self.tree.depth_of(node) < self.max_depth and self._capacity_of(node) > 0
        ]

    def _best_parent(self, node: int) -> int:
        candidates = self._open_parents()
        if not candidates:
            raise ValueError("no parent with spare capacity (budget exhausted)")
        rates = self.plan.rates
        best = max(
            candidates,
            key=lambda p: (rates.rate(p, node), -self.tree.depth_of(p), -p),
        )
        if rates.rate(best, node) > 0:
            return best
        # no reachable parent: fall back to the shallowest open slot
        return min(candidates, key=lambda p: (self.tree.depth_of(p), p))

    def _best_rate_to_tree(self, node: int) -> float:
        return max(
            (self.plan.rates.rate(node, member) for member in self.tree.nodes),
            default=0.0,
        )

    def _replan_edge(self, parent: int, child: int) -> None:
        self.plan.provision_edge(self.item_id, parent, child)
        self.stats.replanned_edges += 1

    def _drop_plans_touching(self, node: int) -> None:
        plans = self.plan.plans
        dead = [
            key
            for key in plans
            if key[0] == self.item_id and (key[1] == node or key[2] == node)
        ]
        for key in dead:
            del plans[key]


def managers_for_runtime(runtime: "SchemeRuntime") -> dict[int, HierarchyManager]:
    """One :class:`HierarchyManager` per item of a tree-structured
    runtime, each repairing ``runtime.plan``."""
    plan = runtime.plan
    config = plan.config
    if config.structure not in ("tree", "star"):
        raise ValueError(f"scheme {config.name!r} has no hierarchy to maintain")
    if config.structure == "star":
        # A star must stay a star: the root holds every member directly.
        fanout = max(config.fanout, len(plan.caching_nodes) + 8)
        max_depth = 1
    else:
        fanout = config.fanout
        max_depth = config.max_depth
    return {
        item.item_id: HierarchyManager(
            plan, item.item_id, fanout=fanout, max_depth=max_depth
        )
        for item in plan.catalog
    }


@dataclass
class ChurnEvent:
    """One departure/return of a caching node."""

    time: float
    node: int
    online: bool


class ChurnProcess:
    """Memoryless churn over a runtime's caching nodes.

    Each online caching node departs at rate ``leave_rate`` (per second)
    and returns after an Exp(``mean_downtime``) absence.  On departure
    the node's device goes offline (network-level) and every item's
    hierarchy is repaired around it; on return the node re-joins each
    tree as a leaf (its cache may hold stale entries until the next
    refresh reaches it, exactly as a real returning device would).

    Call :meth:`install` once before ``runtime.run``.
    """

    def __init__(
        self,
        runtime: "SchemeRuntime",
        leave_rate: float,
        mean_downtime: float,
        rng: np.random.Generator,
        until: float,
        managers: Optional[dict[int, HierarchyManager]] = None,
    ) -> None:
        if leave_rate < 0:
            raise ValueError("leave_rate must be non-negative")
        if mean_downtime <= 0:
            raise ValueError("mean_downtime must be positive")
        self.runtime = runtime
        self.leave_rate = leave_rate
        self.mean_downtime = mean_downtime
        self.rng = rng
        self.until = until
        self.managers = managers if managers is not None else managers_for_runtime(runtime)
        self.events: list[ChurnEvent] = []
        self.offline: set[int] = set()

    def install(self) -> None:
        """Schedule the first departure for every caching node."""
        if self.leave_rate == 0:
            return
        for node in self.runtime.caching_nodes:
            self._schedule_departure(node)

    def _schedule_departure(self, node: int) -> None:
        delay = float(self.rng.exponential(1.0 / self.leave_rate))
        when = self.runtime.sim.now + delay
        if when <= self.until:
            self.runtime.sim.schedule_at(when, self._depart, node)

    def _depart(self, node: int) -> None:
        if node in self.offline:
            return
        self.offline.add(node)
        self.runtime.network.set_online(node, False)
        for manager in self.managers.values():
            if node in manager.tree.nodes:
                manager.remove_member(node)
        self.events.append(ChurnEvent(self.runtime.sim.now, node, online=False))
        downtime = float(self.rng.exponential(self.mean_downtime))
        when = self.runtime.sim.now + downtime
        if when <= self.until:
            self.runtime.sim.schedule_at(when, self._return, node)

    def _return(self, node: int) -> None:
        if node not in self.offline:
            return
        self.offline.discard(node)
        self.runtime.network.set_online(node, True)
        for manager in self.managers.values():
            if node not in manager.tree.nodes:
                manager.add_member(node)
        self.events.append(ChurnEvent(self.runtime.sim.now, node, online=True))
        self._schedule_departure(node)

    @property
    def num_departures(self) -> int:
        return sum(1 for event in self.events if not event.online)
