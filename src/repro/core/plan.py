"""The refresh plan: who caches, who refreshes whom, and with how many relays.

The paper's contribution is a provisioning decision made before any
refresh is sent.  :func:`plan_refresh` makes it in one place:

1. the caching nodes -- a caller's fixed set, a placement policy's
   choice, or NCL selection by contact centrality (sources excluded);
2. the per-item subsets a placement policy may assign;
3. each item's refresh structure -- the rate-aware tree for HDR, a star
   for the flat baselines, a random tree for the assignment ablation;
4. the relays of every tree edge, sized by the replication analysis so
   that each caching node is refreshed within its window with
   probability ``p_req``.

The result, a :class:`RefreshPlan`, is what both executors run, what
:class:`~repro.theory.model.FreshnessModel` predicts from, and what
:class:`~repro.core.maintenance.HierarchyManager` repairs under churn.
Building and repairing provision an edge through the same
:meth:`RefreshPlan.provision_edge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.caching.items import DataCatalog
from repro.caching.ncl import select_caching_nodes
from repro.contacts.rates import RateTable
from repro.core.hierarchy import RefreshTree, build_tree, random_tree, star_tree
from repro.core.replication import RelayPlan, decompose_requirement, plan_edge

if TYPE_CHECKING:  # pragma: no cover
    from repro.caching.placement import PlacementPolicy
    from repro.core.scheme import SchemeConfig


@dataclass(frozen=True)
class RefreshPlan:
    """One scheme's provisioning over one population and rate table.

    The fields are fixed once planned; churn repair edits the contents
    of ``trees`` and ``plans`` in place, and every runtime built from
    the plan shares those two dicts with its protocol handlers.
    """

    config: SchemeConfig
    catalog: DataCatalog
    #: every node id of the population, ascending
    node_ids: tuple[int, ...]
    #: the contact rates the plan was made from
    rates: RateTable
    #: every item's source, ascending
    sources: list[int]
    #: ascending
    caching_nodes: list[int]
    #: per-item caching-node subsets when a placement policy restricted
    #: replication (``None`` = every caching node holds every item)
    assignment: Optional[dict[int, tuple[int, ...]]]
    #: item id -> refresh tree (tree and star schemes only)
    trees: dict[int, RefreshTree]
    #: (item id, parent, child) -> relays of that tree edge
    plans: dict[tuple[int, int, int], RelayPlan]

    @property
    def requesters(self) -> tuple[int, ...]:
        """Node ids that are neither sources nor caching nodes, ascending:
        the ordinary users that issue queries."""
        excluded = set(self.sources) | set(self.caching_nodes)
        return tuple(nid for nid in self.node_ids if nid not in excluded)

    def members(self, item_id: int) -> Sequence[int]:
        """The caching nodes that hold ``item_id``."""
        if self.assignment is not None and item_id in self.assignment:
            return self.assignment[item_id]
        return self.caching_nodes

    @cached_property
    def _node_array(self) -> np.ndarray:
        return np.asarray(self.node_ids, dtype=np.int64)

    def provision_edge(self, item_id: int, parent: int, child: int) -> RelayPlan:
        """Plan the relays of one edge of ``item_id``'s tree and record it.

        The item's refresh interval and freshness requirement are split
        evenly across the tree's current depth.
        """
        item = self.catalog.get(item_id)
        depth = max(1, self.trees[item_id].max_depth)
        edge = plan_edge(
            parent,
            child,
            direct_rate=self.rates.rate(parent, child),
            relay_candidates=_relay_candidates(
                self.rates, parent, child, self._node_array
            ),
            window=item.refresh_interval / depth,
            target=decompose_requirement(item.freshness_requirement, depth),
            max_relays=self.config.max_relays,
        )
        self.plans[(item_id, parent, child)] = edge
        return edge


class ReadsPlan:
    """A runtime built from a :class:`RefreshPlan`: the plan's fields
    read as the runtime's own (``runtime.caching_nodes`` is
    ``runtime.plan.caching_nodes``)."""

    plan: RefreshPlan

    config = property(attrgetter("plan.config"))
    catalog = property(attrgetter("plan.catalog"))
    node_ids = property(attrgetter("plan.node_ids"))
    rates = property(attrgetter("plan.rates"))
    sources = property(attrgetter("plan.sources"))
    caching_nodes = property(attrgetter("plan.caching_nodes"))
    assignment = property(attrgetter("plan.assignment"))
    trees = property(attrgetter("plan.trees"))
    plans = property(attrgetter("plan.plans"))


def plan_refresh(
    config: SchemeConfig,
    catalog: DataCatalog,
    node_ids: Sequence[int],
    rates: RateTable,
    rng: np.random.Generator,
    *,
    num_caching_nodes: int = 12,
    caching_nodes: Optional[Sequence[int]] = None,
    ncl_metric: str = "contact",
    placement: Optional[PlacementPolicy] = None,
) -> RefreshPlan:
    """Plan ``config`` for ``catalog`` over the population ``node_ids``.

    ``caching_nodes`` fixes the caching set; otherwise ``placement``'s
    ``select_nodes`` hook may choose it, and NCL selection picks the
    top ``num_caching_nodes`` by ``ncl_metric`` centrality, sources
    excluded.  ``placement``'s ``assign`` hook may then restrict which
    caching nodes hold which item.

    ``rng`` is drawn from by random NCL selection and random trees, in
    that order; the run continues from the state it is left in.
    """
    node_ids = tuple(node_ids)
    sources = sorted({item.source for item in catalog})
    unknown_sources = [s for s in sources if s not in node_ids]
    if unknown_sources:
        raise ValueError(f"catalog sources {unknown_sources} are not in the trace")

    if caching_nodes is None and placement is not None:
        caching_nodes = placement.select_nodes(
            rates, num_caching_nodes, exclude=set(sources)
        )
    if caching_nodes is None:
        caching_nodes = select_caching_nodes(
            rates,
            num_caching_nodes,
            metric=ncl_metric,
            exclude=set(sources),
            rng=rng if ncl_metric == "random" else None,
        )
    caching_nodes = sorted(int(n) for n in caching_nodes)
    overlap = set(caching_nodes) & set(sources)
    if overlap:
        raise ValueError(f"nodes {sorted(overlap)} are both sources and caching nodes")

    assignment = None
    if placement is not None:
        assignment = placement.assign(catalog, caching_nodes, rates)
    if assignment is not None:
        stray = {
            nid for members in assignment.values() for nid in members
        } - set(caching_nodes)
        if stray:
            raise ValueError(f"placement assigned non-caching nodes {sorted(stray)}")

    plan = RefreshPlan(
        config=config,
        catalog=catalog,
        node_ids=node_ids,
        rates=rates,
        sources=sources,
        caching_nodes=caching_nodes,
        assignment=assignment,
        trees={},
        plans={},
    )
    if config.structure in ("tree", "star"):
        for item in catalog:
            members = plan.members(item.item_id)
            if config.structure == "star":
                tree = star_tree(item.source, members)
            elif config.assignment == "random":
                tree = random_tree(
                    item.source, members, rng,
                    fanout=config.fanout, max_depth=config.max_depth,
                )
            else:
                tree = build_tree(
                    item.source, members, rates,
                    fanout=config.fanout, max_depth=config.max_depth,
                )
            plan.trees[item.item_id] = tree
            for parent, child in tree.edges():
                plan.provision_edge(item.item_id, parent, child)
    return plan


def _relay_candidates(
    rates: RateTable,
    parent: int,
    child: int,
    all_nodes_arr: np.ndarray,
) -> list[tuple[int, float, float]]:
    """Relay triples for one edge via neighbor-set intersection.

    :func:`plan_edge` keeps only relays whose two-hop probability is
    positive, which requires a positive rate on *both* legs -- so
    intersecting the two endpoints' positive-rate neighbor lists (and
    restricting to ``all_nodes``) yields the identical plan as
    enumerating every node, in O(deg) instead of O(N) per edge.
    """
    if not len(all_nodes_arr):
        return []
    up_ids, up_rates = rates.neighbor_view(parent)
    down_ids, down_rates = rates.neighbor_view(child)
    common, iu, idn = np.intersect1d(
        up_ids, down_ids, assume_unique=True, return_indices=True
    )
    keep = (common != parent) & (common != child)
    # Restrict to ``all_nodes`` (a rate table may cover nodes outside
    # the trace).
    pos = np.searchsorted(all_nodes_arr, common).clip(0, len(all_nodes_arr) - 1)
    keep &= all_nodes_arr[pos] == common
    return list(
        zip(
            common[keep].tolist(),
            up_rates[iu[keep]].tolist(),
            down_rates[idn[keep]].tolist(),
        )
    )
