"""The paper's contribution: hierarchical distributed cache refreshment.

Cached data in an opportunistic network is refreshed periodically at its
source and goes stale (and eventually expires) at the caching nodes.
The scheme reproduced here -- *HDR*, hierarchical distributed
refreshment -- keeps cached copies fresh with two ideas:

1. **Refresh hierarchy** (:mod:`repro.core.hierarchy`): the caching
   nodes of each item form a tree rooted at the item's source, and each
   node is responsible for refreshing only its own children.  Children
   are assigned to the reachable parent with the highest contact rate,
   under fanout and depth budgets.
2. **Probabilistic replication** (:mod:`repro.core.replication`): a
   refresh message relayed over random contacts may miss its window, so
   each tree edge is provisioned with enough two-hop relays that the
   probability of on-time delivery meets the item's freshness
   requirement, computed in closed form from pairwise contact rates.

:mod:`repro.core.plan` makes both decisions once per run:
:func:`~repro.core.plan.plan_refresh` selects the caching nodes, builds
each item's tree and provisions every edge into a
:class:`~repro.core.plan.RefreshPlan`.  Both executors run that plan,
the analytical model predicts from it, and
:mod:`repro.core.maintenance` repairs it under churn.
:mod:`repro.core.refresh` implements the runtime protocol handlers and
:mod:`repro.core.scheme` wires a full simulation (sources, stores,
handlers, metrics probes) around the plan for HDR and every baseline.
"""

from repro.core.replication import (
    RelayPlan,
    contact_probability,
    decompose_requirement,
    expected_fresh_fraction,
    plan_edge,
    required_direct_rate,
    two_hop_probability,
)
from repro.core.hierarchy import RefreshTree, build_tree, random_tree, star_tree
from repro.core.plan import RefreshPlan, plan_refresh
from repro.core.maintenance import (
    ChurnProcess,
    HierarchyManager,
    managers_for_runtime,
)
from repro.core.refresh import (
    FloodingRefreshHandler,
    HdrRefreshHandler,
    InvalidationRefreshHandler,
    RefreshUpdate,
    SourceHandler,
)
from repro.core.scheme import (
    SCHEMES,
    SchemeConfig,
    SchemeRuntime,
    build_simulation,
    scheme_variant,
)

__all__ = [
    "ChurnProcess",
    "FloodingRefreshHandler",
    "HierarchyManager",
    "InvalidationRefreshHandler",
    "managers_for_runtime",
    "HdrRefreshHandler",
    "RefreshPlan",
    "RefreshTree",
    "RefreshUpdate",
    "RelayPlan",
    "SCHEMES",
    "SchemeConfig",
    "SchemeRuntime",
    "SourceHandler",
    "build_simulation",
    "build_tree",
    "contact_probability",
    "decompose_requirement",
    "expected_fresh_fraction",
    "plan_edge",
    "plan_refresh",
    "random_tree",
    "required_direct_rate",
    "scheme_variant",
    "star_tree",
    "two_hop_probability",
]
