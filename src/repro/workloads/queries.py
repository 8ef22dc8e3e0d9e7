"""Query arrival scheduling.

Each requesting node issues queries as an independent Poisson process;
the queried item is drawn from a popularity distribution.  Arrivals are
pre-scheduled on the simulator's event heap before the run starts, so a
fixed seed yields an identical workload across schemes -- the paper-style
apples-to-apples comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.workloads.popularity import ZipfPopularity

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheme import SchemeRuntime


def schedule_queries(
    runtime: "SchemeRuntime",
    rate_per_node: float,
    duration: float,
    rng: np.random.Generator,
    requesters: Optional[Sequence[int]] = None,
    popularity: Optional[ZipfPopularity] = None,
    start: float = 0.0,
) -> int:
    """Schedule Poisson query arrivals onto ``runtime``'s simulator.

    ``rate_per_node`` is queries per requester per second over
    ``[start, start + duration]``.  ``requesters`` defaults to the plan's
    (:attr:`~repro.core.plan.RefreshPlan.requesters`: every node that is
    neither a source nor a caching node, the ordinary users).  Returns
    the number of queries scheduled.

    The runtime must have been built with ``with_queries=True``.
    """
    if not runtime.query_managers:
        raise ValueError("runtime was built without the query plane")
    if rate_per_node < 0:
        raise ValueError("rate_per_node must be non-negative")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if requesters is None:
        requesters = runtime.plan.requesters
    if popularity is None:
        popularity = ZipfPopularity(runtime.catalog.item_ids, s=0.8)

    scheduled = 0
    for requester in requesters:
        manager = runtime.query_managers[requester]
        count = rng.poisson(rate_per_node * duration)
        if count == 0:
            continue
        times = np.sort(rng.random(count)) * duration + start
        items = popularity.sample_array(count, rng)
        for time, item_id in zip(times.tolist(), items.tolist()):
            runtime.sim.schedule_at(time, manager.issue_query, item_id)
            scheduled += 1
    return scheduled
