"""Time-varying query workloads: diurnal cycles and flash crowds.

:func:`repro.workloads.queries.schedule_queries` drives a homogeneous
Poisson process -- fine for steady state, but real query load is not
flat.  This module adds two inhomogeneous arrival shapes, both
pre-scheduled onto the event heap so a fixed seed still yields an
identical workload across schemes:

- :class:`DiurnalCycle` modulates the per-node query rate with a 24-hour
  activity profile (people query during the day, not at 4am), using the
  standard thinning construction for inhomogeneous Poisson processes.
- :class:`FlashCrowd` layers a burst window on top: inside
  ``[start, start + length]`` the rate is multiplied by ``boost`` and
  popularity mass shifts toward the ``focus`` hottest items -- the
  breaking-news pattern that stresses freshness maintenance hardest,
  because demand spikes exactly when versions are churning.

Both are plain frozen dataclasses, picklable for sweep job specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.popularity import ZipfPopularity

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheme import SchemeRuntime

DAY = 86400.0
HOUR = 3600.0

# Fraction of the daily mean rate per hour-of-day; mirrors the mobility
# layer's DEFAULT_ACTIVITY shape (quiet nights, office-hours plateau).
DEFAULT_QUERY_ACTIVITY: Tuple[float, ...] = (
    0.2, 0.15, 0.1, 0.1, 0.1, 0.2,
    0.4, 0.8, 1.2, 1.5, 1.6, 1.6,
    1.5, 1.5, 1.6, 1.6, 1.5, 1.4,
    1.3, 1.2, 1.0, 0.8, 0.5, 0.3,
)


@dataclass(frozen=True)
class DiurnalCycle:
    """24-hour activity modulation of the query rate.

    ``activity`` holds one multiplier per hour of day, applied to the
    nominal ``rate_per_node``; values need not average to 1 (a profile
    averaging 1.2 simply means 20% more queries than the flat process).

    >>> DiurnalCycle().rate_multiplier(9.5 * HOUR)
    1.5
    >>> DiurnalCycle().rate_multiplier(25 * HOUR)  # wraps past midnight
    0.15
    """

    activity: Tuple[float, ...] = DEFAULT_QUERY_ACTIVITY

    def __post_init__(self) -> None:
        if len(self.activity) != 24:
            raise ValueError("activity must have 24 hourly multipliers")
        if any(a < 0 for a in self.activity):
            raise ValueError("activity multipliers must be non-negative")
        if max(self.activity) == 0:
            raise ValueError("activity must have at least one positive hour")

    def rate_multiplier(self, time: float) -> float:
        """The activity multiplier in effect at absolute ``time``."""
        hour = int((time % DAY) // HOUR)
        return self.activity[hour]

    def peak(self) -> float:
        """Largest hourly multiplier (the thinning envelope)."""
        return max(self.activity)


@dataclass(frozen=True)
class FlashCrowd:
    """A transient demand spike concentrated on popular items.

    During ``[start, start + length]`` the instantaneous query rate is
    multiplied by ``boost`` and, with probability ``focus_weight``, the
    queried item is redrawn uniformly from the ``focus`` most popular
    catalog items instead of the baseline distribution.

    >>> fc = FlashCrowd(start=6 * HOUR, length=2 * HOUR, boost=5.0)
    >>> fc.active_at(7 * HOUR), fc.active_at(9 * HOUR)
    (True, False)
    """

    start: float
    length: float
    boost: float = 4.0
    focus: int = 2
    focus_weight: float = 0.7

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.boost < 1:
            raise ValueError("boost must be >= 1")
        if self.focus < 1:
            raise ValueError("focus must be >= 1")
        if not 0 <= self.focus_weight <= 1:
            raise ValueError("focus_weight must be in [0, 1]")

    def active_at(self, time: float) -> bool:
        """Whether ``time`` falls inside the burst window."""
        return self.start <= time < self.start + self.length


@dataclass(frozen=True)
class QueryCycle:
    """Composition of an optional diurnal profile and flash crowds.

    This is the value the scenario registry builds from a
    ``[workload.cycle]`` table.  Either part may be absent; with both
    absent the process degenerates to the flat one (but is scheduled via
    thinning, so arrival times differ from
    :func:`~repro.workloads.queries.schedule_queries` even then).
    """

    diurnal: Optional[DiurnalCycle] = None
    crowds: Tuple[FlashCrowd, ...] = ()

    def rate_multiplier(self, time: float) -> float:
        """Combined multiplier: diurnal level times any active burst."""
        mult = self.diurnal.rate_multiplier(time) if self.diurnal else 1.0
        for crowd in self.crowds:
            if crowd.active_at(time):
                mult *= crowd.boost
        return mult

    def peak(self) -> float:
        """Upper bound on :meth:`rate_multiplier` over all times."""
        mult = self.diurnal.peak() if self.diurnal else 1.0
        for crowd in self.crowds:
            mult *= crowd.boost
        return mult

    def crowd_at(self, time: float) -> Optional[FlashCrowd]:
        """The first flash crowd active at ``time``, if any."""
        for crowd in self.crowds:
            if crowd.active_at(time):
                return crowd
        return None


def schedule_cycle_queries(
    runtime: "SchemeRuntime",
    rate_per_node: float,
    duration: float,
    rng: np.random.Generator,
    cycle: QueryCycle,
    requesters: Optional[Sequence[int]] = None,
    popularity: Optional[ZipfPopularity] = None,
    start: float = 0.0,
) -> int:
    """Schedule inhomogeneous Poisson query arrivals via thinning.

    Per requester, candidate arrivals are drawn from a homogeneous
    process at the envelope rate ``rate_per_node * cycle.peak()`` and
    each is kept with probability ``multiplier(t) / peak`` -- the
    classic Lewis-Shedler construction, which keeps the RNG consumption
    a deterministic function of the seed and the requester order.

    Items are drawn from ``popularity`` except inside a flash-crowd
    window, where with probability ``focus_weight`` the item is instead
    uniform over the ``focus`` most popular items.  ``requesters``
    defaults to the plan's, as in
    :func:`~repro.workloads.queries.schedule_queries`.  Returns the
    number of queries scheduled.
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
    peak = cycle.peak()
    # ZipfPopularity ranks item_ids[0] most popular; a flash crowd
    # focuses on that same head of the catalog.
    head = list(popularity.item_ids[: max(c.focus for c in cycle.crowds)]) if cycle.crowds else []

    scheduled = 0
    for requester in requesters:
        manager = runtime.query_managers[requester]
        count = rng.poisson(rate_per_node * peak * duration)
        if count == 0:
            continue
        times = np.sort(rng.random(count)) * duration + start
        keep_draws = rng.random(count)
        items = popularity.sample_array(count, rng)
        focus_draws = rng.random(count)
        focus_picks = rng.integers(0, max(len(head), 1), size=count)
        for k in range(count):
            time = float(times[k])
            if keep_draws[k] * peak >= cycle.rate_multiplier(time):
                continue
            item_id = int(items[k])
            crowd = cycle.crowd_at(time)
            if crowd is not None and focus_draws[k] < crowd.focus_weight:
                item_id = head[int(focus_picks[k]) % crowd.focus]
            runtime.sim.schedule_at(time, manager.issue_query, item_id)
            scheduled += 1
    return scheduled
