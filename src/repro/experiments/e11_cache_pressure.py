"""E11 -- cache pressure (extension): bounded stores under refresh + queries.

The paper's model gives caching nodes room for their assigned items;
real devices have bounded storage.  This extension sweeps the per-node
store capacity below the catalog size and measures what breaks first:

- **slot freshness** is structurally capped at ``capacity / num_items``
  (a node cannot be fresh on an item it cannot hold);
- **query outcomes** degrade far more slowly -- and the *fresh-answer*
  ratio can even rise: an evicted item re-enters the cache with the
  current version at its next refresh, while an unbounded store keeps
  serving whatever stale copy it retained.

Swept for HDR with LRU against FIFO eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.aggregate import summarize
from repro.analysis.tables import format_table
from repro.caching.store import EvictionPolicy
from repro.experiments.artifacts import seed_artifacts
from repro.experiments.config import Settings
from repro.experiments.parallel import Job, run_tasks
from repro.experiments.runner import ExperimentResult, RunSpec, score

TITLE = "Cache pressure: bounded stores under refresh and Zipf queries"


@dataclass(frozen=True)
class _PressureJob(Job):
    """One (policy, capacity, seed) bounded-store run, picklable."""

    policy: EvictionPolicy
    capacity: int


def _pressure_job(job: _PressureJob) -> tuple[float, float, float]:
    """Worker: one bounded-store run, returns (freshness, answered,
    fresh-answer ratio)."""
    with job.prepare(store_capacity=job.capacity,
                     eviction_policy=job.policy) as runtime:
        runtime.run(until=job.run.settings.duration)
    metrics = score(runtime, job.run)
    return (metrics.freshness, metrics.query_answer_ratio,
            metrics.query_fresh_ratio)


def run(settings: Optional[Settings] = None,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Run the experiment and return its formatted table + raw data."""
    settings = settings or Settings()
    capacities = [settings.num_items, max(2, settings.num_items // 2), 2]
    capacities = sorted(set(capacities), reverse=True)
    configs = [
        (policy, capacity)
        for policy in (EvictionPolicy.LRU, EvictionPolicy.FIFO)
        for capacity in capacities
    ]
    specs = [
        _PressureJob(
            point=point,
            run=RunSpec(settings, seed, "hdr", with_queries=True).resolved(point),
            artifacts=seed_artifacts(settings, seed),
            policy=policy,
            capacity=capacity,
        )
        for point, (policy, capacity) in enumerate(configs)
        for seed in settings.seeds
    ]
    by_key: dict[tuple[EvictionPolicy, int], list[tuple[float, float, float]]] = {}
    for spec, outcome in zip(specs, run_tasks(_pressure_job, specs, jobs=jobs)):
        by_key.setdefault((spec.policy, spec.capacity), []).append(outcome)

    rows = []
    data: dict[str, dict] = {}
    for policy in (EvictionPolicy.LRU, EvictionPolicy.FIFO):
        for capacity in capacities:
            bucket = by_key[(policy, capacity)]
            freshness_values = [f for f, _, _ in bucket]
            answered_values = [a for _, a, _ in bucket]
            fresh_answer_values = [r for _, _, r in bucket]
            row = {
                "policy": policy.value,
                "capacity": capacity,
                "slot_freshness": round(summarize(freshness_values).mean, 3),
                "cap_bound": round(capacity / settings.num_items, 3),
                "answered": round(summarize(answered_values).mean, 3),
                "fresh_answers": round(summarize(fresh_answer_values).mean, 3),
            }
            rows.append(row)
            data[f"{policy.value}@{capacity}"] = row
    text = format_table(rows, title=TITLE, precision=3)
    return ExperimentResult(
        exp_id="E11",
        title=TITLE,
        text=text,
        data={"rows": rows, "by_config": data,
              "num_items": settings.num_items},
        notes="slot freshness is capped by capacity/num_items; the "
        "answered and fresh-answer ratios degrade far more slowly "
        "(re-insertion brings current versions back).",
    )
