"""E10 -- sensitivity to contact-rate estimation quality (extension).

The scheme is *distributed*: in deployment each node estimates contact
rates from its own history, so the hierarchy and the relay plans are
built from imperfect knowledge.  This ablation rebuilds HDR from four
knowledge levels, holding the caching-node set fixed so only assignment
and provisioning quality vary:

- **oracle**   -- whole-trace MLE rates (what the other experiments use);
- **warmup**   -- MLE over only the first quarter of the trace;
- **ewma**     -- recency-weighted estimates over the same warmup prefix;
- **uniform**  -- no knowledge at all: every observed pair gets the same
  rate (assignment degenerates to arbitrary, plans to arbitrary relays).

Expected shape: warmup/ewma sit close to the oracle (rate *rankings*
converge quickly, and only rankings matter to the greedy builder);
uniform pays a visible penalty, bounding the value of estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.aggregate import summarize
from repro.analysis.tables import format_table
from repro.caching.ncl import select_caching_nodes
from repro.contacts.rates import RateTable, ewma_rates, mle_rates
from repro.experiments.artifacts import seed_artifacts
from repro.experiments.config import Settings
from repro.experiments.parallel import Job, run_tasks
from repro.experiments.runner import ExperimentResult, RunSpec, score

TITLE = "HDR vs quality of the distributed rate estimates"

ESTIMATORS = ["oracle", "warmup", "ewma", "uniform"]
WARMUP_FRACTION = 0.25


def _estimate(name: str, trace, oracle: Optional[RateTable] = None) -> RateTable:
    if name == "oracle":
        return oracle if oracle is not None else mle_rates(trace)
    cutoff = trace.start_time + WARMUP_FRACTION * trace.duration
    prefix = trace.window(trace.start_time, cutoff)
    if name == "warmup":
        return mle_rates(prefix)
    if name == "ewma":
        return ewma_rates(prefix, alpha=0.3, t1=cutoff)
    if name == "uniform":
        observed = mle_rates(prefix)
        positive = [rate for _, rate in observed.pairs() if rate > 0]
        level = sum(positive) / len(positive) if positive else 1.0
        flat = RateTable()
        for (a, b), rate in observed.pairs():
            if rate > 0:
                flat.set(a, b, level)
        return flat
    raise ValueError(f"unknown estimator {name!r}")


@dataclass(frozen=True)
class _EstimatorJob(Job):
    """One (seed, estimator) HDR build-and-run, picklable."""

    estimator: str


def _estimator_job(job: _EstimatorJob) -> tuple[float, float]:
    """Worker: run one estimator variant, return (freshness, on_time)."""
    settings = job.run.settings
    oracle = job.artifacts.rates
    # Fix the caching set across estimators (selected from the oracle)
    # so only hierarchy/provisioning quality varies.
    caching_nodes = select_caching_nodes(
        oracle,
        settings.num_caching_nodes,
        exclude=set(job.artifacts.sources(settings.num_sources)),
    )
    rates = _estimate(job.estimator, job.artifacts.trace, oracle=oracle)
    with job.prepare(caching_nodes=caching_nodes, rates=rates) as runtime:
        runtime.run(until=settings.duration)
    metrics = score(runtime, job.run)
    return metrics.freshness, metrics.on_time_ratio


def run(settings: Optional[Settings] = None,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Run the experiment and return its formatted table + raw data."""
    settings = settings or Settings()
    rows = []
    data: dict[str, dict[str, float]] = {}
    results: dict[str, list] = {name: [] for name in ESTIMATORS}
    specs = [
        _EstimatorJob(
            point=point,
            run=RunSpec(settings, seed, "hdr").resolved(point),
            artifacts=seed_artifacts(settings, seed),
            estimator=name,
        )
        for seed in settings.seeds
        for point, name in enumerate(ESTIMATORS)
    ]
    for spec, outcome in zip(specs, run_tasks(_estimator_job, specs, jobs=jobs)):
        results[spec.estimator].append(outcome)
    for name in ESTIMATORS:
        freshness = summarize([f for f, _ in results[name]])
        on_time = summarize([o for _, o in results[name]])
        rows.append(
            {
                "estimator": name,
                "freshness": round(freshness.mean, 3),
                "on_time": round(on_time.mean, 3),
            }
        )
        data[name] = {"freshness": freshness.mean, "on_time": on_time.mean}
    text = format_table(rows, title=TITLE, precision=3)
    return ExperimentResult(
        exp_id="E10",
        title=TITLE,
        text=text,
        data=data,
        notes="warmup/ewma should track the oracle; uniform pays a penalty.",
    )
