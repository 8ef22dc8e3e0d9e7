"""E14 -- caching-node selection metric ablation (substrate claim).

The cooperative-caching substrate places data at "network central
locations" ranked by the expected number of distinct nodes met within a
window.  This ablation swaps that metric for alternatives -- total
contact rate (degree), delay-weighted betweenness, and uniform random
selection -- and measures the effect on HDR's freshness and on the
query plane.

Expected shape: contact ~ degree > betweenness > random.  The contact
metric's saturation per neighbour matters little when rates are
moderate, so degree is close; random selection loses because poorly
connected caching nodes are both hard to refresh *and* hard to query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.aggregate import summarize
from repro.analysis.tables import format_table
from repro.experiments.artifacts import seed_artifacts
from repro.experiments.config import Settings
from repro.experiments.parallel import Job, run_tasks
from repro.experiments.runner import ExperimentResult, RunSpec, score

TITLE = "Caching-node selection metric ablation (hdr)"

METRICS = ["contact", "degree", "betweenness", "random"]


@dataclass(frozen=True)
class _MetricJob(Job):
    """One (seed, ncl-metric) HDR run with queries, picklable."""

    metric: str


def _metric_job(job: _MetricJob) -> tuple[float, float, float]:
    """Worker: one metric-ablation run, returns (freshness, answered,
    fresh-answer ratio)."""
    with job.prepare(ncl_metric=job.metric) as runtime:
        runtime.run(until=job.run.settings.duration)
    metrics = score(runtime, job.run)
    return (metrics.freshness, metrics.query_answer_ratio,
            metrics.query_fresh_ratio)


def run(settings: Optional[Settings] = None,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Run the experiment and return its formatted table + raw data."""
    settings = settings or Settings()
    rows = []
    data: dict[str, dict] = {}
    collected: dict[str, dict[str, list[float]]] = {
        name: {"freshness": [], "answered": [], "fresh_answers": []}
        for name in METRICS
    }
    specs = [
        _MetricJob(
            point=point,
            run=RunSpec(settings, seed, "hdr", with_queries=True).resolved(point),
            artifacts=seed_artifacts(settings, seed),
            metric=metric,
        )
        for seed in settings.seeds
        for point, metric in enumerate(METRICS)
    ]
    for spec, outcome in zip(specs, run_tasks(_metric_job, specs, jobs=jobs)):
        collected[spec.metric]["freshness"].append(outcome[0])
        collected[spec.metric]["answered"].append(outcome[1])
        collected[spec.metric]["fresh_answers"].append(outcome[2])
    for metric in METRICS:
        bucket = collected[metric]
        row = {
            "metric": metric,
            "freshness": round(summarize(bucket["freshness"]).mean, 3),
            "answered": round(summarize(bucket["answered"]).mean, 3),
            "fresh_answers": round(summarize(bucket["fresh_answers"]).mean, 3),
        }
        rows.append(row)
        data[metric] = row
    text = format_table(rows, title=TITLE, precision=3)
    return ExperimentResult(
        exp_id="E14",
        title=TITLE,
        text=text,
        data=data,
        notes="centrality-driven selection (contact/degree) should beat "
        "random; the query plane feels it most.",
    )
