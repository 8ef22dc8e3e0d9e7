"""E13 -- refreshing vs invalidation (consistency-model comparison).

The classic alternative to keeping caches fresh is keeping them
*honest*: gossip tiny invalidation notices so stale copies are dropped
the moment their successor version is announced, and re-fetch data only
from the source.  This experiment pits HDR against that model (and the
source-only floor) on the axes where they genuinely differ:

- **slot freshness / validity** -- invalidation empties caches, so both
  collapse toward source-only levels;
- **query outcomes** -- invalidation's *answered* ratio drops (fewer
  copies to answer from) but the answers it does give are almost never
  stale; HDR answers far more queries and keeps most of them fresh;
- **overhead** -- invalidation is cheap in bytes (64 B notices) but not
  in message count (they flood everywhere).

The paper argues for refreshing over invalidation in this setting
because data *access* is the goal -- an honest empty cache serves
nobody; this experiment is that argument, quantified.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.aggregate import summarize
from repro.analysis.tables import format_table
from repro.experiments.artifacts import seed_artifacts
from repro.experiments.config import Settings
from repro.experiments.parallel import Job, run_tasks
from repro.experiments.runner import ExperimentResult, RunSpec, score

TITLE = "Refreshing (hdr) vs invalidation vs source-only"

SCHEMES = ["hdr", "invalidate", "source"]


def _consistency_job(job: Job) -> dict[str, float]:
    """Worker: one run, returns every metric column of the E13 table."""
    with job.prepare(record_transfers=True) as runtime:
        runtime.run(until=job.run.settings.duration)
    metrics = score(runtime, job.run)
    return {
        "freshness": metrics.freshness,
        "validity": metrics.validity,
        "answered": metrics.query_answer_ratio,
        "fresh_answers": metrics.query_fresh_ratio,
        "valid_answers": metrics.query_valid_ratio,
        "messages": metrics.messages,
        "bytes": runtime.refresh_bytes(),
    }


def run(settings: Optional[Settings] = None,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Run the experiment and return its formatted table + raw data."""
    settings = settings or Settings()
    rows = []
    data: dict[str, dict] = {}
    collected: dict[str, dict[str, list[float]]] = {
        name: {"freshness": [], "validity": [], "answered": [],
               "fresh_answers": [], "valid_answers": [], "messages": [],
               "bytes": []}
        for name in SCHEMES
    }
    specs = [
        Job(
            point=0,
            run=RunSpec(settings, seed, name, with_queries=True).resolved(),
            artifacts=seed_artifacts(settings, seed),
        )
        for seed in settings.seeds
        for name in SCHEMES
    ]
    for spec, outcome in zip(specs, run_tasks(_consistency_job, specs, jobs=jobs)):
        bucket = collected[spec.run.scheme]
        for key, value in outcome.items():
            bucket[key].append(value)
    for name in SCHEMES:
        bucket = collected[name]
        row = {
            "scheme": name,
            "slot_fresh": round(summarize(bucket["freshness"]).mean, 3),
            "answered": round(summarize(bucket["answered"]).mean, 3),
            "fresh_answers": round(summarize(bucket["fresh_answers"]).mean, 3),
            "valid_answers": round(summarize(bucket["valid_answers"]).mean, 3),
            "messages": round(summarize(bucket["messages"]).mean, 0),
            "kilobytes": round(summarize(bucket["bytes"]).mean / 1024.0, 0),
        }
        rows.append(row)
        data[name] = row
    text = format_table(rows, title=TITLE, precision=3)
    return ExperimentResult(
        exp_id="E13",
        title=TITLE,
        text=text,
        data=data,
        notes="invalidation serves (almost) no stale data but answers far "
        "fewer queries; hdr keeps both access and freshness high.",
    )
