"""E3 -- cache freshness ratio over time, all schemes.

The headline comparison: on one trace realisation, the fraction of
(caching node, item) slots holding the current version, sampled through
the run, one series per scheme.  Expected shape: flooding on top, HDR
close behind at a fraction of the overhead, then flat replication,
random assignment, source-only, and the no-refresh floor decaying to
zero.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.tables import format_series
from repro.baselines import COMPARISON_ORDER
from repro.experiments.config import Settings
from repro.experiments.runner import ExperimentResult, RunSpec, simulate

TITLE = "Cache freshness ratio vs time (one realisation, all schemes)"

NUM_POINTS = 12


def run(settings: Optional[Settings] = None,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Run the experiment and return its formatted table + raw data."""
    settings = settings or Settings()
    seed = settings.seeds[0]
    horizon = settings.duration

    raw_series: dict[str, tuple[list[float], list[float]]] = {}
    for scheme in COMPARISON_ORDER:
        runtime = simulate(RunSpec(settings, seed, scheme).resolved())
        series = runtime.stats.series("probe.freshness")
        raw_series[scheme] = (list(series.times), list(series.values))

    # Downsample by averaging the probe samples inside each grid bin --
    # the instantaneous ratio is a sawtooth (it drops to zero the moment
    # a new version is published), so bin averages are what the paper's
    # time-series figure shows.
    edges = np.linspace(0.0, horizon, NUM_POINTS + 1)
    table_series: dict[str, list[float]] = {}
    for scheme, (times, values) in raw_series.items():
        t_arr = np.asarray(times)
        v_arr = np.asarray(values)
        sampled = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (t_arr > lo) & (t_arr <= hi)
            sampled.append(float(v_arr[mask].mean()) if mask.any() else float("nan"))
        table_series[scheme] = sampled
    hours = [round(t / 3600.0, 1) for t in edges[1:]]
    text = format_series("hour", hours, table_series, title=TITLE, precision=3)
    return ExperimentResult(
        exp_id="E3",
        title=TITLE,
        text=text,
        data={"grid_hours": hours, "series": table_series, "raw": raw_series},
        notes="Expected ordering: flooding >= hdr > flat > random > source > none.",
    )
