"""E12 -- refresh-delay distribution (CDF figure).

For every (item, version >= 2, caching node) delivery recorded in a
run's update log, the delay from version publication to the node's
update.  The CDF per scheme is the distributional view behind E3's
averages: flooding's curve rises fastest; HDR tracks it and crosses the
freshness window (one refresh interval, marked by the ``on_time``
column at x = R) near its provisioned requirement; source-only's tail
is long.  Deliveries that never happen are censored -- reported via the
``delivered`` fraction, so curves are comparable across schemes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.tables import format_series, format_table
from repro.experiments.config import Settings
from repro.experiments.runner import ExperimentResult, RunSpec, simulate

TITLE = "Refresh delay CDF (fraction of opportunities updated within x)"

SCHEMES = ["hdr", "flooding", "flat", "source"]
#: CDF evaluation points, as fractions of the refresh interval
GRID_FRACTIONS = [0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]


def _first_delays(runtime, horizon: float) -> tuple[list[float], int]:
    """Per-opportunity first-delivery delays and the opportunity count.

    Only *scoreable* versions count on both sides: a version published
    so late that its freshness window extends past the horizon is
    excluded from the opportunities **and** its deliveries are dropped,
    keeping the CDF a true fraction.
    """
    scoreable: set[tuple[int, int]] = set()
    opportunities = 0
    for item in runtime.catalog:
        num_versions = runtime.history.num_versions(item.item_id)
        for version in range(2, num_versions + 1):
            published = runtime.history.version_time(item.item_id, version)
            if published + item.refresh_interval <= horizon:
                scoreable.add((item.item_id, version))
                opportunities += len(runtime.caching_nodes)
    first: dict[tuple[int, int, int], float] = {}
    for update in runtime.update_log:
        if (update.item_id, update.version) not in scoreable:
            continue
        key = (update.item_id, update.version, update.node)
        delay = update.delay
        if key not in first or delay < first[key]:
            first[key] = delay
    return list(first.values()), opportunities


def run(settings: Optional[Settings] = None,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Run the experiment and return its formatted table + raw data."""
    settings = settings or Settings()
    seed = settings.seeds[0]
    interval = settings.refresh_interval

    series: dict[str, list[float]] = {}
    coverage_rows = []
    data: dict[str, dict] = {}
    for scheme in SCHEMES:
        runtime = simulate(RunSpec(settings, seed, scheme).resolved())
        delays, opportunities = _first_delays(runtime, settings.duration)
        sorted_delays = np.sort(delays) if delays else np.array([])
        cdf = []
        for fraction in GRID_FRACTIONS:
            x = fraction * interval
            within = int(np.searchsorted(sorted_delays, x, side="right"))
            cdf.append(round(within / opportunities, 4) if opportunities else float("nan"))
        series[scheme] = cdf
        delivered = len(delays) / opportunities if opportunities else float("nan")
        median = float(np.median(sorted_delays)) / 3600.0 if len(sorted_delays) else float("nan")
        coverage_rows.append(
            {
                "scheme": scheme,
                "delivered": round(delivered, 3),
                "median_delay_h": round(median, 2),
            }
        )
        data[scheme] = {"cdf": cdf, "delivered": delivered,
                        "median_delay_h": median}
    x_labels = [f"{f:g}R" for f in GRID_FRACTIONS]
    text = "\n\n".join(
        [
            format_series("delay", x_labels, series, title=TITLE, precision=3),
            format_table(coverage_rows,
                         title="delivery coverage and median delay "
                               "(over delivered updates)",
                         precision=3),
        ]
    )
    return ExperimentResult(
        exp_id="E12",
        title=TITLE,
        text=text,
        data={"grid_fractions": GRID_FRACTIONS, "series": series,
              "coverage": data},
        notes="flooding's CDF dominates; hdr tracks it; the x = 1R column "
        "is each scheme's on-time ratio.",
    )
