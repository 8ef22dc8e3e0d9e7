"""E5 -- data access validity vs freshness requirement.

Sweeps the per-item freshness requirement p_req.  Three columns to
compare per requirement level:

1. **requested** -- the p_req handed to the provisioning analysis;
2. **planned** -- the analytical end-to-end delivery probability of the
   relay plans actually built (the analysis stops adding relays once the
   target is met, and caps at the relay budget when it is unreachable);
3. **achieved** -- the empirical on-time refresh ratio of the run.

HDR's achieved curve should track the planned curve, which rises with
(and is clipped against) the requested one -- that is the paper's
"analytically ensure that the freshness requirements are satisfied"
claim, within the budget.  Source-only has no provisioning knob, so its
curve is flat.  A second table shows the query-level effect: the
fraction of answered queries served fresh data.

HDR runs with an enlarged relay budget here (``max_relays=16``) so the
provisioning has headroom to respond to the requirement instead of
saturating at the default budget.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.aggregate import summarize
from repro.analysis.tables import format_series
from repro.core.scheme import scheme_variant
from repro.experiments.config import Settings
from repro.experiments.parallel import SweepPoint, run_sweep
from repro.experiments.runner import (
    ExperimentResult,
    RunSpec,
    analytic_on_time,
    prepare,
)

TITLE = "Achieved refresh ratio and access validity vs freshness requirement"

REQUIREMENTS = [0.5, 0.7, 0.8, 0.9, 0.95]
FAST_REQUIREMENTS = [0.5, 0.8, 0.95]
HDR_HEADROOM_RELAYS = 16


def run(settings: Optional[Settings] = None,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Run the experiment and return its formatted table + raw data."""
    settings = settings or Settings()
    requirements = FAST_REQUIREMENTS if settings.profile == "small" else REQUIREMENTS
    hdr = scheme_variant("hdr", max_relays=HDR_HEADROOM_RELAYS, name="hdr")
    schemes = {"hdr": hdr, "source": "source", "flooding": "flooding"}

    on_time: dict[str, list[float]] = {name: [] for name in schemes}
    planned: list[float] = []
    query_fresh: dict[str, list[float]] = {name: [] for name in schemes}
    points = [
        SweepPoint(
            settings=settings.with_(freshness_requirement=p_req),
            schemes=tuple(schemes.values()),
            with_queries=True,
        )
        for p_req in requirements
    ]
    for p_req, results in zip(requirements, run_sweep(points, jobs=jobs)):
        sweep_settings = settings.with_(freshness_requirement=p_req)
        for name in schemes:
            on_time[name].append(
                round(summarize([m.on_time_ratio for m in results[name]]).mean, 4)
            )
            query_fresh[name].append(
                round(summarize([m.query_fresh_ratio for m in results[name]]).mean, 4)
            )
        # Analytical plan quality from one representative build (not run).
        with prepare(RunSpec(sweep_settings, sweep_settings.seeds[0], hdr)) as runtime:
            planned.append(round(analytic_on_time(runtime), 4))

    on_time_series = {
        "requested": list(requirements),
        "hdr.planned": planned,
        "hdr.achieved": on_time["hdr"],
        "source.achieved": on_time["source"],
        "flooding.achieved": on_time["flooding"],
    }
    text = "\n\n".join(
        [
            format_series("p_req", requirements, on_time_series,
                          title=f"{TITLE} -- on-time refresh ratio", precision=3),
            format_series(
                "p_req",
                requirements,
                {f"{name}.query_fresh": values for name, values in query_fresh.items()},
                title="fraction of answered queries served fresh data",
                precision=3,
            ),
        ]
    )
    return ExperimentResult(
        exp_id="E5",
        title=TITLE,
        text=text,
        data={
            "requirements": requirements,
            "on_time": on_time,
            "planned": planned,
            "query_fresh": query_fresh,
        },
        notes="hdr planned/achieved rise with the requested p_req; source is flat.",
    )
