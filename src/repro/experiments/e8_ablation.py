"""E8 -- design ablations.

Four sub-studies isolating HDR's design choices (DESIGN.md section 4):

- **A: assignment** -- rate-aware vs random responsibility assignment at
  identical structure budgets.
- **B: hierarchy** -- tree vs flat (star) at the default caching set.
- **C: relay budget** -- sweep ``max_relays`` for HDR: achieved on-time
  refresh ratio and the analytical per-edge prediction, side by side.
  The analytical ``plan.achieved`` should upper-track the empirical
  ratio as the budget grows.
- **D: depth budget** -- sweep ``max_depth`` (depth 1 = flat).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.aggregate import summarize
from repro.analysis.tables import format_table
from repro.core.scheme import scheme_variant
from repro.experiments.config import Settings
from repro.experiments.parallel import SweepPoint, run_sweep
from repro.experiments.runner import (
    ExperimentResult,
    RunSpec,
    analytic_on_time,
    prepare,
)

TITLE = "Ablations: assignment, hierarchy, relay budget, depth budget"

RELAY_BUDGETS = [0, 1, 2, 3, 5, 8]
FAST_RELAY_BUDGETS = [0, 2, 5]
DEPTHS = [1, 2, 3, 4]
FAST_DEPTHS = [1, 2, 3]


def _comparison_rows(results, names) -> list[dict]:
    rows = []
    for name in names:
        runs = results[name]
        rows.append(
            {
                "scheme": name,
                "freshness": round(summarize([m.freshness for m in runs]).mean, 3),
                "on_time": round(summarize([m.on_time_ratio for m in runs]).mean, 3),
                "messages": round(summarize([m.messages for m in runs]).mean, 1),
            }
        )
    return rows


def run(settings: Optional[Settings] = None,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Run the experiment and return its formatted table + raw data."""
    settings = settings or Settings()
    fast = settings.profile == "small"
    budgets = FAST_RELAY_BUDGETS if fast else RELAY_BUDGETS
    depths = FAST_DEPTHS if fast else DEPTHS

    budget_variants = [
        scheme_variant("hdr", max_relays=budget, name=f"hdr-k{budget}")
        for budget in budgets
    ]
    depth_variants = [
        scheme_variant("hdr", structure="star", max_depth=1, name="hdr-d1")
        if depth == 1
        else scheme_variant("hdr", max_depth=depth, name=f"hdr-d{depth}")
        for depth in depths
    ]

    # All four sub-studies fan out as one batch of independent jobs:
    # point 0 is A (assignment), point 1 is B (hierarchy), then one
    # point per relay budget (C) and one per depth (D).
    points = [
        SweepPoint(settings=settings, schemes=("hdr", "random")),
        SweepPoint(settings=settings, schemes=("hdr", "flat")),
    ]
    points += [SweepPoint(settings=settings, schemes=(v,)) for v in budget_variants]
    points += [SweepPoint(settings=settings, schemes=(v,)) for v in depth_variants]
    swept = run_sweep(points, jobs=jobs)
    results_a, results_b = swept[0], swept[1]
    swept_c = swept[2 : 2 + len(budgets)]
    swept_d = swept[2 + len(budgets) :]

    table_a = format_table(
        _comparison_rows(results_a, ["hdr", "random"]),
        title="A. rate-aware vs random assignment",
        precision=3,
    )
    table_b = format_table(
        _comparison_rows(results_b, ["hdr", "flat"]),
        title="B. hierarchy (tree) vs flat (star)",
        precision=3,
    )

    # C: relay budget sweep, empirical vs analytical.
    rows_c = []
    data_c = {}
    for budget, variant, results in zip(budgets, budget_variants, swept_c):
        runs = results[variant.name]
        # Analytical prediction from one representative build (not run).
        with prepare(RunSpec(settings, settings.seeds[0], variant)) as runtime:
            predicted = analytic_on_time(runtime)
        empirical = summarize([m.on_time_ratio for m in runs]).mean
        rows_c.append(
            {
                "max_relays": budget,
                "on_time_empirical": round(empirical, 3),
                "end_to_end_analytical": round(predicted, 3),
                "messages": round(summarize([m.messages for m in runs]).mean, 1),
            }
        )
        data_c[budget] = {"empirical": empirical, "analytical": predicted}
    table_c = format_table(rows_c, title="C. relay budget sweep (hdr)", precision=3)

    # D: depth budget sweep.
    rows_d = []
    for depth, variant, results in zip(depths, depth_variants, swept_d):
        runs = results[variant.name]
        rows_d.append(
            {
                "max_depth": depth,
                "freshness": round(summarize([m.freshness for m in runs]).mean, 3),
                "on_time": round(summarize([m.on_time_ratio for m in runs]).mean, 3),
                "messages": round(summarize([m.messages for m in runs]).mean, 1),
            }
        )
    table_d = format_table(rows_d, title="D. depth budget sweep (hdr)", precision=3)

    text = "\n\n".join([table_a, table_b, table_c, table_d])
    return ExperimentResult(
        exp_id="E8",
        title=TITLE,
        text=text,
        data={
            "assignment": _comparison_rows(results_a, ["hdr", "random"]),
            "hierarchy": _comparison_rows(results_b, ["hdr", "flat"]),
            "relay_budget": data_c,
            "depth": rows_d,
        },
        notes="rate-aware > random; on-time ratio rises with relay budget.",
    )
