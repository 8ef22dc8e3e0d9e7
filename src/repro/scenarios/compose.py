"""Compose validated scenario documents into runnable sweep points.

This is the bridge from the declarative layer to the execution
machinery: each expanded :class:`~repro.scenarios.grid.GridPoint`
document becomes one :class:`~repro.experiments.parallel.SweepPoint`,
which the existing ``build_jobs``/``run_tasks`` pipeline (and therefore
parallel workers, fault injection, checkpoint/resume and the soa
backend) executes without knowing scenarios exist.

Unit conversions happen here, once: the TOML schema speaks operator
units (``duration_hours``, ``probe_interval_minutes``), the
:class:`~repro.experiments.config.Settings` dataclass speaks seconds.
"""

from __future__ import annotations

from typing import Optional

from repro.caching.onpath import OnPathConfig
from repro.caching.placement import (
    GeographicPlacement,
    PlacementPolicy,
    PopularityPlacement,
)
from repro.experiments.config import Settings
from repro.experiments.parallel import SweepPoint
from repro.faults.plan import FaultPlan, plan_from_dict
from repro.scenarios.grid import GridPoint, expand_grid
from repro.scenarios.registry import Scenario
from repro.workloads.cycles import DiurnalCycle, FlashCrowd, QueryCycle

HOUR = 3600.0
MINUTE = 60.0

#: schema keys carried into Settings verbatim (same name, same unit)
_SETTINGS_PASSTHROUGH = (
    "profile",
    "num_caching_nodes",
    "num_items",
    "num_sources",
    "freshness_requirement",
    "lifetime_factor",
    "item_size",
    "query_rate_per_day",
    "zipf_exponent",
    "warmup_fraction",
    "refresh_jitter",
)


def settings_from_doc(doc: dict) -> Settings:
    """The :class:`Settings` a scenario document describes.

    Unlisted keys keep the library defaults, so a scenario file is a
    diff against the paper's baseline configuration, not a full copy.
    """
    table = doc.get("settings", {})
    overrides = {k: table[k] for k in _SETTINGS_PASSTHROUGH if k in table}
    if "seeds" in table:
        overrides["seeds"] = tuple(table["seeds"])
    if "duration_hours" in table:
        overrides["duration"] = table["duration_hours"] * HOUR
    if "refresh_interval_hours" in table:
        overrides["refresh_interval"] = table["refresh_interval_hours"] * HOUR
    if "probe_interval_minutes" in table:
        overrides["probe_interval"] = table["probe_interval_minutes"] * MINUTE
    return Settings().with_(**overrides).validate()


def cycle_from_doc(doc: dict) -> Optional[QueryCycle]:
    """The query cycle a document's ``[workload]`` table describes."""
    workload = doc.get("workload", {})
    diurnal_table = workload.get("diurnal")
    crowds_tables = workload.get("flash_crowds", [])
    if diurnal_table is None and not crowds_tables:
        return None
    diurnal = None
    if diurnal_table is not None:
        if "activity" in diurnal_table:
            diurnal = DiurnalCycle(
                activity=tuple(float(x) for x in diurnal_table["activity"])
            )
        else:
            diurnal = DiurnalCycle()
    crowds = tuple(
        FlashCrowd(
            start=c["start_hours"] * HOUR,
            length=c["length_hours"] * HOUR,
            boost=c.get("boost", 4.0),
            focus=c.get("focus", 2),
            focus_weight=c.get("focus_weight", 0.7),
        )
        for c in crowds_tables
    )
    return QueryCycle(diurnal=diurnal, crowds=crowds)


def onpath_from_doc(doc: dict) -> Optional[OnPathConfig]:
    """The on-path caching config of ``[caching.onpath]``, if present."""
    table = doc.get("caching", {}).get("onpath")
    if table is None:
        return None
    return OnPathConfig(
        strategy=table.get("strategy", "lce"),
        capacity=table.get("capacity", 8),
    )


def placement_from_doc(doc: dict) -> Optional[PlacementPolicy]:
    """The placement policy of ``[placement]``, if present."""
    table = doc.get("placement")
    if table is None:
        return None
    if table["policy"] == "popularity":
        return PopularityPlacement(
            s=table.get("s", 0.8),
            budget_fraction=table.get("budget_fraction", 0.5),
        )
    return GeographicPlacement(
        spread_quantile=table.get("spread_quantile", 0.8)
    )


def faults_from_doc(doc: dict) -> Optional[FaultPlan]:
    """The fault plan of ``[faults]``, if present."""
    table = doc.get("faults")
    if table is None:
        return None
    return plan_from_dict(table)


def sweep_point_from_doc(doc: dict) -> SweepPoint:
    """One expanded grid document as a runnable sweep point."""
    run = doc.get("run", {})
    return SweepPoint(
        settings=settings_from_doc(doc),
        schemes=tuple(run["schemes"]),
        with_queries=bool(run.get("with_queries", False)),
        fault_plan=faults_from_doc(doc),
        backend=run.get("backend", "object"),
        placement=placement_from_doc(doc),
        onpath=onpath_from_doc(doc),
        cycle=cycle_from_doc(doc),
    )


def compose_scenario(
    scenario: Scenario,
) -> tuple[list[GridPoint], list[SweepPoint]]:
    """Expand a scenario's grid and compose every point for execution.

    Returns the grid points (labels, overrides) and the parallel list of
    sweep points, index-aligned, ready for
    :func:`repro.experiments.parallel.run_sweep`.
    """
    grid_points = expand_grid(scenario)
    return grid_points, [sweep_point_from_doc(p.doc) for p in grid_points]
