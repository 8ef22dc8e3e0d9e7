"""Parallel experiment execution.

Every experiment decomposes into independent ``(seed, scheme,
sweep-point)`` simulation jobs -- the classic embarrassingly-parallel
sweep.  This module fans those jobs out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the
output **byte-identical to serial execution**:

* each job is a picklable spec executed by a module-level function, so
  a worker computes exactly what the serial loop would have computed;
* job ids enumerate the serial iteration order, and results are merged
  in job-id order (``ProcessPoolExecutor.map`` preserves input order),
  so the merged structure is indistinguishable from the serial one;
* all randomness is derived from seeds carried inside the specs --
  nothing depends on scheduling order or worker identity.

Worker count resolution (:func:`resolve_jobs`): an explicit ``jobs``
argument wins, then the ``REPRO_JOBS`` environment variable, then the
serial default of 1.  ``jobs=1`` bypasses the pool entirely -- no
subprocess, no pickling, just the plain loop.

The per-seed artifacts (trace, MLE rates, centrality ranking) are
computed once in the parent via :mod:`repro.experiments.artifacts` and
shipped to the workers inside the job spec, so no worker ever
regenerates a trace.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar

from repro.experiments.artifacts import SeedArtifacts, cache_put, seed_artifacts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.caching.items import DataCatalog
    from repro.caching.onpath import OnPathConfig
    from repro.caching.placement import PlacementPolicy
    from repro.core.scheme import SchemeConfig
    from repro.experiments.config import Settings
    from repro.experiments.runner import RunMetrics
    from repro.faults.plan import FaultPlan
    from repro.workloads.cycles import QueryCycle

T = TypeVar("T")
R = TypeVar("R")

#: environment variable consulted when no explicit worker count is given
JOBS_ENV_VAR = "REPRO_JOBS"

#: ``jobs`` values meaning "one worker per CPU"
_AUTO_VALUES = {"auto", "max", "0", "-1"}


def available_cpus() -> int:
    """CPUs this process may actually run on.

    Unlike ``os.cpu_count()``, this respects the affinity mask that
    ``taskset`` or a cpuset puts on the process.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: argument > ``$REPRO_JOBS`` > 1.

    ``0``, ``-1`` or the strings ``auto``/``max`` (in the environment
    variable) select one worker per CPU this process may run on
    (:func:`available_cpus`).
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip().lower()
        if not raw:
            return 1
        if raw in _AUTO_VALUES:
            return available_cpus()
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"invalid {JOBS_ENV_VAR}={raw!r}: expected an integer or 'auto'"
            ) from None
    if jobs in (0, -1):
        return available_cpus()
    if jobs < -1:
        raise ValueError(f"invalid worker count {jobs}")
    return int(jobs)


def run_tasks(
    fn: Callable[[T], R],
    specs: Sequence[T],
    jobs: Optional[int] = None,
) -> list[R]:
    """Apply a picklable ``fn`` to every spec, optionally in parallel.

    The result list is in input order regardless of worker scheduling,
    so a parallel run merges identically to the serial loop.  With a
    resolved worker count of 1 (the default) the pool is bypassed
    entirely.

    Inside a :func:`repro.experiments.reliability.resilient_execution`
    block, execution routes through the fault-tolerant executor instead
    (same contract, plus retries, per-job timeouts, crashed-worker
    requeue and checkpoint/resume).
    """
    from repro.experiments import reliability

    context = reliability.current_context()
    if context is not None:
        return reliability.run_tasks_resilient(fn, specs, jobs=jobs,
                                               context=context)
    workers = resolve_jobs(jobs)
    specs = list(specs)
    if workers <= 1 or len(specs) <= 1:
        return [fn(spec) for spec in specs]
    workers = min(workers, len(specs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, specs, chunksize=1))


@dataclass(frozen=True)
class Job:
    """One picklable ``run_once`` invocation.

    ``job_id`` enumerates the serial iteration order; the merge sorts by
    it, which is what makes parallel output identical to serial.
    """

    job_id: int
    #: index of the sweep point this job belongs to (0 for flat runs)
    point: int
    seed: int
    scheme: "str | SchemeConfig"
    settings: "Settings"
    artifacts: SeedArtifacts
    catalog: "DataCatalog"
    with_queries: bool = False
    num_caching_nodes: Optional[int] = None
    #: JSONL trace file for this job, allocated by the parent's
    #: :class:`~repro.experiments.runner.TraceSink` (workers never see
    #: the parent's sink -- the path travels inside the spec)
    trace_path: Optional[str] = None
    #: fault plan resolved by the parent (workers never see the parent's
    #: :func:`~repro.experiments.runner.fault_injection` context -- like
    #: the trace path, the plan travels inside the spec)
    fault_plan: Optional["FaultPlan"] = None
    #: execution engine for this job ("object" or "soa")
    backend: str = "object"
    #: optional placement policy restricting replication
    placement: Optional["PlacementPolicy"] = None
    #: optional LCE/LCD on-path caching of responses
    onpath: Optional["OnPathConfig"] = None
    #: optional inhomogeneous query cycle (diurnal / flash crowd)
    cycle: Optional["QueryCycle"] = None


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: which schemes to run under which settings."""

    settings: "Settings"
    schemes: tuple = ()
    with_queries: bool = False
    num_caching_nodes: Optional[int] = None
    #: per-point fault plan; ``None`` falls back to the ambient
    #: :func:`~repro.experiments.runner.fault_injection` context
    fault_plan: Optional["FaultPlan"] = None
    #: execution engine ("object" or "soa"; soa has no query plane,
    #: faults, placement or on-path caching)
    backend: str = "object"
    #: optional placement policy restricting replication
    placement: Optional["PlacementPolicy"] = None
    #: optional LCE/LCD on-path caching (requires ``with_queries``)
    onpath: Optional["OnPathConfig"] = None
    #: optional inhomogeneous query cycle (requires ``with_queries``)
    cycle: Optional["QueryCycle"] = None


def execute_job(job: Job) -> "RunMetrics":
    """Run one job (in a worker or inline) and return its metrics."""
    from repro.experiments.runner import run_once

    # Seed the worker-local artifact cache so anything downstream that
    # asks for this seed's artifacts reuses the shipped copy.
    cache_put(job.artifacts)
    return run_once(
        job.artifacts.trace,
        job.scheme,
        job.settings,
        seed=job.seed,
        with_queries=job.with_queries,
        catalog=job.catalog,
        num_caching_nodes=job.num_caching_nodes,
        rates=job.artifacts.rates,
        trace_path=job.trace_path,
        fault_plan=job.fault_plan,
        backend=job.backend,
        placement=job.placement,
        onpath=job.onpath,
        cycle=job.cycle,
    )


def validate_points(points: Sequence[SweepPoint]) -> None:
    """Eagerly reject malformed sweep configuration.

    Runs in the parent **before** any worker spawns or artifact builds:
    a typo'd scheme name or a negative rate fails in milliseconds with a
    clear message instead of as N identical tracebacks out of a pool.
    """
    from repro.core.scheme import SCHEMES

    for point_index, point in enumerate(points):
        where = f"sweep point {point_index}"
        try:
            point.settings.validate()
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if not point.schemes:
            raise ValueError(f"{where}: no schemes to run")
        for scheme in point.schemes:
            if isinstance(scheme, str) and scheme not in SCHEMES:
                known = ", ".join(sorted(SCHEMES))
                raise ValueError(
                    f"{where}: unknown scheme {scheme!r} (known: {known})"
                )
        if (point.num_caching_nodes is not None
                and point.num_caching_nodes < 1):
            raise ValueError(
                f"{where}: num_caching_nodes must be >= 1, "
                f"got {point.num_caching_nodes}"
            )
        if point.fault_plan is not None:
            try:
                point.fault_plan.validate()
            except ValueError as exc:
                raise ValueError(f"{where}: invalid fault plan: {exc}") from None
        if point.backend not in ("object", "soa"):
            raise ValueError(
                f"{where}: unknown backend {point.backend!r} (object|soa)"
            )
        if point.backend == "soa":
            unsupported = [
                name
                for name, active in (
                    ("with_queries", point.with_queries),
                    ("fault_plan", point.fault_plan is not None),
                    ("placement", point.placement is not None),
                    ("onpath", point.onpath is not None),
                    ("cycle", point.cycle is not None),
                )
                if active
            ]
            if unsupported:
                raise ValueError(
                    f"{where}: the soa backend does not support "
                    f"{', '.join(unsupported)}"
                )
        if point.onpath is not None and not point.with_queries:
            raise ValueError(
                f"{where}: onpath caching requires with_queries=true"
            )
        if point.cycle is not None and not point.with_queries:
            raise ValueError(
                f"{where}: a query cycle requires with_queries=true"
            )


def build_jobs(points: Sequence[SweepPoint]) -> list[Job]:
    """Expand sweep points into the serial-order job list.

    Order is (point, seed, scheme) -- exactly the nesting of the serial
    loops in ``run_replicated`` and the per-experiment sweeps.  The
    whole sweep is validated eagerly first (:func:`validate_points`).
    """
    from repro.experiments import runner as runner_mod
    from repro.experiments.runner import make_catalog

    validate_points(points)
    # Allocate per-job trace files in the parent: the sink is a plain
    # module global and does not survive pickling into workers.  The
    # ambient fault plan resolves here for the same reason.
    sink = runner_mod._TRACE_SINK
    ambient_plan = runner_mod._FAULT_PLAN
    jobs: list[Job] = []
    job_id = 0
    for point_index, point in enumerate(points):
        settings = point.settings
        fault_plan = (
            point.fault_plan if point.fault_plan is not None else ambient_plan
        )
        for seed in settings.seeds:
            artifacts = seed_artifacts(settings, seed)
            catalog = make_catalog(settings, artifacts.sources(settings.num_sources))
            for scheme in point.schemes:
                trace_path = (
                    str(sink.allocate(point_index, seed, scheme))
                    if sink is not None
                    else None
                )
                jobs.append(
                    Job(
                        job_id=job_id,
                        point=point_index,
                        seed=seed,
                        scheme=scheme,
                        settings=settings,
                        artifacts=artifacts,
                        catalog=catalog,
                        with_queries=point.with_queries,
                        num_caching_nodes=point.num_caching_nodes,
                        trace_path=trace_path,
                        fault_plan=fault_plan,
                        backend=point.backend,
                        placement=point.placement,
                        onpath=point.onpath,
                        cycle=point.cycle,
                    )
                )
                job_id += 1
    return jobs


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
) -> list[dict[str, list["RunMetrics"]]]:
    """Run every (point, seed, scheme) job; one result dict per point.

    Each dict maps scheme name to the per-seed :class:`RunMetrics` list,
    in seed order -- the exact structure ``run_replicated`` builds
    serially.  Jobs a degraded resilient run gave up on (``None``
    results under ``on_failure="partial"``) are left out of the merge;
    the journal's manifest records which they were.
    """
    specs = build_jobs(points)
    metrics = run_tasks(execute_job, specs, jobs=jobs)
    merged: list[dict[str, list["RunMetrics"]]] = [{} for _ in points]
    for spec, result in zip(specs, metrics):
        if result is None:
            continue
        merged[spec.point].setdefault(result.scheme, []).append(result)
    return merged
