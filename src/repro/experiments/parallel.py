"""Parallel experiment execution.

Every experiment decomposes into independent ``(seed, scheme,
sweep-point)`` simulation jobs -- the classic embarrassingly-parallel
sweep.  This module fans those jobs out over a
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the
output **byte-identical to serial execution**:

* each job is a picklable spec executed by a module-level function, so
  a worker computes exactly what the serial loop would have computed;
* jobs are listed in the serial iteration order, and results are merged
  in that order (``ProcessPoolExecutor.map`` preserves input order), so
  the merged structure is indistinguishable from the serial one;
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

from repro.experiments import runner
from repro.experiments.artifacts import SeedArtifacts, cache_put, seed_artifacts
from repro.experiments.runner import RunMetrics, RunSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.caching.onpath import OnPathConfig
    from repro.caching.placement import PlacementPolicy
    from repro.core.scheme import SchemeConfig
    from repro.experiments.config import Settings
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
    """One picklable run: its description plus its seed's artifacts.

    The artifacts ride along so no worker regenerates a trace;
    :meth:`prepare` seeds the worker-local cache with them, so
    :func:`~repro.experiments.runner.prepare` finds the trace and rates
    there.  Experiments with their own worker subclass this and add the
    one knob their sweep varies.
    """

    #: index of the sweep point this job belongs to (0 for flat runs)
    point: int
    run: RunSpec
    artifacts: SeedArtifacts

    def prepare(self, **build):
        """:func:`~repro.experiments.runner.prepare` this job's run."""
        cache_put(self.artifacts)
        return runner.prepare(self.run, **build)


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
    #: execution engine ("object" or "soa"; see
    #: :data:`repro.core.soa.UNSUPPORTED` for what soa cannot run)
    backend: str = "object"
    #: optional placement policy restricting replication
    placement: Optional["PlacementPolicy"] = None
    #: optional LCE/LCD on-path caching (requires ``with_queries``)
    onpath: Optional["OnPathConfig"] = None
    #: optional inhomogeneous query cycle (requires ``with_queries``)
    cycle: Optional["QueryCycle"] = None

    def spec(self, seed: int, scheme: "str | SchemeConfig") -> RunSpec:
        """The (unresolved) description of one run at this point."""
        return RunSpec(
            settings=self.settings,
            seed=seed,
            scheme=scheme,
            with_queries=self.with_queries,
            cycle=self.cycle,
            fault_plan=self.fault_plan,
            placement=self.placement,
            onpath=self.onpath,
            backend=self.backend,
            num_caching_nodes=self.num_caching_nodes,
        )


def execute_job(job: Job) -> RunMetrics:
    """Run one job (in a worker or inline) and return its metrics."""
    with job.prepare() as runtime:
        runtime.run(until=job.run.settings.duration)
    return runner.score(runtime, job.run)


def validate_points(points: Sequence[SweepPoint]) -> None:
    """Eagerly reject malformed sweep configuration.

    Runs in the parent **before** any worker spawns or artifact builds:
    a typo'd scheme name or a negative rate fails in milliseconds with a
    clear message instead of as N identical tracebacks out of a pool.
    Each run is checked by :meth:`~repro.experiments.runner.RunSpec.validate`.
    """
    for point_index, point in enumerate(points):
        try:
            point.settings.validate()
            if not point.schemes:
                raise ValueError("no schemes to run")
            for scheme in point.schemes:
                point.spec(point.settings.seeds[0], scheme).validate()
        except ValueError as exc:
            raise ValueError(f"sweep point {point_index}: {exc}") from None


def build_jobs(points: Sequence[SweepPoint]) -> list[Job]:
    """Expand sweep points into the serial-order job list.

    Order is (point, seed, scheme) -- exactly the nesting of the serial
    loops in ``run_replicated`` and the per-experiment sweeps.  The
    whole sweep is validated eagerly first (:func:`validate_points`),
    then each run resolves the ambient fault plan and trace sink here,
    in the parent: neither survives pickling into a worker.
    """
    validate_points(points)
    return [
        Job(
            point=point_index,
            run=point.spec(seed, scheme).resolved(point_index),
            artifacts=seed_artifacts(point.settings, seed),
        )
        for point_index, point in enumerate(points)
        for seed in point.settings.seeds
        for scheme in point.schemes
    ]


def run_sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
) -> list[dict[str, list[RunMetrics]]]:
    """Run every (point, seed, scheme) job; one result dict per point.

    Each dict maps scheme name to the per-seed :class:`RunMetrics` list,
    in seed order -- the exact structure ``run_replicated`` builds
    serially.  Jobs a degraded resilient run gave up on (``None``
    results under ``on_failure="partial"``) are left out of the merge;
    the journal's manifest records which they were.
    """
    specs = build_jobs(points)
    metrics = run_tasks(execute_job, specs, jobs=jobs)
    merged: list[dict[str, list[RunMetrics]]] = [{} for _ in points]
    for job, result in zip(specs, metrics):
        if result is None:
            continue
        merged[job.point].setdefault(result.scheme, []).append(result)
    return merged
