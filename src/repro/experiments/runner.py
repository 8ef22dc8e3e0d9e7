"""Shared machinery for running scheme-comparison experiments.

A run is described by one frozen :class:`RunSpec` (settings, seed,
scheme, query workload, fault plan, placement, on-path caching,
backend, caching-node count, trace path).  :func:`prepare` is the only
code that wires a run -- build, faults, freshness probe, queries, the
message-trace hook -- and :func:`score` the only code that scores one
into a :class:`RunMetrics`.  ``run_once``, the sweep jobs, every
experiment module, ``repro predict`` and the live service go through
the pair, so the ambient :func:`fault_injection` plan and
:func:`trace_output` sink reach every run.

``run_replicated`` repeats a run across seeds -- each seed generates its
own trace realisation, and all schemes of a seed share that trace and
the same pre-scheduled query workload, the paper-style paired
comparison.  Replication fans out through
:mod:`repro.experiments.parallel`: pass ``jobs`` (or set
``REPRO_JOBS``) to run the independent (seed, scheme) simulations on a
process pool; ``jobs=1`` is the serial fallback and parallel output is
identical to it.  The per-seed trace, MLE rates and centrality ranking
are computed once per seed and shared across all schemes via
:mod:`repro.experiments.artifacts`.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.analysis.metrics import freshness_summary, judge_queries, refresh_outcomes
from repro.caching.items import DataCatalog
from repro.contacts.centrality import contact_centrality, rank_nodes
from repro.contacts.rates import RateTable, mle_rates
from repro.core.scheme import SCHEMES, SchemeConfig, build_simulation
from repro.core.soa import check_soa_supports
from repro.experiments.artifacts import (
    SOURCE_RANKING_WINDOW,
    artifacts_for_trace,
    seed_artifacts,
    sources_from_ranking,
)
from repro.experiments.config import Settings
from repro.mobility.trace import ContactTrace
from repro.sim.messages import set_message_trace
from repro.workloads.cycles import QueryCycle, schedule_cycle_queries
from repro.workloads.popularity import ZipfPopularity
from repro.workloads.queries import schedule_queries

if TYPE_CHECKING:  # pragma: no cover
    from repro.caching.onpath import OnPathConfig
    from repro.caching.placement import PlacementPolicy
    from repro.core.scheme import SchemeRuntime
    from repro.faults.plan import FaultPlan


@dataclass
class RunMetrics:
    """Everything one simulation run reports."""

    scheme: str
    seed: int
    freshness: float
    validity: float
    messages: float
    messages_per_update: float
    on_time_ratio: float
    refresh_delay: float
    queries_issued: int = 0
    query_answer_ratio: float = float("nan")
    query_fresh_ratio: float = float("nan")
    query_valid_ratio: float = float("nan")
    query_validity_e2e: float = float("nan")
    query_delay: float = float("nan")

    def same_as(self, other: "RunMetrics") -> bool:
        """Exact field-by-field equality, treating NaN == NaN as true.

        Plain dataclass ``==`` is always false for runs without queries
        (the ``query_*`` fields default to NaN); this is the comparison
        the parallel-vs-serial determinism guarantee is stated in.
        """
        if not isinstance(other, RunMetrics):
            return NotImplemented
        for mine, theirs in zip(dataclasses.astuple(self),
                                dataclasses.astuple(other)):
            if mine != theirs and not (
                isinstance(mine, float) and isinstance(theirs, float)
                and math.isnan(mine) and math.isnan(theirs)
            ):
                return False
        return True


@dataclass
class ExperimentResult:
    """A reproduced table/figure: formatted text plus raw data."""

    exp_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)
    notes: str = ""

    def __str__(self) -> str:
        parts = [f"== {self.exp_id}: {self.title} ==", self.text]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)


def analytic_on_time(runtime) -> float:
    """Analytical end-to-end on-time refresh prediction of a wired runtime.

    For every (item, caching node), multiplies the planned per-hop
    delivery probabilities along the node's path to the source -- hops
    are provisioned independently, so the product is the planned
    probability that a new version reaches the node within its freshness
    window.  Returns the mean over all (item, node) pairs.
    """
    import math

    products = []
    for item_id, tree in runtime.trees.items():
        for node in tree.members:
            prob = 1.0
            path = tree.path_to_root(node)
            for child, parent in zip(path, path[1:]):
                plan = runtime.plans.get((item_id, parent, child))
                prob *= plan.achieved if plan is not None else 0.0
            products.append(prob)
    return sum(products) / len(products) if products else math.nan


def make_trace(settings: Settings, seed: int) -> ContactTrace:
    """One trace realisation of the settings' profile.

    Served from the per-seed artifact cache: repeated calls with the
    same ``(profile, duration, seed)`` return the same (deterministic)
    trace object without regenerating it.
    """
    return seed_artifacts(settings, seed).trace


def choose_sources(trace: ContactTrace, settings: Settings) -> list[int]:
    """Pick the source nodes: median-centrality devices.

    Sources are ordinary members of the network -- neither the social
    hubs (those become caching nodes) nor isolated stragglers (a source
    nobody meets starves every scheme equally but mostly measures the
    trace, not the scheme).  Taking nodes from the middle of the
    centrality ranking is deterministic and portable across traces.

    When ``trace`` came out of the artifact cache the cached centrality
    ranking is reused; otherwise the ranking is derived here.
    """
    artifacts = artifacts_for_trace(trace)
    if artifacts is not None:
        return artifacts.sources(settings.num_sources)
    rates = mle_rates(trace)
    scores = contact_centrality(rates, window=SOURCE_RANKING_WINDOW)
    return sources_from_ranking(tuple(rank_nodes(scores)), settings.num_sources)


def make_catalog(settings: Settings, sources: Sequence[int]) -> DataCatalog:
    return DataCatalog.uniform(
        num_items=settings.num_items,
        sources=list(sources),
        refresh_interval=settings.refresh_interval,
        lifetime=settings.lifetime,
        size=settings.item_size,
        freshness_requirement=settings.freshness_requirement,
    )


class TraceSink:
    """Allocates per-job trace files under one user-requested path.

    ``repro run E4 --trace out.jsonl`` may execute many (point, seed,
    scheme) jobs; each gets its own JSONL file next to ``out.jsonl``
    (``out-p0-s1-hdr.jsonl`` ...), and :meth:`finalize` either renames a
    single file to the requested path or writes ``out.manifest.json``
    indexing them all (:func:`repro.obs.export.load_trace` merges a
    manifest transparently).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.entries: list[dict] = []
        #: the path ``finalize`` produced: the single trace file or the
        #: manifest (``None`` until finalized, or if nothing was traced)
        self.output: Optional[Path] = None

    def allocate(self, point: int, seed: int, scheme: "str | SchemeConfig") -> Path:
        """Reserve the trace file for one (point, seed, scheme) job."""
        name = scheme if isinstance(scheme, str) else scheme.name
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-") or "scheme"
        stem = self.path.stem or "trace"
        taken = {entry["path"] for entry in self.entries}
        base = f"{stem}-p{point}-s{seed}-{safe}"
        file_name = f"{base}.jsonl"
        suffix = 2
        while file_name in taken:
            file_name = f"{base}-{suffix}.jsonl"
            suffix += 1
        self.entries.append(
            {"point": point, "seed": seed, "scheme": name, "path": file_name}
        )
        return self.path.parent / file_name

    def finalize(self) -> Optional[Path]:
        """Rename a lone trace to the requested path, or write the manifest.

        Only files that were written count: a run that failed, or was
        never started because a later run of its sweep was invalid,
        leaves its allocation unused.
        """
        from repro.obs.export import write_manifest

        self.entries = [
            entry for entry in self.entries
            if (self.path.parent / entry["path"]).exists()
        ]
        if not self.entries:
            return None
        if len(self.entries) == 1:
            only = self.path.parent / self.entries[0]["path"]
            if only != self.path:
                os.replace(only, self.path)
            self.output = self.path
            return self.output
        for entry in self.entries:
            with open(self.path.parent / entry["path"], "r",
                      encoding="utf-8") as handle:
                entry["records"] = sum(1 for line in handle if line.strip())
        manifest = self.path.with_name(f"{self.path.stem}.manifest.json")
        write_manifest(manifest, self.entries)
        self.output = manifest
        return self.output


#: The active sink, set by :func:`trace_output`.  :meth:`RunSpec.resolved`
#: allocates each run's trace file from it, in the parent process, which
#: is how ``--trace`` reaches every experiment without threading a
#: parameter through each experiment's signature.
_TRACE_SINK: Optional[TraceSink] = None

#: The active fault plan, set by :func:`fault_injection` and applied by
#: :meth:`RunSpec.resolved` -- the same pattern as ``_TRACE_SINK``, and
#: how ``--faults plan.toml`` reaches every experiment.
_FAULT_PLAN = None


@contextmanager
def fault_injection(plan):
    """Inject the :class:`~repro.faults.plan.FaultPlan` into every
    simulation run in the with-block.

    Baseline guarantee: a ``None`` (or null) plan installs nothing, so
    runs inside the block are bit-identical to runs outside it.  Not
    reentrant; an explicit ``fault_plan=`` argument (or a sweep point's
    own plan) takes precedence over the ambient one.
    """
    global _FAULT_PLAN
    if _FAULT_PLAN is not None:
        raise RuntimeError("fault_injection() is not reentrant")
    if plan is not None:
        plan.validate()
    _FAULT_PLAN = plan
    try:
        yield plan
    finally:
        _FAULT_PLAN = None


@contextmanager
def trace_output(path: str | Path):
    """Trace every simulation run in the with-block to JSONL files.

    Yields the :class:`TraceSink`; on exit the sink finalizes (single
    file renamed to ``path``, or a ``*.manifest.json`` written next to
    it).  Not reentrant; worker processes never see the parent's sink
    (jobs carry explicit paths instead).
    """
    global _TRACE_SINK
    if _TRACE_SINK is not None:
        raise RuntimeError("trace_output() is not reentrant")
    sink = TraceSink(path)
    _TRACE_SINK = sink
    try:
        yield sink
    finally:
        _TRACE_SINK = None
        sink.finalize()


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, fully described.

    Everything :func:`prepare` wires and :func:`score` scores comes from
    here.  ``fault_plan`` and ``trace_path`` are explicit; the ambient
    :func:`fault_injection` plan and :func:`trace_output` sink fill them
    in through :meth:`resolved`, once, in the parent process, so a spec
    shipped to a worker carries everything the run needs.
    """

    settings: Settings
    seed: int
    scheme: "str | SchemeConfig"
    with_queries: bool = False
    #: inhomogeneous query process (diurnal / flash crowd); needs queries
    cycle: Optional[QueryCycle] = None
    fault_plan: "Optional[FaultPlan]" = None
    placement: "Optional[PlacementPolicy]" = None
    #: LCE/LCD on-path caching of responses; needs queries
    onpath: "Optional[OnPathConfig]" = None
    #: execution engine, "object" or "soa"
    backend: str = "object"
    #: overrides ``settings.num_caching_nodes``
    num_caching_nodes: Optional[int] = None
    #: JSONL file the run's full event trace is written to
    trace_path: "Optional[str | Path]" = None

    def validate(self) -> "RunSpec":
        """Raise ``ValueError`` if no executor can run this spec.

        Returns ``self`` so call sites can chain.
        """
        if isinstance(self.scheme, str) and self.scheme not in SCHEMES:
            known = ", ".join(sorted(SCHEMES))
            raise ValueError(f"unknown scheme {self.scheme!r} (known: {known})")
        if self.num_caching_nodes is not None and self.num_caching_nodes < 1:
            raise ValueError(
                f"num_caching_nodes must be >= 1, got {self.num_caching_nodes}"
            )
        if self.fault_plan is not None:
            try:
                self.fault_plan.validate()
            except ValueError as exc:
                raise ValueError(f"invalid fault plan: {exc}") from None
        if self.backend not in ("object", "soa"):
            raise ValueError(f"unknown backend {self.backend!r} (object|soa)")
        if self.backend == "soa":
            config = (SCHEMES[self.scheme] if isinstance(self.scheme, str)
                      else self.scheme)
            check_soa_supports(
                queries=self.with_queries,
                cycle=self.cycle is not None,
                faults=self.fault_plan is not None,
                tracing=self.trace_path is not None,
                placement=self.placement is not None,
                onpath=self.onpath is not None,
                invalidate=config.structure == "invalidate",
            )
        if self.onpath is not None and not self.with_queries:
            raise ValueError("onpath caching requires with_queries=true")
        if self.cycle is not None and not self.with_queries:
            raise ValueError("a query cycle requires with_queries=true")
        return self

    def resolved(self, point: int = 0) -> "RunSpec":
        """This spec with the ambient fault plan and trace sink applied,
        validated.

        An explicit ``fault_plan`` or ``trace_path`` wins.  The trace
        file is allocated from the active sink, named after ``point``.
        """
        spec = self
        if spec.fault_plan is None and _FAULT_PLAN is not None:
            spec = replace(spec, fault_plan=_FAULT_PLAN)
        if spec.trace_path is None and _TRACE_SINK is not None:
            path = _TRACE_SINK.allocate(point, spec.seed, spec.scheme)
            spec = replace(spec, trace_path=str(path))
        return spec.validate()


@contextmanager
def prepare(
    spec: RunSpec,
    trace: "Optional[ContactTrace]" = None,
    catalog: Optional[DataCatalog] = None,
    **build,
) -> Iterator["SchemeRuntime"]:
    """Wire the run ``spec`` describes and yield its runtime, not yet run.

    The only wiring code: it builds the simulation, installs the fault
    plan and the freshness probe, and schedules the query workload.
    ``trace`` and ``catalog`` default to the seed's cached artifacts (its
    trace and MLE rates) and the catalog :func:`make_catalog` derives;
    ``build`` passes extra :func:`build_simulation` arguments through
    (``rates``, ``caching_nodes``, ``record_transfers``,
    ``store_capacity``, ``eviction_policy``, ``ncl_metric``).

    With a ``trace_path``, the ``msg.create`` hook (process-global,
    because Message construction sites are spread across every
    protocol) is scoped to the with-block, and the run's event trace is
    written when the block exits cleanly.  Tracing is passive: the run's
    metrics are identical to an untraced one's.
    """
    spec.validate()
    settings = spec.settings
    if trace is None:
        artifacts = seed_artifacts(settings, spec.seed)
        trace = artifacts.trace
        if build.get("rates") is None:
            build["rates"] = artifacts.rates
    if catalog is None:
        catalog = make_catalog(settings, choose_sources(trace, settings))
    bus = None
    if spec.trace_path is not None:
        from repro.obs.bus import EventBus

        bus = EventBus()
        set_message_trace(bus)
    try:
        runtime = build_simulation(
            trace,
            catalog,
            scheme=spec.scheme,
            num_caching_nodes=spec.num_caching_nodes or settings.num_caching_nodes,
            seed=spec.seed,
            with_queries=spec.with_queries,
            refresh_jitter=settings.refresh_jitter,
            bus=bus,
            backend=spec.backend,
            placement=spec.placement,
            onpath=spec.onpath,
            **build,
        )
        horizon = settings.duration
        if spec.fault_plan is not None:
            from repro.faults.injectors import install_faults

            install_faults(runtime, spec.fault_plan, seed=spec.seed, until=horizon)
        runtime.install_freshness_probe(interval=settings.probe_interval, until=horizon)
        if spec.with_queries:
            popularity = ZipfPopularity(catalog.item_ids, s=settings.zipf_exponent)
            rng = np.random.default_rng(spec.seed * 7919 + 17)
            if spec.cycle is not None:
                schedule_cycle_queries(
                    runtime,
                    rate_per_node=settings.query_rate,
                    duration=horizon,
                    rng=rng,
                    cycle=spec.cycle,
                    popularity=popularity,
                )
            else:
                schedule_queries(
                    runtime,
                    rate_per_node=settings.query_rate,
                    duration=horizon,
                    rng=rng,
                    popularity=popularity,
                )
        yield runtime
    finally:
        if bus is not None:
            set_message_trace(None)
    if bus is not None:
        from repro.obs.export import write_jsonl

        write_jsonl(bus.records, spec.trace_path)


def simulate(spec: RunSpec, trace=None, catalog=None, **build) -> "SchemeRuntime":
    """:func:`prepare` the run and run it to the horizon."""
    with prepare(spec, trace, catalog, **build) as runtime:
        runtime.run(until=spec.settings.duration)
    return runtime


def score(runtime: "SchemeRuntime", spec: RunSpec) -> RunMetrics:
    """Score a finished run: the only scoring code.

    Freshness and validity average the probe series over the horizon
    after the warm-up fraction; refresh outcomes come from the update
    log; query outcomes, when the spec scheduled queries, judge every
    answer against the version history.
    """
    settings = spec.settings
    horizon = settings.duration
    fresh = freshness_summary(
        runtime, t0=settings.warmup_fraction * horizon, t1=horizon
    )
    refresh = refresh_outcomes(
        runtime.update_log,
        runtime.history,
        runtime.catalog,
        runtime.caching_nodes,
        horizon=horizon,
        messages=runtime.refresh_overhead(),
    )
    metrics = RunMetrics(
        scheme=runtime.config.name,
        seed=spec.seed,
        freshness=fresh.freshness,
        validity=fresh.validity,
        messages=refresh.messages,
        messages_per_update=refresh.messages_per_update,
        on_time_ratio=refresh.on_time_ratio,
        refresh_delay=refresh.mean_delay,
    )
    if spec.with_queries:
        outcomes = judge_queries(
            runtime.query_records(), runtime.history, runtime.catalog
        )
        metrics.queries_issued = outcomes.issued
        metrics.query_answer_ratio = outcomes.answer_ratio
        metrics.query_fresh_ratio = outcomes.fresh_ratio
        metrics.query_valid_ratio = outcomes.valid_ratio
        metrics.query_validity_e2e = outcomes.end_to_end_validity
        metrics.query_delay = outcomes.mean_delay
    return metrics


def run_once(
    trace: ContactTrace,
    scheme: str | SchemeConfig,
    settings: Settings,
    seed: int,
    with_queries: bool = False,
    catalog: Optional[DataCatalog] = None,
    num_caching_nodes: Optional[int] = None,
    rates: Optional[RateTable] = None,
    trace_path: Optional[str | Path] = None,
    fault_plan=None,
    backend: str = "object",
    placement: "Optional[PlacementPolicy]" = None,
    onpath: "Optional[OnPathConfig]" = None,
    cycle: Optional[QueryCycle] = None,
) -> RunMetrics:
    """Wire, run and score one simulation over ``trace``.

    The keyword arguments are the :class:`RunSpec` fields; the ambient
    fault plan and trace sink apply unless given explicitly.  ``rates``
    short-circuits the whole-trace MLE estimation inside
    :func:`build_simulation`; pass the cached per-seed estimate when the
    same trace is run under several schemes.
    """
    spec = RunSpec(
        settings=settings,
        seed=seed,
        scheme=scheme,
        with_queries=with_queries,
        cycle=cycle,
        fault_plan=fault_plan,
        placement=placement,
        onpath=onpath,
        backend=backend,
        num_caching_nodes=num_caching_nodes,
        trace_path=trace_path,
    ).resolved()
    return score(simulate(spec, trace, catalog, rates=rates), spec)


def run_replicated(
    schemes: Sequence[str | SchemeConfig],
    settings: Settings,
    with_queries: bool = False,
    num_caching_nodes: Optional[int] = None,
    jobs: Optional[int] = None,
) -> dict[str, list[RunMetrics]]:
    """Run every scheme on every seed's trace; paired across schemes.

    ``jobs`` selects the worker count (``None`` falls back to
    ``$REPRO_JOBS``, then serial); any parallel run merges to exactly
    the structure the serial loop builds.
    """
    from repro.experiments.parallel import SweepPoint, run_sweep

    point = SweepPoint(
        settings=settings,
        schemes=tuple(schemes),
        with_queries=with_queries,
        num_caching_nodes=num_caching_nodes,
    )
    return run_sweep([point], jobs=jobs)[0]
