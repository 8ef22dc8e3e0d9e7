"""The live service: online freshness maintenance over a streamed trace.

:class:`LiveService` wraps a normal object-backend
:class:`~repro.core.scheme.SchemeRuntime` whose contact schedule starts
*empty*: instead of front-loading a trace at construction, contacts are
injected one at a time as they arrive from a stream
(:meth:`~repro.sim.network.ContactNetwork.schedule_contact`), and the
simulation clock is advanced *exclusively* -- all protocol events
strictly before the next contact's start run before that contact is
scheduled (the watermark discipline).  Because the injected events use
the same callbacks and priorities as the batch path, and because
refresh timers and contact times never coincide exactly (contact times
come out of continuous RNG draws), the event order is identical to the
batch run -- which is what the replay-equivalence guarantee rests on:
replaying a recorded trace at infinite time-dilation produces
freshness/validity metrics ``same_as``-identical to
:func:`~repro.core.scheme.build_simulation` over the same trace, scheme
and seed.

The query plane is deliberately passive: :meth:`answer_query` reads the
best cached entry across online caching nodes via ``CacheStore.peek``
(no LRU touch, no message, no RNG), so serving queries can never
perturb the simulation.  Queries flow through one bounded
:class:`asyncio.Queue` and are **shed** (counted, HTTP 503) when it is
full; contacts are never shed -- they block the ingest pipeline
instead (see :mod:`repro.service.pipeline`).
"""

from __future__ import annotations

import asyncio
import math
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Sequence

from repro.contacts.rates import mle_rates
from repro.core.scheme import SchemeConfig, SchemeRuntime
from repro.mobility.trace import ContactTrace
from repro.obs.bus import EventBus
from repro.obs.records import ServiceSnapshot
from repro.service.durability import CheckpointError, CommittedBatch
from repro.service.events import ContactEvent, MalformedEvent, QueryResult
from repro.service.pipeline import Handler, Pipeline
from repro.service.sources import ReplaySource

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import Settings
    from repro.experiments.runner import RunSpec

#: queue-end sentinel for the query worker
_QUERY_EOS = object()


class ContactPlanner(Handler):
    """Parse raw stream lines into :class:`ContactEvent` batches.

    Already-parsed events (from :class:`ReplaySource`) pass through
    untouched.  Malformed lines are counted and dropped -- a garbage
    line must not stall the ingest path.
    """

    name = "planner"

    def __init__(self, registry) -> None:
        self._malformed = registry.counter("service.shed.malformed")

    async def handle(self, batch):
        if isinstance(batch, CommittedBatch):
            # already parsed + journaled by DurableSource; pass through
            # untouched so the commit tag survives to the cache stage
            return batch
        events = []
        for item in batch:
            if isinstance(item, ContactEvent):
                events.append(item)
                continue
            try:
                events.append(ContactEvent.from_line(item))
            except MalformedEvent:
                self._malformed.add(1)
        return events or None


class CacheStage(Handler):
    """Drive the simulator: advance the clock and schedule contacts."""

    name = "cache"

    def __init__(self, service: "LiveService") -> None:
        self.service = service

    async def on_start(self) -> None:
        self.service.start_sim()

    async def handle(self, events):
        scheduled = self.service.ingest_batch(events)
        checkpointer = self.service.checkpointer
        if checkpointer is not None and isinstance(events, CommittedBatch):
            # the runtime now reflects exactly this journal prefix --
            # the watermark-consistent point a manifest may describe
            checkpointer.note_commit(events.commit)
        # One batch of contacts can cascade into many protocol events;
        # yield so the query worker interleaves between batches.
        await asyncio.sleep(0)
        return {
            "scheduled": scheduled,
            "sim_time": self.service.runtime.sim.now,
            "watermark": self.service.watermark,
        }

    async def on_finish(self) -> None:
        # final manifest before the caller runs finish(): past the
        # horizon the state is no longer an ingest-consistent point
        checkpointer = self.service.checkpointer
        if checkpointer is not None:
            checkpointer.write()


class ResultBuilder(Handler):
    """Terminal stage: periodic service snapshots to the trace bus."""

    name = "results"

    def __init__(self, service: "LiveService", interval: float = 1.0) -> None:
        self.service = service
        self.interval = interval
        self._last = 0.0

    async def handle(self, summary):
        now = perf_counter()
        if now - self._last >= self.interval:
            self._last = now
            self.service.emit_snapshot()
        return None

    async def on_finish(self) -> None:
        self.service.emit_snapshot()


class LiveService:
    """Online runtime over a streaming contact feed plus a query plane.

    Use :func:`service_from_settings` rather than constructing
    directly.  ``spec`` describes the run the service serves; its
    horizon is the settings' duration.
    """

    def __init__(
        self,
        runtime: SchemeRuntime,
        spec: "RunSpec",
        contact_queue: int = 256,
        query_queue: int = 1024,
        serve_rate: Optional[float] = None,
        bus: Optional[EventBus] = None,
        snapshot_interval: float = 1.0,
    ) -> None:
        if spec.settings.duration <= 0:
            raise ValueError("horizon must be positive")
        if serve_rate is not None and serve_rate <= 0:
            raise ValueError("serve_rate must be positive")
        self.runtime = runtime
        self.spec = spec
        self.horizon = float(spec.settings.duration)
        self.contact_queue = contact_queue
        self.serve_rate = serve_rate
        self.bus = bus
        self.snapshot_interval = snapshot_interval
        #: start time of the newest scheduled contact; arrivals behind
        #: it are late (the clock may already have passed them) and are
        #: counted + dropped rather than breaking monotonicity
        self.watermark = 0.0
        #: coarse health state; the durability layer flips it to
        #: ``"resuming"`` while a journal replays (see :meth:`health`)
        self.state = "ok"
        #: attached by :meth:`enable_checkpointing` / ``restore_service``
        self.checkpointer = None
        self._last_shed_wall: Optional[float] = None
        self._wall_start = perf_counter()
        self._sim_started = False
        self._finished = False
        self._worker: Optional[asyncio.Task] = None
        self._queries: asyncio.Queue = asyncio.Queue(maxsize=query_queue)

        stats = runtime.stats
        self.stats = stats
        self.query_latency = stats.histogram("service.query.latency_ms")
        self._c_ingested = stats.counter("service.contacts.ingested")
        self._c_late = stats.counter("service.contacts.shed_late")
        self._c_unknown = stats.counter("service.contacts.shed_unknown")
        self._c_beyond = stats.counter("service.contacts.shed_past_horizon")
        self._c_offered = stats.counter("service.queries.offered")
        self._c_served = stats.counter("service.queries.served")
        self._c_shed = stats.counter("service.queries.shed")
        self._c_hit = stats.counter("service.queries.hit")
        self._c_fresh = stats.counter("service.queries.fresh")
        self._c_valid = stats.counter("service.queries.valid")
        self._g_sim_time = stats.gauge("service.sim_time")
        self._g_qdepth = stats.gauge("service.queue.queries")
        self._g_qpeak = stats.gauge("service.queue.queries.peak")
        self._qpeak_seen = 0

    # -- simulation side ---------------------------------------------------

    def start_sim(self) -> None:
        """Fire the runtime's ``on_start`` hooks (idempotent)."""
        if not self._sim_started:
            self._sim_started = True
            self.runtime.network.start()

    def ingest_batch(self, events: Sequence[ContactEvent]) -> int:
        """Advance the clock and schedule a batch of streamed contacts.

        For each event, every pending simulation event strictly before
        the contact's start runs first (exclusive advance), then the
        contact is scheduled -- so by the time a contact executes, the
        protocol state is exactly what the batch run would have had.
        Returns the number of contacts actually scheduled.
        """
        self.start_sim()
        sim = self.runtime.sim
        network = self.runtime.network
        peek_time = sim.peek_time
        step = sim.step
        scheduled = 0
        for event in events:
            start = event.start
            if start > self.horizon:
                self._c_beyond.add(1)
                continue
            if start < self.watermark or start < sim.now:
                self._c_late.add(1)
                continue
            while True:
                next_time = peek_time()
                if next_time is None or next_time >= start:
                    break
                step()
            if network.schedule_contact(event.a, event.b, start, event.end):
                self.watermark = start
                scheduled += 1
            else:
                self._c_unknown.add(1)
        if scheduled:
            self._c_ingested.add(scheduled)
        self._g_sim_time.set(sim.now)
        return scheduled

    def finish(self) -> float:
        """Run the remaining events out to the horizon (idempotent).

        After the stream ends, this is what makes the service's state
        comparable to a batch run over the same horizon: the clock
        advances to ``horizon`` inclusive, exactly like
        ``runtime.run(until=horizon)`` on the batch path.
        """
        if not self._finished:
            self._finished = True
            self.start_sim()
            self.runtime.sim.run(until=self.horizon)
            self._g_sim_time.set(self.runtime.sim.now)
        return self.runtime.sim.now

    # -- durability --------------------------------------------------------

    #: a query shed within this many wall seconds keeps ``/healthz``
    #: reporting ``shedding`` (429) -- long enough for probes to see it
    SHED_WINDOW_S = 5.0

    def enable_checkpointing(
        self,
        directory,
        spec=None,
        interval_s: Optional[float] = None,
        journal=None,
        spec_fingerprint: Optional[str] = None,
    ):
        """Attach a write-ahead journal plus periodic manifests.

        Fresh services pass ``spec`` (a
        :class:`~repro.service.durability.BuildSpec`, saved into the
        directory so a later ``--resume`` can rebuild the runtime);
        ``restore_service`` instead passes the recovered ``journal``.
        Once enabled, :meth:`serve` transparently wraps any source in a
        :class:`~repro.service.durability.DurableSource`.
        """
        from repro.service.durability import (
            DEFAULT_INTERVAL_S,
            JOURNAL_FILE,
            QUARANTINE_FILE,
            Checkpointer,
            Journal,
            Quarantine,
        )

        if self.checkpointer is not None:
            raise RuntimeError("checkpointing is already enabled")
        directory = Path(directory)
        if spec is not None:
            spec.save(directory)
            spec_fingerprint = spec.fingerprint()
        if journal is None:
            journal = Journal.open(directory / JOURNAL_FILE)
            if journal.records and spec is not None:
                records = journal.records
                journal.close()
                raise CheckpointError(
                    f"{directory} already holds a journal with {records} "
                    "committed records; resume from it (--resume) or "
                    "use a fresh checkpoint directory"
                )
        quarantine = Quarantine(
            directory / QUARANTINE_FILE, registry=self.stats
        )
        self.checkpointer = Checkpointer(
            directory,
            self,
            journal,
            quarantine=quarantine,
            interval_s=(
                DEFAULT_INTERVAL_S if interval_s is None else interval_s
            ),
            spec_fingerprint=spec_fingerprint,
        )
        return self.checkpointer

    def health(self) -> tuple[int, dict]:
        """Health state plus HTTP code for ``/healthz`` and probes.

        ``ok`` -> 200; ``checkpoint_stale`` (committed state has outrun
        the manifest for too long) -> 200 but flagged degraded;
        ``shedding`` (a query was shed within :attr:`SHED_WINDOW_S`)
        -> 429 so load balancers back off; ``resuming`` (journal replay
        in progress after a restore) -> 503 so probes wait.
        """
        state = self.state
        if state == "ok":
            if (
                self._last_shed_wall is not None
                and perf_counter() - self._last_shed_wall < self.SHED_WINDOW_S
            ):
                state = "shedding"
            elif self.checkpointer is not None and self.checkpointer.stale():
                state = "checkpoint_stale"
        code = 503 if state == "resuming" else 429 if state == "shedding" else 200
        return code, {
            "ok": state == "ok",
            "state": state,
            "degraded": state != "ok",
        }

    # -- query plane -------------------------------------------------------

    def answer_query(self, item_id: int) -> QueryResult:
        """Judge the best cached copy of ``item_id`` right now.

        Purely passive: reads stores via ``peek`` (no LRU touch), the
        version history, and the clock.  Raises ``KeyError`` for items
        outside the catalog.
        """
        runtime = self.runtime
        now = runtime.sim.now
        item = runtime.catalog.get(item_id)
        best = None
        best_node = None
        for node_id in runtime.caching_nodes:
            if not runtime.nodes[node_id].online:
                continue
            entry = runtime.stores[node_id].peek(item_id)
            if entry is None:
                continue
            if best is None or (entry.version, entry.version_time) > (
                best.version,
                best.version_time,
            ):
                best = entry
                best_node = node_id
        if best is None:
            return QueryResult(item_id=item_id, sim_time=now, hit=False)
        fresh = runtime.history.is_fresh(item_id, best.version, now)
        valid = not best.expired(now, item)
        self._c_hit.add(1)
        if fresh:
            self._c_fresh.add(1)
        if valid:
            self._c_valid.add(1)
        return QueryResult(
            item_id=item_id,
            sim_time=now,
            hit=True,
            fresh=fresh,
            valid=valid,
            version=best.version,
            version_time=best.version_time,
            served_by=best_node,
        )

    def submit_query(self, item_id: int, wait: bool = True):
        """Enqueue a query; returns a future, or ``None`` when shed.

        ``wait=False`` skips creating the result future (fire-and-forget
        load generation); the query is still answered and measured.
        The queue is bounded: a full queue sheds the query (counted in
        ``service.queries.shed``) instead of growing without limit.
        """
        self._c_offered.add(1)
        future = None
        if wait:
            future = asyncio.get_running_loop().create_future()
        entry = (item_id, perf_counter(), future)
        try:
            self._queries.put_nowait(entry)
        except asyncio.QueueFull:
            self._c_shed.add(1)
            self._last_shed_wall = perf_counter()
            return None
        depth = self._queries.qsize()
        self._g_qdepth.set(depth)
        if depth > self._qpeak_seen:
            self._qpeak_seen = depth
            self._g_qpeak.set(depth)
        return future

    async def _drain_queries(self) -> None:
        queue = self._queries
        observe = self.query_latency.observe
        min_interval = 1.0 / self.serve_rate if self.serve_rate else 0.0
        loop = asyncio.get_running_loop()
        next_free = loop.time()
        while True:
            entry = await queue.get()
            if entry is _QUERY_EOS:
                break
            if min_interval:
                now = loop.time()
                if now < next_free:
                    await asyncio.sleep(next_free - now)
                next_free = max(now, next_free) + min_interval
            item_id, submitted, future = entry
            try:
                result = self.answer_query(item_id)
            except KeyError as exc:
                if future is not None and not future.cancelled():
                    future.set_exception(exc)
                continue
            self._c_served.add(1)
            observe((perf_counter() - submitted) * 1e3)
            if future is not None and not future.cancelled():
                future.set_result(result)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the simulation side and the query worker (idempotent)."""
        self.start_sim()
        if self._worker is None:
            self._worker = asyncio.ensure_future(self._drain_queries())

    async def stop(self) -> None:
        """Drain and stop the query worker (idempotent)."""
        if self._worker is not None:
            await self._queries.put(_QUERY_EOS)
            await self._worker
            self._worker = None

    def build_pipeline(self) -> Pipeline:
        return Pipeline(
            [
                ContactPlanner(self.stats),
                CacheStage(self),
                ResultBuilder(self, interval=self.snapshot_interval),
            ],
            registry=self.stats,
            queue_size=self.contact_queue,
        )

    async def serve(self, source) -> None:
        """Ingest ``source`` to exhaustion while answering queries.

        Returns when the source ends (replay finished, tail/socket
        stopped).  The caller decides whether to :meth:`finish` (advance
        to the horizon) and must :meth:`stop` the query worker.

        With checkpointing enabled the source is wrapped in a
        :class:`~repro.service.durability.DurableSource`, so every event
        the pipeline sees is journaled before it is ingested.
        """
        await self.start()
        if self.checkpointer is not None:
            from repro.service.durability import DurableSource

            if not isinstance(source, DurableSource):
                source = DurableSource(
                    source,
                    self.checkpointer.journal,
                    self.checkpointer.quarantine,
                )
        await self.build_pipeline().run(source)

    # -- reporting ---------------------------------------------------------

    def _latency_percentiles(self) -> dict[str, float]:
        tally = self.query_latency
        return {
            "p50_ms": tally.percentile(50.0),
            "p95_ms": tally.percentile(95.0),
            "p99_ms": tally.percentile(99.0),
        }

    def status(self) -> dict:
        """One JSON-serialisable health/progress summary."""
        runtime = self.runtime
        fresh, valid, total = runtime.freshness_snapshot()
        counters = self.stats.counters()
        return {
            "scheme": runtime.config.name,
            "state": self.health()[1]["state"],
            "sim_time": runtime.sim.now,
            "horizon": self.horizon,
            "watermark": self.watermark,
            "uptime_s": perf_counter() - self._wall_start,
            "contacts": {
                "ingested": counters.get("service.contacts.ingested", 0),
                "shed_late": counters.get("service.contacts.shed_late", 0),
                "shed_unknown": counters.get("service.contacts.shed_unknown", 0),
                "shed_past_horizon": counters.get(
                    "service.contacts.shed_past_horizon", 0
                ),
                "malformed": counters.get("service.shed.malformed", 0),
            },
            "queries": {
                "offered": counters.get("service.queries.offered", 0),
                "served": counters.get("service.queries.served", 0),
                "shed": counters.get("service.queries.shed", 0),
                "queue_depth": self._queries.qsize(),
                **self._latency_percentiles(),
            },
            "freshness": {
                "fresh": fresh,
                "valid": valid,
                "total": total,
                "freshness": fresh / total if total else math.nan,
                "validity": valid / total if total else math.nan,
            },
        }

    def emit_snapshot(self) -> None:
        """Append one ``service.snapshot`` record to the trace bus."""
        if self.bus is None:
            return
        runtime = self.runtime
        fresh, valid, total = runtime.freshness_snapshot()
        counters = self.stats.counters()
        pct = self._latency_percentiles()
        self.bus.emit(
            ServiceSnapshot(
                runtime.sim.now,
                perf_counter() - self._wall_start,
                int(counters.get("service.contacts.ingested", 0)),
                int(counters.get("service.queries.served", 0)),
                int(counters.get("service.queries.shed", 0)),
                pct["p50_ms"],
                pct["p95_ms"],
                pct["p99_ms"],
                self._queries.qsize(),
                fresh / total if total else math.nan,
                valid / total if total else math.nan,
            )
        )

    def score(self) -> dict:
        """Score the finished run with the batch path's
        :func:`~repro.experiments.runner.score`; the :data:`SCORE_FIELDS`
        of its metrics, as a dict.  Call after :meth:`finish`.
        """
        from repro.experiments.runner import score

        metrics = score(self.runtime, self.spec)
        return {name: getattr(metrics, name) for name in SCORE_FIELDS}


SCORE_FIELDS = (
    "freshness",
    "validity",
    "messages",
    "messages_per_update",
    "on_time_ratio",
    "refresh_delay",
)


def scores_match(service_score: dict, metrics) -> bool:
    """Whether a service score equals a batch :class:`RunMetrics`.

    Same semantics as ``RunMetrics.same_as`` on the shared fields:
    exact equality, with NaN == NaN counted as equal.
    """
    for name in SCORE_FIELDS:
        mine = service_score[name]
        theirs = getattr(metrics, name)
        if mine != theirs and not (
            isinstance(mine, float)
            and isinstance(theirs, float)
            and math.isnan(mine)
            and math.isnan(theirs)
        ):
            return False
    return True


def service_from_settings(
    settings: "Settings",
    seed: int,
    scheme: "str | SchemeConfig" = "hdr",
    **service_kwargs,
) -> tuple[LiveService, ContactTrace]:
    """Build a service with the experiment runner's exact wiring.

    Generates the settings' trace realisation for ``seed`` (via the
    per-seed artifact cache) and wires the run through
    :func:`~repro.experiments.runner.prepare`, like ``run_once``, with
    one difference: the runtime's contact schedule starts *empty*.  The
    trace provides the node population and the MLE contact-rate
    estimate -- exactly the knowledge the batch path uses -- but its
    contacts arrive through the ingest pipeline, which is what makes
    replay equivalence hold.  Returns ``(service, trace)`` so the caller
    can replay the very trace the runtime was estimated from.
    """
    from repro.experiments.runner import (
        RunSpec,
        choose_sources,
        make_catalog,
        make_trace,
        prepare,
    )

    trace = make_trace(settings, seed)
    catalog = make_catalog(settings, choose_sources(trace, settings))
    empty = ContactTrace([], node_ids=trace.node_ids, name=f"{trace.name}:live")
    spec = RunSpec(settings, seed, scheme)
    with prepare(spec, empty, catalog, rates=mle_rates(trace)) as runtime:
        service = LiveService(runtime, spec, **service_kwargs)
    return service, trace


async def serve_and_score(service: LiveService, source) -> dict:
    """Serve ``source`` to exhaustion, finish, and score the run.

    The standard end-of-life sequence: closes the checkpointer (if any)
    after :meth:`~LiveService.finish`, so the final manifest -- written
    by the cache stage at end-of-stream -- stays ingest-consistent.
    """
    await service.serve(source)
    service.finish()
    await service.stop()
    if service.checkpointer is not None:
        service.checkpointer.close()
    return service.score()


async def replay(
    service: LiveService,
    contacts,
    dilation: float = math.inf,
    batch_size: int = 256,
) -> dict:
    """Serve ``contacts`` to exhaustion, finish, and score the run."""
    return await serve_and_score(
        service,
        ReplaySource(contacts, dilation=dilation, batch_size=batch_size),
    )


def replay_scores(
    settings: "Settings",
    seed: int,
    scheme: "str | SchemeConfig" = "hdr",
    dilation: float = math.inf,
    checkpoint=None,
    checkpoint_interval_s: Optional[float] = None,
    **service_kwargs,
) -> dict:
    """Build + replay + score in one blocking call (tests, bench).

    ``checkpoint`` (a directory) journals + manifests the run, so the
    durable-replay overhead can be measured against the plain replay
    with everything else identical.
    """
    service, trace = service_from_settings(
        settings, seed=seed, scheme=scheme, **service_kwargs
    )
    if checkpoint is not None:
        from repro.service.durability import BuildSpec

        spec = BuildSpec.from_settings(settings, seed=seed, scheme=scheme,
                                       **service_kwargs)
        service.enable_checkpointing(
            checkpoint, spec=spec, interval_s=checkpoint_interval_s
        )
    return asyncio.run(replay(service, trace, dilation=dilation))
