"""Load generator for the live service.

Open-loop arrivals: query times are drawn up front as a Poisson process
at the target rate, and each query fires at its scheduled wall-clock
instant whether or not earlier queries have completed -- the honest way
to measure an online system (closed loops self-throttle and hide
overload).  Items follow the same Zipf popularity the batch workloads
use, through the cached-normalisation
:class:`~repro.workloads.popularity.ZipfPopularity` hot path.

:func:`generate_load` submits straight into a
:class:`~repro.service.runtime.LiveService` query queue; latency
percentiles come from the service's own ``MetricsRegistry`` histogram.
``repro loadgen`` (:func:`run_loadgen`) runs a self-contained smoke:
build a service, replay its trace, fire queries, print a report -- the
overload test runs it as a subprocess so peak RSS is attributable to the
service alone.  To load a running ``repro serve`` over HTTP, use the
benchmark's ``python -m bench --workload live-http``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import sys
from typing import Optional

import numpy as np

from repro.workloads.popularity import ZipfPopularity

#: wall seconds granted for in-flight queries to finish after the last
#: arrival has fired
_DRAIN_GRACE_S = 10.0

#: pacing granularity: arrivals due within one tick fire together
_TICK_S = 0.005


def _arrival_offsets(rate: float, duration: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Poisson arrival offsets in ``[0, duration)`` at ``rate`` per second."""
    if rate <= 0 or duration <= 0:
        return np.empty(0)
    chunks = []
    total = 0.0
    expected = max(int(rate * duration * 1.2) + 16, 32)
    while total < duration:
        gaps = rng.exponential(1.0 / rate, size=expected)
        chunks.append(gaps)
        total += float(gaps.sum())
    offsets = np.concatenate(chunks).cumsum()
    return offsets[offsets < duration]


async def generate_load(
    service,
    rate: float,
    duration: float,
    seed: int = 0,
    zipf_s: float = 0.8,
) -> dict:
    """Fire open-loop queries at an in-process service; return a report."""
    rng = np.random.default_rng(seed)
    offsets = _arrival_offsets(rate, duration, rng)
    popularity = ZipfPopularity(service.runtime.catalog.item_ids, s=zipf_s)
    items = popularity.sample_array(len(offsets), rng)

    completed = 0
    errors = 0
    shed = 0
    pending: set = set()

    def _done(future) -> None:
        nonlocal completed, errors
        pending.discard(future)
        if future.cancelled() or future.exception() is not None:
            errors += 1
        else:
            completed += 1

    loop = asyncio.get_running_loop()
    start = loop.time()
    index = 0
    n = len(offsets)
    while index < n:
        now = loop.time() - start
        while index < n and offsets[index] <= now:
            future = service.submit_query(int(items[index]))
            if future is None:
                shed += 1
            else:
                pending.add(future)
                future.add_done_callback(_done)
            index += 1
        if index >= n:
            break
        await asyncio.sleep(min(_TICK_S, offsets[index] - (loop.time() - start)))
    if pending:
        await asyncio.wait(pending, timeout=_DRAIN_GRACE_S)
        for future in pending:
            future.cancel()
    elapsed = loop.time() - start
    tally = service.query_latency
    return {
        "mode": "in-process",
        "offered": n,
        "completed": completed,
        "shed": shed,
        "errors": errors,
        "duration_s": elapsed,
        "target_qps": rate,
        "achieved_qps": completed / elapsed if elapsed > 0 else math.nan,
        "p50_ms": tally.percentile(50.0),
        "p95_ms": tally.percentile(95.0),
        "p99_ms": tally.percentile(99.0),
    }


# -- self-contained runner -------------------------------------------------


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (ru_maxrss)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB, macOS bytes.
    if sys.platform == "darwin":  # pragma: no cover
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def run_loadgen(
    profile: str = "small",
    days: float = 2.0,
    scheme: str = "hdr",
    seed: int = 1,
    rate: float = 2000.0,
    duration: float = 5.0,
    zipf_s: float = 0.8,
    query_queue: int = 1024,
    serve_rate: Optional[float] = None,
    dilation: float = math.inf,
) -> dict:
    """Build a service, replay its own trace, fire queries; one report.

    ``serve_rate`` throttles the query worker (a token bucket), which is
    how the overload checks saturate the bounded queue deterministically
    regardless of how fast the host machine is.
    """
    from repro.experiments.config import DAY, Settings
    from repro.service.runtime import service_from_settings
    from repro.service.sources import ReplaySource

    settings = Settings.fast().with_(
        profile=profile, duration=days * DAY, seeds=(seed,)
    )
    service, trace = service_from_settings(
        settings,
        seed=seed,
        scheme=scheme,
        query_queue=query_queue,
        serve_rate=serve_rate,
    )

    async def _run() -> dict:
        source = ReplaySource(trace, dilation=dilation)
        await service.start()
        ingest = asyncio.ensure_future(service.serve(source))
        try:
            report = await generate_load(
                service, rate=rate, duration=duration,
                seed=seed + 1000, zipf_s=zipf_s,
            )
        finally:
            source.stop.set()
            await ingest
            await service.stop()
        return report

    report = asyncio.run(_run())
    counters = service.stats.counters()
    report.update(
        scheme=scheme,
        seed=seed,
        profile=profile,
        contacts_ingested=counters.get("service.contacts.ingested", 0),
        service_served=counters.get("service.queries.served", 0),
        service_shed=counters.get("service.queries.shed", 0),
        sim_time=service.runtime.sim.now,
        peak_rss_mb=peak_rss_mb(),
    )
    return report


def format_report(report: dict) -> str:
    lines = [
        f"loadgen ({report['mode']}): "
        f"{report['achieved_qps']:,.0f} q/s achieved "
        f"(target {report['target_qps']:,.0f}) over {report['duration_s']:.2f}s",
        f"  offered {report['offered']}, completed {report['completed']}, "
        f"shed {report['shed']}, errors {report['errors']}",
        f"  latency ms: p50 {report['p50_ms']:.3f}  "
        f"p95 {report['p95_ms']:.3f}  p99 {report['p99_ms']:.3f}",
        f"  contacts ingested {report['contacts_ingested']:.0f}, "
        f"sim time {report['sim_time']:.0f}s, "
        f"peak RSS {report['peak_rss_mb']:.1f} MB",
    ]
    return "\n".join(lines)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro loadgen`` flags."""
    parser.add_argument("--profile", default="small")
    parser.add_argument("--days", type=float, default=2.0)
    parser.add_argument("--scheme", default="hdr")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="target queries per second")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="wall seconds of load")
    parser.add_argument("--zipf", type=float, default=0.8)
    parser.add_argument("--query-queue", type=int, default=1024)
    parser.add_argument("--serve-rate", type=float, default=None,
                        help="throttle the query worker to N served/s "
                        "(overload testing)")
    parser.add_argument("--dilation", default="inf",
                        help="replay sim-seconds per wall second "
                        "(number or 'inf')")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")


def run_from_args(args: argparse.Namespace) -> int:
    report = run_loadgen(
        profile=args.profile,
        days=args.days,
        scheme=args.scheme,
        seed=args.seed,
        rate=args.rate,
        duration=args.duration,
        zipf_s=args.zipf,
        query_queue=args.query_queue,
        serve_rate=args.serve_rate,
        dilation=float(args.dilation),
    )
    if args.json:
        print(json.dumps(report))
    else:
        print(format_report(report))
    return 0
