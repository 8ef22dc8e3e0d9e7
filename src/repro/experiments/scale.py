"""Scaling point: events/sec, build split and peak RSS at a node count.

How fast does one process chew through contact events as the population
grows?  This module measures it for both simulation backends on a
synthetic sparse contact schedule whose size is controlled by
``--nodes`` -- up to metro scale (100k-1M nodes), far beyond what the
paper's ~100-node traces exercise.

Each measurement should run in its own process (``python -m
repro.experiments.scale --nodes N --backend soa --json``): peak RSS is
read from ``getrusage`` and is a process-lifetime high-water mark, so
points measured in a shared process would contaminate each other.
``benchmarks/test_scale_rss.py`` does exactly this to hold the 250k-node
soa build under its peak-RSS ceiling.

The build phase is timed in three stages -- synthesis (drawing the
contact schedule), estimation (pairwise MLE rates) and construction
(NCL selection, trees, relay plans, the event stream) -- and the result
carries both the split and a ``build_contacts_per_sec`` throughput.  The
schedule is always drawn as a
:class:`~repro.mobility.arrays.ContactArrays` trace; the ``soa`` backend
runs the whole build array-natively on it, and the ``object`` backend,
which cannot consume arrays, builds from its ``Contact`` objects (the two
produce identical simulations -- the equivalence tests rely on it).  The
points draw uniform random pairs, so they carry almost no protocol
traffic: they measure the executor, not the scheme.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Optional

import numpy as np

from repro.caching.items import DataCatalog
from repro.contacts.rates import mle_rates
from repro.mobility.arrays import ContactArrays
from repro.mobility.trace import ContactTrace

DAY = 24 * 3600.0

#: Mean contact duration of the synthetic schedule (seconds).
CONTACT_DURATION = 300.0


def synthetic_arrays(
    num_nodes: int,
    contacts_per_node: float = 20.0,
    duration: float = 2 * DAY,
    seed: int = 0,
) -> ContactArrays:
    """A sparse random contact schedule over ``num_nodes`` devices.

    Pairs are uniform (an Erdos-Renyi style mixing pattern -- adequate
    for throughput measurement, which only cares about event volume and
    how many events touch protocol-active nodes).  Every node id in
    ``range(num_nodes)`` exists even if it drew no contacts.
    """
    rng = np.random.default_rng(seed)
    total = int(num_nodes * contacts_per_node / 2)
    a = rng.integers(0, num_nodes, total)
    b = rng.integers(0, num_nodes - 1, total)
    b = b + (b >= a)  # distinct endpoint without rejection sampling
    start = rng.uniform(0.0, duration, total)
    length = rng.exponential(CONTACT_DURATION, total)
    end = np.minimum(start + np.maximum(length, 1.0), duration + CONTACT_DURATION)
    return ContactArrays(
        start, end, a, b,
        node_ids=np.arange(num_nodes),
        name=f"synthetic-{num_nodes}",
    )


def synthetic_trace(
    num_nodes: int,
    contacts_per_node: float = 20.0,
    duration: float = 2 * DAY,
    seed: int = 0,
) -> ContactTrace:
    """:func:`synthetic_arrays` as ``Contact`` objects."""
    return synthetic_arrays(num_nodes, contacts_per_node, duration,
                            seed).to_trace()


def _pick_sources(trace: ContactArrays, num_sources: int) -> list[int]:
    """Median-degree nodes, mirroring ``choose_sources``' intent (the
    sources are ordinary devices, not hubs) without the full centrality
    machinery."""
    degree = (
        np.bincount(trace.a, minlength=trace.num_nodes)
        + np.bincount(trace.b, minlength=trace.num_nodes)
    ).astype(np.int64)
    ranked = np.argsort(-degree, kind="stable")
    mid = len(ranked) // 2
    half = num_sources // 2
    picked = ranked[mid - half:mid - half + num_sources]
    return sorted(int(n) for n in picked)


def run_scale_point(
    num_nodes: int,
    backend: str = "soa",
    scheme: str = "hdr",
    seed: int = 0,
    contacts_per_node: float = 20.0,
    duration: float = 2 * DAY,
    num_caching_nodes: int = 12,
    num_items: int = 4,
    num_sources: int = 2,
    probe_interval: float = 600.0,
) -> dict:
    """Build + run one (node count, backend) measurement; returns the
    JSON-ready result dict.

    The soa backend builds from :func:`synthetic_arrays`, the object
    backend from their ``Contact`` objects.
    """
    from repro.core.scheme import build_simulation

    t0 = time.perf_counter()
    arrays = synthetic_arrays(
        num_nodes, contacts_per_node=contacts_per_node,
        duration=duration, seed=seed,
    )
    trace = arrays if backend == "soa" else arrays.to_trace()
    t1 = time.perf_counter()
    sources = _pick_sources(arrays, num_sources)
    catalog = DataCatalog.uniform(
        num_items=num_items,
        sources=sources,
        refresh_interval=4 * 3600.0,
        lifetime=12 * 3600.0,
    )
    rates = mle_rates(trace)
    t2 = time.perf_counter()
    runtime = build_simulation(
        trace,
        catalog,
        scheme=scheme,
        num_caching_nodes=num_caching_nodes,
        rates=rates,
        seed=seed,
        refresh_jitter=0.25,
        backend=backend,
    )
    runtime.install_freshness_probe(interval=probe_interval, until=duration)
    t3 = time.perf_counter()
    runtime.run(until=duration)
    t4 = time.perf_counter()

    if backend == "soa":
        events = runtime.events_processed
    else:
        events = runtime.sim.events_executed
    fresh, valid, total = runtime.freshness_snapshot()
    contacts = len(trace)
    build_total = t3 - t0
    run_s = t4 - t3
    return {
        "nodes": num_nodes,
        "backend": backend,
        "scheme": scheme,
        "seed": seed,
        "contacts": contacts,
        "events": int(events),
        "trace_gen_s": round(t1 - t0, 3),
        "estimate_s": round(t2 - t1, 3),
        "build_s": round(t3 - t2, 3),
        "build_total_s": round(build_total, 3),
        "build_contacts_per_sec": round(contacts / build_total, 1)
        if build_total > 0 else None,
        "run_s": round(run_s, 3),
        "events_per_sec": round(events / run_s, 1) if run_s > 0 else None,
        "messages": runtime.refresh_overhead(),
        "freshness": round(fresh / total, 4) if total else None,
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="One scaling-benchmark point (run in a fresh process "
        "so peak RSS is attributable)."
    )
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--backend", choices=("object", "soa"), default="soa")
    parser.add_argument("--scheme", default="hdr")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--contacts-per-node", type=float, default=20.0)
    parser.add_argument("--days", type=float, default=2.0)
    parser.add_argument("--json", action="store_true", help="emit one JSON dict")
    args = parser.parse_args(argv)
    result = run_scale_point(
        args.nodes,
        backend=args.backend,
        scheme=args.scheme,
        seed=args.seed,
        contacts_per_node=args.contacts_per_node,
        duration=args.days * DAY,
    )
    if args.json:
        json.dump(result, sys.stdout)
        sys.stdout.write("\n")
    else:
        for key, value in result.items():
            print(f"{key:15s}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
