"""Benchmark: parallel sweep vs the serial loop.

The equality asserts are the load-bearing part -- a parallel run must
merge byte-identically to serial.  Wall-clock is measured and reported
but only *compared* when the machine actually has more than one CPU
(on a single-core host the pool can only add overhead, so asserting a
speedup there would test the container, not the code).
"""

import time

import pytest

from repro.experiments.artifacts import cache_clear
from repro.experiments.config import Settings
from repro.experiments.parallel import available_cpus
from repro.experiments.runner import run_replicated

SCHEMES = ("hdr", "flooding", "random", "source")


def _identical(serial, parallel):
    assert serial.keys() == parallel.keys()
    for scheme in serial:
        assert len(serial[scheme]) == len(parallel[scheme])
        for a, b in zip(serial[scheme], parallel[scheme]):
            assert a.same_as(b)


def test_parallel_sweep_matches_serial(benchmark):
    settings = Settings.fast().with_(seeds=(1, 2, 3, 4))

    cache_clear()
    start = time.perf_counter()
    serial = run_replicated(SCHEMES, settings, jobs=1)
    serial_seconds = time.perf_counter() - start

    def parallel_sweep():
        cache_clear()
        return run_replicated(SCHEMES, settings, jobs=4)

    parallel = benchmark.pedantic(parallel_sweep, rounds=1, iterations=1)
    _identical(serial, parallel)

    parallel_seconds = benchmark.stats.stats.mean
    if available_cpus() >= 4:
        assert parallel_seconds < serial_seconds  # 16 jobs over 4 workers


@pytest.mark.parametrize("jobs", [2])
def test_parallel_overhead_small_workload(benchmark, jobs):
    """Tiny workloads go through the pool correctly too (the speedup is
    not expected here -- this guards dispatch overhead and correctness)."""
    settings = Settings.fast()
    serial = run_replicated(("hdr",), settings, jobs=1)
    parallel = benchmark.pedantic(
        run_replicated, args=(("hdr",), settings),
        kwargs={"jobs": jobs}, rounds=1, iterations=1,
    )
    _identical(serial, parallel)
