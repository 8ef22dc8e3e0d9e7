"""Run workloads for a time budget and report their metrics.

One *run* is one workload, one seed, one budget of wall seconds.  The
run repeats units -- unit ``k`` uses seed ``seed + k`` -- until the
next unit would overrun the budget (but at least
:data:`~bench.workloads.DIGEST_UNITS`), and reports the median over
units of each end-to-end metric:

``setup_s``
    from the unit's start until each simulation's event loop starts,
    summed over the unit's simulations (live: until the replay starts
    ingesting);
``wall_s``
    from the unit's start until its last output is scored;
``peak_rss_mb``
    peak resident memory of the run (live: of the bench process or the
    ``repro serve`` child, whichever is larger).

Beside them each run reports ``contacts_per_s``, the contacts executed
per second inside the event loops (the live workload's ingest rate),
and the live workload its query latencies.

Times are *reference seconds*.  Shared machines change speed by tens of
percent over seconds, so a fixed interpreter-bound loop
(:func:`calibrate`) is timed five times just before and five times just
after every unit, and the unit's times are scaled by ``REFERENCE_S /
median(loop times)``: on a machine running at the reference speed they
equal measured seconds, and a slow spell of the host cancels out
instead of reading as a regression.  The scale factors are kept in the
run's detail.

Only the executor loops are wrapped in an untraced run (one timestamp
pair per simulation).  A traced run measures each unit twice with the
same seed, untraced then with every layer wrapped; the pair gives the
tracing overhead and proves the wrappers passive (both outputs must be
identical), and the traced unit gives the per-layer metrics.

The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the ``end_to_end`` metrics of
``BENCHMARK.json`` untraced, its ``per_layer`` metrics traced.  The
full detail (every layer, the live workload's query metrics, checks
and the output digest) goes to ``bench/out/``.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.artifacts import cache_clear

from bench.compare import definition, machine
from bench.tracer import LAYER_TARGETS, LOOP_TARGETS, Tracer, chrome_trace
from bench.workloads import DIGEST_UNITS, WORKLOADS, Prepared, Unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def unit_seed(seed: int, k: int) -> int:
    return seed + k


#: seconds one calibration loop takes on the reference machine (a 2-vCPU
#: Intel Xeon VM running Python 3.11, at its quiet speed)
REFERENCE_S = 0.006


def calibrate() -> list[float]:
    """Seconds each of five runs of a fixed loop of heap pushes,
    dict stores and float arithmetic -- the simulator's mix of work --
    takes right now (about 6 ms each).

    Several short loops, of which the caller takes the median, shrug
    off a burst that one long loop would absorb.  The collector is off
    while they run, so the program's own collector settings cannot leak
    into the calibration."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            rng = random.Random(7)
            heap: list = []
            table: dict = {}
            for i in range(8_000):
                key = rng.random()
                heapq.heappush(heap, (key, i))
                table[i] = key * 2.0
                if len(heap) > 1000:
                    heapq.heappop(heap)
            for i in range(0, 8_000, 3):
                table.pop(i, None)
            times.append(time.perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


@dataclass
class Measured:
    """One unit, timed; every time in reference seconds."""

    seed: int
    unit: Unit
    #: reference seconds per measured second during this unit
    scale: float
    wall_s: float
    setup_s: float
    loop_s: float
    events: int
    contacts: float
    #: layer -> (calls, total s, self s); only the loops when untraced
    layers: dict = field(default_factory=dict)
    tallies: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def measure(workload, seed: int, tracer: Tracer, workdir: Path) -> Measured:
    """Run one unit under ``tracer`` and split its wall time."""
    cache_clear()
    gc.collect()
    tracer.reset()
    samples = calibrate()
    with tracer:
        start = time.perf_counter_ns()
        unit = workload.unit(seed, workdir)
        stop = time.perf_counter_ns()
    scale = REFERENCE_S / statistics.median(samples + calibrate())
    setup = loop = events = contacts = 0
    previous = start
    for _layer, begin, end, loop_events, loop_contacts in sorted(
            tracer.loops, key=lambda entry: entry[1]):
        setup += begin - previous
        loop += end - begin
        previous = end
        events += loop_events
        contacts += loop_contacts
    if not loop:
        raise RuntimeError(f"{workload.name}: a unit ran no event loop")
    to_s = scale / 1e9
    layers = {layer: (calls, total * scale, own * scale)
              for layer, (calls, total, own) in tracer.layers().items()}
    return Measured(seed, unit, scale, (stop - start) * to_s, setup * to_s,
                    loop * to_s, events, contacts, layers,
                    dict(tracer.tallies), list(tracer.spans))


def layer_metrics(m: Measured) -> dict[str, float]:
    """The ``per_layer`` metrics of one traced unit.

    These are the layers every workload exercises; the full layer table
    (routing, refresh handlers, the SoA loop, the service) is in the
    run's detail file."""

    def total(layer: str) -> float:
        return m.layers.get(layer, (0, 0.0, 0.0))[1]

    return {
        "mobility.synth_s": total("mobility.synth"),
        "contacts.estimate_s": total("contacts.estimate"),
        "contacts.centrality_s": total("contacts.centrality"),
        "caching.ncl.select_s": total("caching.ncl.select"),
        "core.hierarchy.tree_s": total("core.hierarchy.tree"),
        "core.replication.plan_s": total("core.replication.plan"),
        "core.scheme.build_self_s": m.layers.get(
            "core.scheme.build", (0, 0.0, 0.0))[2],
        "core.accounting.probe_s": total("core.accounting.probe"),
        "sim.loop_s": m.loop_s,
        "sim.events_per_s": m.events / m.loop_s,
        "analysis.score_s": total("analysis.score"),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _canonical(results) -> str:
    return json.dumps(results, sort_keys=True)


def _scrub(value):
    """Strict JSON: non-finite floats become ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    return value


def _peak_rss_mb(prepared: Prepared) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max(own, prepared.child_rss_mb)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 tiny: bool = False) -> dict:
    """One run; returns its detail record (see the module docstring)."""
    workload = WORKLOADS[name](tiny=tiny)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    loops, layers = Tracer(LOOP_TARGETS), Tracer(LAYER_TARGETS)
    try:
        started = time.perf_counter()
        prepared = workload.prepare(seed, seconds, workdir, traced)
        plain: list[Measured] = []
        deep: list[Measured] = []
        failures = list(prepared.failures)
        durations: list[float] = []
        while len(plain) < DIGEST_UNITS or (
                time.perf_counter() - started + _median(durations) <= seconds):
            began = time.perf_counter()
            k = len(plain)
            if traced and k % 2:
                # alternate which side runs first, so warm-up effects
                # cancel in the overhead median
                deep.append(measure(workload, unit_seed(seed, k), layers, workdir))
            plain.append(measure(workload, unit_seed(seed, k), loops, workdir))
            if traced and not k % 2:
                deep.append(measure(workload, unit_seed(seed, k), layers, workdir))
            if traced and (_canonical(deep[-1].unit.results)
                           != _canonical(plain[-1].unit.results)):
                failures.append(f"unit seed {unit_seed(seed, k)}: tracing "
                                "changed the outputs")
            durations.append(time.perf_counter() - began)
        rss_mb = _peak_rss_mb(prepared)
        units = [(m.seed, m.unit) for m in plain]
        failures += workload.check(prepared, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = hashlib.sha256(_canonical({
        "prepared": prepared.results,
        "units": [m.unit.results for m in plain[:DIGEST_UNITS]],
    }).encode()).hexdigest()
    end_to_end = {
        "setup_s": _median(m.setup_s for m in plain),
        "wall_s": _median(m.wall_s for m in plain),
        "peak_rss_mb": rss_mb,
    }
    extra = {"contacts_per_s": (_median(m.contacts / m.loop_s for m in plain),
                                "1/s"), **prepared.metrics}
    per_layer = {}
    if traced:
        per_unit = [layer_metrics(m) for m in deep]
        per_layer = {key: _median(u[key] for u in per_unit) for key in per_unit[0]}
        per_layer["trace.overhead_pct"] = _median(
            100.0 * (t.wall_s / p.wall_s - 1.0) for p, t in zip(plain, deep))
    spec = definition()

    def with_units(section: str, values: dict) -> dict:
        units = {row["name"]: row["unit"] for row in spec[section]}
        return {key: {"value": value, "unit": units[key]}
                for key, value in values.items()}

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "units": len(plain),
        "scale": _median(m.scale for m in plain),
        "correct": not failures,
        "attempted": prepared.attempted + sum(len(m.unit.results) for m in plain),
        "failed": prepared.failed + len(failures),
        "failures": failures,
        "digest": digest,
        "end_to_end": with_units("end_to_end", end_to_end),
        "per_layer": with_units("per_layer", per_layer),
        "extra_metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in extra.items()},
        "layers": _layer_table(deep) if traced else {},
        "child_layers": prepared.layers,
        "unit_extra": {key: _median(m.unit.extra[key] for m in plain)
                       for key in plain[0].unit.extra},
        "per_unit": [{"seed": m.seed, "scale": m.scale, "wall_s": m.wall_s,
                      "setup_s": m.setup_s, "loop_s": m.loop_s,
                      "events": m.events, "contacts": m.contacts}
                     for m in plain],
        "outputs": {"prepared": prepared.results,
                    "units": [m.unit.results for m in plain]},
        "spans": [span for m in deep for span in m.spans],
    }


def _layer_table(units: list[Measured]) -> dict[str, dict]:
    """Median calls, total and self time per layer over traced units."""
    names = sorted({layer for m in units for layer in m.layers})
    table = {}
    for layer in names:
        rows = [m.layers.get(layer, (0, 0.0, 0.0)) for m in units]
        table[layer] = {
            "calls": _median(r[0] for r in rows),
            "total_s": _median(r[1] for r in rows),
            "self_s": _median(r[2] for r in rows),
        }
    for key in sorted({key for m in units for key, n in m.tallies.items() if n}):
        table[key] = {"count": _median(m.tallies.get(key, 0) for m in units)}
    return table


def result_line(detail: dict) -> dict:
    """The JSON object that ends a run's output."""
    section = "per_layer" if detail["trace"] else "end_to_end"
    return {
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": detail[section],
    }


def detail_path(name: str, seed: int, traced: bool) -> Path:
    return OUT / f"{name}-s{seed}{'-trace' if traced else ''}.json"


def print_detail(detail: dict) -> None:
    mode = "traced" if detail["trace"] else "untraced"
    print(f"== {detail['workload']}  seed {detail['seed']}  {mode}  "
          f"{detail['units']} units in {detail['seconds']:g} s budget, "
          f"{detail['scale']:.3f} reference s per s")
    for name, metric in {**detail["end_to_end"], **detail["extra_metrics"],
                         **detail["per_layer"]}.items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    if detail["layers"]:
        print(f"  {'layer (median per unit)':34s} {'calls':>10s} "
              f"{'total s':>10s} {'self s':>10s}")
        for layer, row in detail["layers"].items():
            if "count" in row:
                print(f"  {layer:34s} {row['count']:>10.0f}")
            else:
                print(f"  {layer:34s} {row['calls']:>10.0f} "
                      f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}")
        for key, value in detail["unit_extra"].items():
            print(f"  {key:34s} {value:>10.6g}")
    for layer, (calls, total, own) in detail["child_layers"].items():
        print(f"  serve child {layer:22s} {calls:>10.0f} {total:>10.4f} {own:>10.4f}")
    status = "ok" if detail["correct"] else "FAILED"
    print(f"  checks {status}: {detail['attempted']} attempted, "
          f"{detail['failed']} failed")
    for failure in detail["failures"]:
        print(f"    {failure}")
    print(f"  digest {detail['digest']}")


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    """Driver mode: one workload in this process."""
    detail = run_workload(name, seed, seconds, traced)
    path = detail_path(name, seed, traced)
    spans = detail.pop("spans")
    if traced:
        trace_path = path.with_suffix(".trace.json")
        trace_path.write_text(json.dumps(
            chrome_trace(spans, f"{name} seed {seed}")), encoding="utf-8")
        print(f"  chrome trace {trace_path.relative_to(ROOT)}")
    path.write_text(json.dumps(_scrub(detail), indent=1), encoding="utf-8")
    print_detail(detail)
    print(json.dumps(result_line(detail)), flush=True)
    return 0


def run_suite(seeds: list[int], seconds: float, traced: bool,
              output: Path | None) -> int:
    """Every workload for every seed, each in a fresh process."""
    runs, ok = [], True
    for seed in seeds:
        for name in WORKLOADS:
            command = [sys.executable, "-m", "bench", "--workload", name,
                       "--seed", str(seed), "--seconds", f"{seconds:g}",
                       "--trace", "1" if traced else "0"]
            proc = subprocess.run(command, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                print(f"error: {name} seed {seed} exited {proc.returncode}")
                ok = False
                continue
            detail = json.loads(detail_path(name, seed, traced).read_text(
                encoding="utf-8"))
            ok &= detail["correct"]
            runs.append(detail)
    print("== summary")
    for detail in runs:
        shown = {**detail["end_to_end"], **detail["extra_metrics"]}
        if traced:
            shown = {key: detail["per_layer"][key]
                     for key in ("sim.loop_s", "sim.events_per_s",
                                 "trace.overhead_pct")}
        cells = ", ".join(f"{key} {m['value']:.4g} {m['unit']}"
                          for key, m in shown.items()
                          if not key.startswith(("service.", "bench.")))
        print(f"  {detail['workload']:14s} s{detail['seed']}: {cells}")
        print(f"  {'':14s} digest {detail['digest'][:16]}  "
              f"{'ok' if detail['correct'] else 'FAILED'}")
    if output is not None:
        output.write_text(json.dumps({"machine": machine(), "runs": runs},
                                     indent=1), encoding="utf-8")
        print(f"wrote {output}")
    return 0 if ok else 1
