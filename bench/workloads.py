"""The benchmark's four workloads.

Each workload is repeated in *units*: one unit is one complete piece of
user-visible work (a registry scenario swept to scored metrics, one
metro-scale pair of runs, one durable live replay), made from a unit
seed.  :mod:`bench.run` repeats units until the run's time budget is
spent and reports medians over them.

A unit calls the program only through its public API -- the scenario
registry, ``run_sweep``, ``build_simulation``, ``service_from_settings``
and ``replay`` -- and the live workload also drives the ``repro serve``
command.  :meth:`Workload.check` verifies the outputs outside the timed
window.

Why these four (see ``bench/README.md`` for the measured shares):

* ``paper-queries`` -- the paper's own evaluation, the only workload
  that runs the query plane (routing and response forwarding dominate);
* ``refresh-sweep`` -- all six refresh schemes with a 1-minute probe:
  refresh handlers, freshness accounting and simulation builds;
* ``metro-soa`` -- a 1000-node community trace on the vectorised
  executor with real refresh traffic: synthesis and the SoA loop;
* ``live-http`` -- the live service: queries over HTTP beside paced
  ingest, then write-only durable replays.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from repro.analysis.metrics import freshness_summary, refresh_outcomes
from repro.caching.items import DataCatalog
from repro.contacts.intercontact import (
    aggregate_intercontact_samples,
    fit_exponential,
    ks_distance,
)
from repro.contacts.rates import mle_rates
from repro.core.scheme import build_simulation, scheme_variant
from repro.experiments.config import DAY, HOUR, Settings
from repro.experiments.parallel import run_sweep
from repro.experiments.runner import choose_sources, make_catalog, make_trace, run_once
from repro.mobility.community import CommunityModel
from repro.scenarios.compose import compose_scenario
from repro.scenarios.registry import load_scenario
from repro.service.durability import BuildSpec
from repro.service.runtime import replay, scores_match, service_from_settings
from repro.theory import FreshnessModel, agreement_band

from bench import loadgen

HERE = Path(__file__).resolve().parent

#: units whose outputs the digest covers; every run measures at least
#: this many, so traced and untraced runs of one seed digest alike
DIGEST_UNITS = 2


@dataclass
class Unit:
    """What one unit produced."""

    #: scored outputs in a fixed order (the digest's input)
    results: list[dict]
    #: per-unit counts for the layer table
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class Prepared:
    """What a workload measured before its units (live phase A)."""

    results: list[dict] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, list] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: child-process peak RSS in MB
    child_rss_mb: float = 0.0


def _check_run(result: dict, where: str) -> Optional[str]:
    """The output check every simulation run must pass."""
    if not result["messages"] > 0:
        return f"{where}: {result['scheme']} sent no refresh messages"
    if not 0.0 < result["freshness"] <= 1.0:
        return (f"{where}: {result['scheme']} freshness "
                f"{result['freshness']!r} outside (0, 1]")
    return None


def _score(runtime, catalog: DataCatalog, horizon: float) -> dict:
    """Score a finished runtime the way ``run_once`` does (the first
    tenth of the horizon is warm-up)."""
    fresh = freshness_summary(runtime, t0=0.1 * horizon, t1=horizon)
    refresh = refresh_outcomes(
        runtime.update_log, runtime.history, catalog, runtime.caching_nodes,
        horizon=horizon, messages=runtime.refresh_overhead(),
    )
    return {
        "scheme": runtime.config.name,
        "freshness": fresh.freshness,
        "validity": fresh.validity,
        "messages": refresh.messages,
        "messages_per_update": refresh.messages_per_update,
        "on_time_ratio": refresh.on_time_ratio,
        "refresh_delay": refresh.mean_delay,
    }


class Workload:
    """One benchmark workload; ``tiny`` shrinks it for tests."""

    name = ""

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny

    def prepare(self, seed: int, seconds: float, workdir: Path,
                traced: bool) -> Prepared:
        """Work done once per run before the units (none by default)."""
        return Prepared()

    def unit(self, seed: int, workdir: Path) -> Unit:
        raise NotImplementedError

    def check(self, prepared: Prepared,
              units: list[tuple[int, Unit]]) -> list[str]:
        """Failed output checks, one message per failed operation."""
        failures = []
        for seed, unit in units:
            for result in unit.results:
                failure = _check_run(result, f"unit seed {seed}")
                if failure:
                    failures.append(failure)
        return failures


class ScenarioWorkload(Workload):
    """A registry scenario: TOML -> ``load_scenario`` ->
    ``compose_scenario`` -> ``run_sweep(jobs=1)``, one seed per unit."""

    #: overrides of the tiny variant (the 20-node profile, three days)
    TINY = dict(profile="small", duration=3 * DAY, refresh_interval=3 * HOUR,
                num_caching_nodes=5, num_items=4, num_sources=1)

    def points(self, seed: int) -> list:
        _, points = compose_scenario(
            load_scenario(HERE / "scenarios" / f"{self.name}.toml"))
        overrides = dict(seeds=(seed,), **(self.TINY if self.tiny else {}))
        return [replace(p, settings=p.settings.with_(**overrides))
                for p in points]

    def unit(self, seed: int, workdir: Path) -> Unit:
        points = self.points(seed)
        merged = run_sweep(points, jobs=1)
        results = [
            asdict(metrics)
            for point, runs in zip(points, merged)
            for scheme in point.schemes
            for metrics in runs[scheme]
        ]
        return Unit(results)


class PaperQueries(ScenarioWorkload):
    name = "paper-queries"

    def check(self, prepared, units):
        failures = super().check(prepared, units)
        for seed, unit in units:
            for result in unit.results:
                if not (result["queries_issued"] > 0
                        and result["query_answer_ratio"] > 0):
                    failures.append(f"unit seed {seed}: {result['scheme']} "
                                    "issued or answered no queries")
        return failures


class RefreshSweep(ScenarioWorkload):
    name = "refresh-sweep"

    #: the RunMetrics fields the analytical model predicts (as in E16)
    MODEL_METRICS = ("freshness", "validity", "on_time_ratio")

    def check(self, prepared, units):
        """Every run's output check, plus the E16 oracle on the hdr runs
        of the digest units: the mean model error of each predicted
        metric stays inside the mean KS agreement band of the traces.

        The oracle is applied to the mean over runs, as E16 applies it;
        single runs stray outside the band a few percent of the time."""
        failures = super().check(prepared, units)
        errors = {name: [] for name in self.MODEL_METRICS}
        bands = []
        for seed, unit in units[:DIGEST_UNITS]:
            (point,) = self.points(seed)
            settings = point.settings
            trace = make_trace(settings, seed)
            samples = aggregate_intercontact_samples(
                trace, normalise=True, min_gaps_per_pair=3)
            bands.append(agreement_band(
                ks_distance(samples, fit_exponential(samples))))
            runtime = build_simulation(
                trace, make_catalog(settings, choose_sources(trace, settings)),
                scheme="hdr", num_caching_nodes=settings.num_caching_nodes,
                seed=seed, refresh_jitter=settings.refresh_jitter,
            )
            predicted = FreshnessModel.from_runtime(runtime).predict().summary()
            measured = next(r for r in unit.results if r["scheme"] == "hdr")
            for name in self.MODEL_METRICS:
                errors[name].append(predicted[name] - measured[name])
        band = statistics.fmean(bands)
        for name, diffs in errors.items():
            error = abs(statistics.fmean(diffs))
            if not error <= band:
                failures.append(f"hdr {name}: model error {error:.3f} "
                                f"outside the agreement band {band:.3f}")
        return failures


class MetroSoa(Workload):
    """Population scale on the vectorised executor.

    Caching nodes, items and sources grow with the population (N/100,
    N/500, N/1000), so refresh traffic grows with it.
    """

    name = "metro-soa"

    def unit(self, seed: int, workdir: Path) -> Unit:
        nodes, days = (200, 2.0) if self.tiny else (1000, 7.0)
        horizon = days * DAY
        rng = np.random.default_rng(seed)
        model = CommunityModel(
            n=nodes, num_communities=nodes // 50, intra_rate=2e-5,
            inter_rate=5e-8, rng=rng, mean_duration=300.0,
            hub_fraction=0.08, hub_multiplier=5.0, name="metro",
        )
        arrays = model.generate_arrays(horizon, rng)
        rates = mle_rates(arrays)
        degree = (np.bincount(arrays.a, minlength=nodes)
                  + np.bincount(arrays.b, minlength=nodes))
        ranked = np.argsort(-degree, kind="stable")
        middle = len(ranked) // 2
        sources = sorted(
            int(n) for n in ranked[middle:middle + max(1, nodes // 1000)])
        catalog = DataCatalog.uniform(
            num_items=max(1, nodes // 500), sources=sources,
            refresh_interval=12 * HOUR, lifetime=24 * HOUR,
        )
        results = []
        active = set(sources)
        for scheme in (scheme_variant("hdr", fanout=4), "flooding"):
            runtime = build_simulation(
                arrays, catalog, scheme=scheme, num_caching_nodes=nodes // 100,
                rates=rates, seed=seed, backend="soa",
            )
            runtime.install_freshness_probe(interval=1800.0, until=horizon)
            runtime.run(until=horizon)
            results.append(_score(runtime, catalog, horizon))
            if scheme != "flooding":
                active.update(runtime.caching_nodes)
                for plan in runtime.plans.values():
                    active.update(plan.relays)
        touched = np.isin(arrays.a, sorted(active)) | np.isin(arrays.b, sorted(active))
        protocol = int(touched.sum())
        return Unit(results, {
            "core.soa.protocol_events": protocol,
            "core.soa.protocol_frac": protocol / max(1, len(arrays)),
        })

    def check(self, prepared, units):
        failures = super().check(prepared, units)
        for seed, unit in units:
            hdr, flooding = unit.results
            if flooding["freshness"] < hdr["freshness"]:
                failures.append(f"unit seed {seed}: flooding freshness "
                                f"{flooding['freshness']:.4f} below hdr "
                                f"{hdr['freshness']:.4f}")
            if not unit.extra["core.soa.protocol_events"] > 0:
                failures.append(f"unit seed {seed}: no protocol events")
        return failures


class LiveHttp(Workload):
    """Phase A: queries over HTTP against ``repro serve`` while it
    replays a trace at a paced dilation (reads beside paced writes).
    Phase B (the units): in-process durable replays at infinite
    dilation (writes only).  Both phases use the settings ``repro
    serve`` builds: the fast preset on the Reality profile."""

    name = "live-http"

    #: query load of phase A: open-loop Poisson, over keep-alive sockets
    RATE, CONNECTIONS = 2000.0, 2
    #: the paced replay outlasts the load by this many wall seconds, so
    #: every query is sent while the service is still ingesting
    REPLAY_MARGIN_S = 2.0

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        self.profile, self.days = ("small", 1.0) if tiny else ("reality", 21.0)

    def settings(self, seed: int) -> Settings:
        return Settings.fast().with_(profile=self.profile,
                                     duration=self.days * DAY, seeds=(seed,))

    def prepare(self, seed, seconds, workdir, traced):
        load_s = max(1.0, 0.3 * seconds)
        dilation = self.days * DAY / (load_s + self.REPLAY_MARGIN_S)
        score_path = workdir / "phase-a-score.json"
        layers_path = workdir / "phase-a-layers.json"
        serve = ["serve", "--profile", self.profile, "--days", str(self.days),
                 "--seed", str(seed), "--dilation", repr(dilation),
                 "--http", "127.0.0.1:0",
                 "--checkpoint", str(workdir / "phase-a-checkpoint"),
                 "--score-json", str(score_path)]
        runner = (["-m", "bench.child", str(layers_path)] if traced
                  else ["-m", "repro.cli"])
        root = HERE.parent
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        rate = self.RATE / 10 if self.tiny else self.RATE
        report = asyncio.run(loadgen.serve_under_load(
            [sys.executable, *runner, *serve], env, str(root), load_s, rate,
            self.CONNECTIONS, seed))
        score = json.loads(score_path.read_text(encoding="utf-8"))
        prepared = Prepared(results=[{"seed": seed, **score}])
        latency, late = report["latency_ms"], report["late_ms"]
        stages = report["service_metrics"]["histograms"]
        gauges = report["service_metrics"]["gauges"]
        prepared.metrics = {
            "query_p50_ms": (float(np.percentile(latency, 50)), "ms"),
            "query_p99_ms": (float(np.percentile(latency, 99)), "ms"),
            "query_samples": (float(len(latency)), "count"),
            "serve_ready_s": (report["ready_s"], "s"),
            "bench.gen_late_p99_ms": (float(np.percentile(late, 99)), "ms"),
            "bench.gen_cpu_s": (report["gen_cpu_s"], "s"),
            **{f"{name}.p99_ms": (summary["p99"], "ms")
               for name, summary in stages.items()
               if name.startswith("service.stage.")},
            **{name: (value, "count") for name, value in gauges.items()
               if name.endswith(".peak")},
        }
        contacts = report["contacts"]
        prepared.attempted = report["offered"] + 1
        prepared.failed = report["failed"] + contacts["late"] + contacts["unknown"]
        if contacts["late"] or contacts["unknown"]:
            prepared.failures.append(
                f"phase A: {contacts['late']} late and {contacts['unknown']} "
                "unknown contacts")
        if traced:
            prepared.layers = json.loads(
                layers_path.read_text(encoding="utf-8"))["layers"]
        prepared.child_rss_mb = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
        return prepared

    def unit(self, seed: int, workdir: Path) -> Unit:
        settings = self.settings(seed)
        directory = workdir / f"replay-{seed}"
        shutil.rmtree(directory, ignore_errors=True)
        service, trace = service_from_settings(settings, seed=seed)
        service.enable_checkpointing(
            directory, spec=BuildSpec.from_settings(settings, seed=seed,
                                                    scheme="hdr"))
        score = asyncio.run(replay(service, trace))
        counters = service.stats.counters()
        return Unit([{"scheme": "hdr", **score}], {
            "service.contacts.ingested": counters.get("service.contacts.ingested", 0),
            "service.contacts.late": counters.get("service.contacts.shed_late", 0),
            "service.contacts.unknown": counters.get("service.contacts.shed_unknown", 0),
            "service.journal_bytes": service.checkpointer.journal.bytes_written,
        })

    def check(self, prepared, units):
        failures = super().check(prepared, units)
        served = [(result["seed"], "phase A", result)
                  for result in prepared.results]
        served += [(seed, "replay", unit.results[0]) for seed, unit in units]
        for seed, where, score in served:
            settings = self.settings(seed)
            batch = run_once(make_trace(settings, seed), "hdr", settings, seed)
            if not scores_match(score, batch):
                failures.append(f"{where} seed {seed}: score differs from the "
                                "batch run_once score")
        for seed, unit in units:
            if unit.extra["service.contacts.late"] or unit.extra["service.contacts.unknown"]:
                failures.append(f"replay seed {seed}: late or unknown contacts")
        return failures


WORKLOADS = {cls.name: cls for cls in (PaperQueries, RefreshSweep, MetroSoa, LiveHttp)}
