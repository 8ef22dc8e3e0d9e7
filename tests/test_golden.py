"""Golden outputs: per-seed run metrics, first answers and the trace
digest of every contact generator (the calibrated profiles, and the
models no profile is built on).

``golden.json`` was recorded when every optimised build and accounting
path still had a scalar twin behind a module switch -- array rate
estimation, array NCL selection, vectorised tree and relay planning,
the indexed task drain, watermarked gossip, the O(1) freshness probe
and vectorised trace assembly -- and the default run and the all-scalar
run produced exactly these numbers.  The file stands in for those twins
as the oracle: a change that moves any output fails here.

``RunMetrics`` keeps only ratios and a mean delay, so the ``queries``
section also pins every first answer: per scenario, a SHA-256 over each
``QueryRecord``'s requester, item, issue and answer times, version,
version time and server, in issue order.  Query ids stay out of it,
because they come from a process-wide counter.

Three more sections pin what the query plane does around those answers:
``faults`` holds the ``RunMetrics`` and first answers of the ``fast``
world under a fault plan of crashes, link flaps and source outages;
``transfers`` the transfer count per message kind of every run of the
``fast`` and ``dense`` worlds, so a change that sends more responses
fails here; and ``onpath-caching`` the ``RunMetrics`` of the committed
scenario whose custody stores fill from the response copies in flight.

A change that is meant to move outputs rewrites the file with
``PYTHONPATH=src python -m tests.test_golden`` and says why.
"""

import hashlib
import json
import math
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from repro.core.scheme import SCHEMES
from repro.experiments.config import DAY, Settings
from repro.experiments.runner import RunMetrics, RunSpec, make_trace, prepare, score
from repro.faults.plan import plan_from_dict
from repro.mobility.calibration import get_profile
from repro.scenarios.compose import compose_scenario
from repro.scenarios.registry import load_scenario
from tests.query_plane import QueryPlaneMonitor
from tests.test_vectorised_build import MODEL_FACTORIES

GOLDEN = Path(__file__).with_name("golden.json")
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: Two scenarios: the small CI world, and the same trace family with
#: paper-scale caching-node and item counts probed every minute, which
#: keeps many refresh tasks and gossip watermarks live at once.
SCENARIOS = {
    "fast": Settings.fast().with_(duration=2 * DAY),
    "dense": Settings.fast().with_(
        seeds=(1,), num_caching_nodes=12, num_items=6, num_sources=2,
        probe_interval=60.0,
    ),
}

#: Worlds whose first answers are pinned: the two above, and a
#: committed scenario whose queries follow a diurnal cycle with a flash
#: crowd.
QUERY_SCENARIOS = ("dense", "fast", "flash-crowd")

#: The ``faults`` world is the ``fast`` one under this plan: the
#: ``[crashes]`` (over every node), ``[links]`` and ``[sources]`` tables
#: of ``examples/faults/harsh.toml``.  Its ``[messages]`` table stays
#: out, because message loss draws once per admitted transfer, so its
#: draws shift whenever the number of transfers does.
FAULT_PLAN = plan_from_dict({
    "crashes": {"rate_per_day": 1.0, "mean_downtime_s": 7200.0,
                "scope": "all", "cache": "wipe"},
    "links": {"flap_rate": 0.2, "min_cut_fraction": 0.25,
              "degrade_factor": 0.75},
    "sources": {"outage_rate_per_day": 0.5, "mean_outage_s": 10800.0},
})

#: The committed scenario pinned by its ``RunMetrics`` alone: on-path
#: custody caches the response copies that pass, so its metrics move
#: with response traffic.
ONPATH = "onpath-caching"

#: Calibrated profiles, each drawn with ``default_rng(1)`` over its
#: default horizon: three on the community generator, and ``vehicular``
#: on the Levy walk.
PROFILES = ("infocom06", "reality", "small", "vehicular")

#: The models no profile is built on, drawn with their
#: ``MODEL_FACTORIES`` parameters over 12 hours from ``default_rng(42)``.
MODELS = ("rwp", "workingday")


def scenario_specs(scenario: str):
    """Yield ``(spec, trace)`` for every run of ``scenario``.

    A golden world runs every registered scheme, queries on, per seed
    (the ``faults`` world: ``fast`` under :data:`FAULT_PLAN`); a
    committed scenario runs its sweep points as ``repro scenario run``
    does (``trace`` ``None``: the seed's cached trace).
    """
    plan = None
    if scenario == "faults":
        scenario, plan = "fast", FAULT_PLAN
    if scenario in SCENARIOS:
        settings = SCENARIOS[scenario]
        for seed in settings.seeds:
            trace = make_trace(settings, seed)
            for scheme in SCHEMES:
                yield RunSpec(settings, seed, scheme, with_queries=True,
                              fault_plan=plan), trace
        return
    _, points = compose_scenario(load_scenario(SCENARIO_DIR / f"{scenario}.toml"))
    for point in points:
        for seed in point.settings.seeds:
            for scheme in point.schemes:
                yield point.spec(seed, scheme), None


def first_answer_line(record) -> str:
    return (f"{record.requester} {record.item_id} {record.issued_at!r} "
            f"{record.answered_at!r} {record.version} "
            f"{record.version_time!r} {record.served_by}\n")


@cache
def outputs(scenario: str) -> tuple[list[dict], dict, list[str], list[dict]]:
    """``RunMetrics`` rows, the first-answer digest, the query-plane
    invariant violations and the transfers by kind of every run of
    ``scenario``, from one pass."""
    rows, violations, transfers = [], [], []
    digest = hashlib.sha256()
    count = 0
    for spec, trace in scenario_specs(scenario):
        with prepare(spec, trace) as runtime:
            monitor = QueryPlaneMonitor(runtime)
            runtime.run(until=spec.settings.duration)
        rows.append(asdict(score(runtime, spec)))
        for record in runtime.query_records():
            digest.update(first_answer_line(record).encode())
            count += 1
        violations += [f"seed {spec.seed} {runtime.config.name}: {v}"
                       for v in monitor.check()]
        sent = {name.removeprefix("net.transfers."): int(value)
                for name, value in runtime.stats.counters().items()
                if name.startswith("net.transfers.")}
        transfers.append({"scheme": runtime.config.name, "seed": spec.seed,
                          **sent})
    answers = {"queries": count, "sha256": digest.hexdigest()}
    return rows, answers, violations, transfers


def run_metrics(scenario: str) -> list[dict]:
    """``RunMetrics`` of every registered scheme, queries on, per seed."""
    return outputs(scenario)[0]


def trace_digest(name: str) -> dict:
    """Contact count and SHA-256 over node ids and every contact of the
    profile or model ``name``."""
    if name in PROFILES:
        trace = get_profile(name).generate(np.random.default_rng(1))
    else:
        trace = MODEL_FACTORIES[name]().generate(
            12 * 3600.0, np.random.default_rng(42))
    digest = hashlib.sha256(repr(list(trace.node_ids)).encode())
    for c in trace:
        digest.update(f"{c.start!r} {c.end!r} {c.a} {c.b}\n".encode())
    return {"contacts": len(trace), "sha256": digest.hexdigest()}


def compute() -> dict:
    return {
        "runs": {name: run_metrics(name) for name in SCENARIOS},
        "queries": {name: outputs(name)[1] for name in QUERY_SCENARIOS},
        "traces": {name: trace_digest(name) for name in PROFILES + MODELS},
        "faults": {"runs": run_metrics("faults"),
                   "queries": outputs("faults")[1]},
        "transfers": {name: outputs(name)[3] for name in SCENARIOS},
        ONPATH: run_metrics(ONPATH),
    }


def assert_same_metrics(actual: list[dict], expected: list[dict]) -> None:
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        got, want = RunMetrics(**got), RunMetrics(**want)
        assert got.same_as(want), (got, want)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_metrics_match_golden(golden, scenario):
    assert_same_metrics(run_metrics(scenario), golden["runs"][scenario])
    actual = [RunMetrics(**row) for row in run_metrics(scenario)]
    # the scenario exercises the protocol: refreshes flow and answer
    assert any(m.messages > 0 and m.freshness > 0 for m in actual)
    assert any(m.queries_issued > 0 and not math.isnan(m.query_answer_ratio)
               for m in actual)


@pytest.mark.parametrize("scenario", QUERY_SCENARIOS)
def test_first_answers_match_golden(golden, scenario):
    pinned = golden["queries"][scenario]
    assert pinned["queries"] > 0
    assert outputs(scenario)[1] == pinned


@pytest.mark.parametrize("scenario", QUERY_SCENARIOS + ("faults",))
def test_query_plane_invariants_hold(scenario):
    assert outputs(scenario)[2] == []


def test_faulted_world_matches_golden(golden):
    pinned = golden["faults"]
    assert_same_metrics(run_metrics("faults"), pinned["runs"])
    assert outputs("faults")[1] == pinned["queries"]
    # the plan does inject: crashes change what the fast world answers
    assert pinned["queries"] != golden["queries"]["fast"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_transfers_by_kind_match_golden(golden, scenario):
    assert outputs(scenario)[3] == golden["transfers"][scenario]


def test_onpath_caching_matches_golden(golden):
    assert_same_metrics(run_metrics(ONPATH), golden[ONPATH])


@pytest.mark.parametrize("name", PROFILES + MODELS)
def test_trace_digest_matches_golden(golden, name):
    assert trace_digest(name) == golden["traces"][name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
