"""Golden outputs: per-seed run metrics and calibrated trace digests.

``golden.json`` was recorded when every optimised build and accounting
path still had a scalar twin behind a module switch -- array rate
estimation, array NCL selection, vectorised tree and relay planning,
the indexed task drain, watermarked gossip, the O(1) freshness probe
and vectorised trace assembly -- and the default run and the all-scalar
run produced exactly these numbers.  The file stands in for those twins
as the oracle: a change that moves any output fails here.

A change that is meant to move outputs rewrites the file with
``PYTHONPATH=src python -m tests.test_golden`` and says why.
"""

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.core.scheme import SCHEMES
from repro.experiments.config import DAY, Settings
from repro.experiments.runner import RunMetrics, make_trace, run_once
from repro.mobility.calibration import get_profile

GOLDEN = Path(__file__).with_name("golden.json")

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

#: Calibrated profiles built by the community generator, each drawn
#: with ``default_rng(1)`` over its default horizon.
PROFILES = ("infocom06", "reality", "small")


def run_metrics(scenario: str) -> list[dict]:
    """``RunMetrics`` of every registered scheme, queries on, per seed."""
    settings = SCENARIOS[scenario]
    rows = []
    for seed in settings.seeds:
        trace = make_trace(settings, seed)
        for scheme in SCHEMES:
            metrics = run_once(trace, scheme, settings, seed=seed,
                               with_queries=True)
            rows.append(asdict(metrics))
    return rows


def trace_digest(name: str) -> dict:
    """Contact count and SHA-256 over node ids and every contact."""
    trace = get_profile(name).generate(np.random.default_rng(1))
    digest = hashlib.sha256(repr(list(trace.node_ids)).encode())
    for c in trace:
        digest.update(f"{c.start!r} {c.end!r} {c.a} {c.b}\n".encode())
    return {"contacts": len(trace), "sha256": digest.hexdigest()}


def compute() -> dict:
    return {
        "runs": {name: run_metrics(name) for name in SCENARIOS},
        "traces": {name: trace_digest(name) for name in PROFILES},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_run_metrics_match_golden(golden, scenario):
    expected = [RunMetrics(**row) for row in golden["runs"][scenario]]
    actual = [RunMetrics(**row) for row in run_metrics(scenario)]
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.same_as(want), (got, want)
    # the scenario exercises the protocol: refreshes flow and answer
    assert any(m.messages > 0 and m.freshness > 0 for m in actual)
    assert any(m.queries_issued > 0 and not math.isnan(m.query_answer_ratio)
               for m in actual)


@pytest.mark.parametrize("name", PROFILES)
def test_trace_digest_matches_golden(golden, name):
    assert trace_digest(name) == golden["traces"][name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
