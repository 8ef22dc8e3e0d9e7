"""Every workload, at tiny size, emits exactly the metrics BENCHMARK.json names."""

from __future__ import annotations

import json

import pytest

import bench.run as run
from bench.compare import definition
from bench.workloads import WORKLOADS


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_exactly_the_named_metrics(name, traced):
    spec = definition()
    detail = run.run_workload(name, seed=1, seconds=0.5, traced=traced,
                              tiny=True)
    line = run.result_line(detail)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    section = spec["per_layer" if traced else "end_to_end"]
    assert set(line["metrics"]) == {row["name"] for row in section}
    for row in section:
        metric = line["metrics"][row["name"]]
        assert metric["unit"] == row["unit"]
        assert isinstance(metric["value"], float)
    assert line["attempted"] >= 1 and isinstance(line["failed"], int)
    assert detail["units"] >= 2
    assert detail["correct"], detail["failures"]
    json.dumps(line, allow_nan=False)


def test_traced_and_untraced_runs_digest_alike():
    plain = run.run_workload("metro-soa", 2, 0.5, traced=False, tiny=True)
    traced = run.run_workload("metro-soa", 2, 0.5, traced=True, tiny=True)
    assert plain["digest"] == traced["digest"]
    assert traced["correct"], traced["failures"]
