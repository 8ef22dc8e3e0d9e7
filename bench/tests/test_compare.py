"""``compare`` classifies regressions, unresolved spreads and no change."""

from __future__ import annotations

import json

import pytest

from bench.compare import classify, compare, quartiles

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.10}
HIGHER = {"name": "contacts_per_s", "better": "higher", "bound": 0.10}


@pytest.mark.parametrize("base, head, spec, status", [
    # tight runs, median 2% worse: inside the bound
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.2, 10.25, 10.15, 10.2, 10.3], LOWER, "ok"),
    # tight runs, median 20% worse
    ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.2], LOWER, "regression"),
    # throughput: 20% lower is worse, 20% higher is not
    ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], HIGHER, "regression"),
    ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], HIGHER, "ok"),
    # spread wider than the bound on one side: not resolvable
    ([10.0, 13.0, 8.0, 11.0, 9.0], [10.5, 10.6, 10.4, 10.5, 10.5], LOWER, "unresolved"),
    # wide spread, but every head run beats every base run
    ([10.0, 13.0, 8.0, 11.0, 9.0], [5.0, 6.0, 7.0, 5.5, 6.5], LOWER, "ok"),
    # wide spread, every head run worse and the median past the bound
    ([10.0, 12.0, 8.0, 11.0, 9.0], [15.0, 19.0, 13.0, 17.0, 14.0], LOWER, "regression"),
])
def test_classify(base, head, spec, status):
    assert classify(base, head, spec)[0] == status


def test_quartiles_match_the_statistics_module():
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def _suite(path, walls, digest="d"):
    runs = [{"workload": "metro-soa", "seed": seed, "trace": False,
             "digest": digest, "end_to_end": {"wall_s": {"value": wall, "unit": "s"}},
             "extra_metrics": {}} for seed, wall in enumerate(walls, 1)]
    path.write_text(json.dumps({"runs": runs}), encoding="utf-8")
    return path


def test_compare_counts_regressions(tmp_path, capsys):
    base = _suite(tmp_path / "base.json", [10.0, 10.1, 9.9, 10.0, 10.05])
    same = _suite(tmp_path / "same.json", [10.1, 10.0, 9.95, 10.05, 10.0])
    slow = _suite(tmp_path / "slow.json", [13.0, 13.1, 12.9, 13.0, 13.05], "e")
    assert compare(base, same) == 0
    assert "5/5 seeds digest-identical" in capsys.readouterr().out
    assert compare(base, slow) == 1
    out = capsys.readouterr().out
    assert "regression" in out and "0/5 seeds digest-identical" in out
