"""Tests for the benchmark helpers: the scale-regression gate, the
reference scenario, and the single-CPU sweep skip."""

import json

from repro.experiments import bench
from repro.experiments.bench import (
    SWEEP_SEEDS,
    check_scale_regression,
    reference_settings,
    sweep_benchmark,
)
from repro.experiments.config import DAY


class TestReferenceSettings:
    def test_full_scenario(self):
        settings = reference_settings()
        assert settings.seeds == SWEEP_SEEDS
        assert settings.duration == 6 * DAY
        assert settings.num_caching_nodes == 12
        assert settings.num_items == 6
        assert settings.num_sources == 2
        assert settings.probe_interval == 60.0

    def test_quick_scenario_shrinks_only_seeds_and_duration(self):
        settings = reference_settings(quick=True)
        assert settings.seeds == (1, 2)
        assert settings.duration == 3 * DAY
        assert settings.num_caching_nodes == 12
        assert settings.probe_interval == 60.0


class TestSweepSkip:
    def test_single_cpu_skips_comparison(self, monkeypatch):
        monkeypatch.setattr(bench, "available_cpus", lambda: 1)
        result = sweep_benchmark()
        assert result["skipped"] == "1 cpu"
        assert result["cpus"] == 1
        assert ">= 2 usable CPUs" in result["note"]


def scale_report(points, speedup_ok=True, rss_ok=True) -> dict:
    return {
        "scale": {
            "points": points,
            "speedup_ok": speedup_ok,
            "rss_ok": rss_ok,
            "soa_speedup_1k": 10.0,
            "speedup_floor": bench.SCALE_MIN_SOA_SPEEDUP,
            "rss_ceiling_mb": bench.SCALE_RSS_CEILING_MB,
        }
    }


def scale_point(backend, nodes, events_per_sec) -> dict:
    return {"backend": backend, "nodes": nodes,
            "events_per_sec": events_per_sec}


class TestCheckScaleRegression:
    def baseline(self, tmp_path, payload) -> str:
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_passes_within_threshold(self, tmp_path):
        path = self.baseline(
            tmp_path, scale_report([scale_point("soa", 1000, 100_000.0)])
        )
        ok, message = check_scale_regression(
            scale_report([scale_point("soa", 1000, 80_000.0)]), path
        )
        assert ok
        assert "1 point(s)" in message

    def test_fails_beyond_threshold(self, tmp_path):
        path = self.baseline(
            tmp_path, scale_report([scale_point("soa", 1000, 100_000.0)])
        )
        ok, message = check_scale_regression(
            scale_report([scale_point("soa", 1000, 50_000.0)]), path
        )
        assert not ok
        assert "soa@1000" in message

    def test_fails_when_speedup_floor_missed(self, tmp_path):
        path = self.baseline(tmp_path, scale_report([]))
        ok, message = check_scale_regression(
            scale_report([], speedup_ok=False), path
        )
        assert not ok
        assert "under floor" in message

    def test_fails_when_rss_ceiling_exceeded(self, tmp_path):
        path = self.baseline(tmp_path, scale_report([]))
        ok, message = check_scale_regression(
            scale_report([], rss_ok=False), path
        )
        assert not ok
        assert "peak-RSS ceiling" in message

    def test_new_points_pass_against_missing_baseline(self, tmp_path):
        ok, _ = check_scale_regression(
            scale_report([scale_point("soa", 100_000, 1.0)]),
            str(tmp_path / "absent.json"),
        )
        assert ok

    def test_points_absent_from_baseline_pass(self, tmp_path):
        path = self.baseline(
            tmp_path, scale_report([scale_point("soa", 1000, 100_000.0)])
        )
        ok, _ = check_scale_regression(
            scale_report([scale_point("soa", 30_000, 1.0)]), path
        )
        assert ok
