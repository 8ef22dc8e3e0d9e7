"""Tests for the experiment harness (fast settings)."""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, Settings
from repro.experiments.runner import (
    RunMetrics,
    analytic_on_time,
    choose_sources,
    make_catalog,
    make_trace,
    run_once,
    run_replicated,
)


@pytest.fixture(scope="module")
def settings():
    return Settings.fast()


@pytest.fixture(scope="module")
def trace(settings):
    return make_trace(settings, seed=1)


class TestSettings:
    def test_fast_preset_is_small(self):
        fast = Settings.fast()
        assert fast.profile == "small"
        assert fast.duration < Settings().duration

    def test_with_overrides(self):
        tweaked = Settings().with_(num_items=9)
        assert tweaked.num_items == 9
        assert tweaked.profile == Settings().profile

    def test_derived_properties(self):
        base = Settings(refresh_interval=100.0, lifetime_factor=3.0,
                        query_rate_per_day=2.0)
        assert base.lifetime == 300.0
        assert base.query_rate == pytest.approx(2.0 / 86400.0)


class TestRunnerHelpers:
    def test_make_trace_deterministic(self, settings):
        a = make_trace(settings, seed=2)
        b = make_trace(settings, seed=2)
        assert len(a) == len(b)

    def test_choose_sources_midrank(self, settings, trace):
        sources = choose_sources(trace, settings)
        assert len(sources) == settings.num_sources
        assert set(sources) <= set(trace.node_ids)

    def test_make_catalog_uses_settings(self, settings, trace):
        catalog = make_catalog(settings, choose_sources(trace, settings))
        assert len(catalog) == settings.num_items
        item = catalog.get(0)
        assert item.refresh_interval == settings.refresh_interval
        assert item.lifetime == settings.lifetime

    def test_run_once_produces_metrics(self, settings, trace):
        metrics = run_once(trace, "hdr", settings, seed=1, with_queries=True)
        assert isinstance(metrics, RunMetrics)
        assert 0.0 <= metrics.freshness <= 1.0
        assert 0.0 <= metrics.on_time_ratio <= 1.0
        assert metrics.messages > 0
        assert metrics.queries_issued > 0

    def test_run_replicated_pairs_seeds(self, settings):
        short = settings.with_(seeds=(1, 2))
        results = run_replicated(["hdr", "source"], short)
        assert set(results) == {"hdr", "source"}
        assert [m.seed for m in results["hdr"]] == [1, 2]

    def test_analytic_on_time_in_unit_interval(self, settings, trace):
        from repro.core.scheme import build_simulation

        catalog = make_catalog(settings, choose_sources(trace, settings))
        runtime = build_simulation(trace, catalog, scheme="hdr",
                                   num_caching_nodes=5, seed=1)
        value = analytic_on_time(runtime.plan)
        assert 0.0 <= value <= 1.0


class TestExperimentRegistry:
    def test_all_registered(self):
        assert set(EXPERIMENTS) == {f"E{k}" for k in range(1, 17)}

    @pytest.mark.parametrize("exp_id", ["E1", "E2"])
    def test_analysis_experiments_run(self, exp_id, settings):
        result = EXPERIMENTS[exp_id](settings)
        assert result.exp_id == exp_id
        assert result.text
        assert result.data

    def test_e3_series_has_all_schemes(self, settings):
        result = EXPERIMENTS["E3"](settings)
        assert set(result.data["series"]) == {
            "hdr", "flooding", "flat", "random", "source", "none"
        }
        for values in result.data["series"].values():
            assert len(values) == len(result.data["grid_hours"])

    def test_e6_overhead_ordering(self, settings):
        result = EXPERIMENTS["E6"](settings)
        flooding = result.data["flooding"]["messages"].mean
        hdr = result.data["hdr"]["messages"].mean
        source = result.data["source"]["messages"].mean
        assert flooding > hdr > source
