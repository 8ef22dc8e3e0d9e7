"""Tests for counters, tallies and time series."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import StatsRegistry, Tally, TimeSeries


class TestCounter:
    def test_add(self):
        stats = StatsRegistry()
        stats.counter("x").add()
        stats.counter("x").add(2.5)
        assert stats.counter_value("x") == 3.5

    def test_counter_value_default_does_not_create(self):
        stats = StatsRegistry()
        assert stats.counter_value("missing", default=7.0) == 7.0
        assert "missing" not in stats.counters()

    def test_counters_snapshot_sorted(self):
        stats = StatsRegistry()
        stats.counter("b").add(1)
        stats.counter("a").add(2)
        assert list(stats.counters()) == ["a", "b"]


class TestTally:
    def test_mean_and_bounds(self):
        tally = Tally("t")
        for v in [1.0, 2.0, 3.0]:
            tally.observe(v)
        assert tally.mean == pytest.approx(2.0)
        assert tally.min == 1.0
        assert tally.max == 3.0
        assert tally.count == 3

    def test_variance_matches_sample_variance(self):
        tally = Tally("t")
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        for v in values:
            tally.observe(v)
        mean = sum(values) / len(values)
        expected = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert tally.variance == pytest.approx(expected)
        assert tally.stdev == pytest.approx(math.sqrt(expected))

    def test_empty_tally_is_nan(self):
        tally = Tally("t")
        assert math.isnan(tally.mean)
        assert math.isnan(tally.variance)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_welford_agrees_with_direct(self, values):
        tally = Tally("t")
        for v in values:
            tally.observe(v)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert tally.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
        assert tally.variance == pytest.approx(var, rel=1e-6, abs=1e-6)


class TestTallyPercentiles:
    def test_single_sample(self):
        tally = Tally("t")
        tally.observe(7.0)
        assert tally.p50 == 7.0
        assert tally.p95 == 7.0
        assert tally.percentile(0.0) == 7.0
        assert tally.percentile(100.0) == 7.0

    def test_empty_is_nan(self):
        assert math.isnan(Tally("t").p50)

    def test_interpolation(self):
        tally = Tally("t")
        for v in [1.0, 2.0, 3.0, 4.0]:
            tally.observe(v)
        assert tally.p50 == pytest.approx(2.5)
        assert tally.percentile(25.0) == pytest.approx(1.75)
        assert tally.percentile(100.0) == 4.0
        assert tally.percentile(0.0) == 1.0

    def test_rejects_out_of_range(self):
        tally = Tally("t")
        tally.observe(1.0)
        with pytest.raises(ValueError):
            tally.percentile(101.0)
        with pytest.raises(ValueError):
            tally.percentile(-0.5)

    def test_cache_invalidated_by_new_observation(self):
        tally = Tally("t")
        tally.observe(1.0)
        assert tally.p50 == 1.0  # primes the sorted cache
        tally.observe(3.0)
        assert tally.p50 == pytest.approx(2.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=80),
           st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_linear(self, values, q):
        import numpy as np

        tally = Tally("t")
        for v in values:
            tally.observe(v)
        expected = float(np.percentile(np.asarray(values), q))
        assert tally.percentile(q) == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestTimeSeries:
    def test_record_and_iterate(self):
        series = TimeSeries("s")
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert list(series) == [(1.0, 10.0), (2.0, 20.0)]
        assert len(series) == 2

    def test_mean(self):
        series = TimeSeries("s")
        series.record(0.0, 1.0)
        series.record(1.0, 3.0)
        assert series.mean() == 2.0

    def test_empty_mean_is_nan(self):
        assert math.isnan(TimeSeries("s").mean())

    def test_time_average_piecewise_constant(self):
        series = TimeSeries("s")
        series.record(0.0, 0.0)
        series.record(10.0, 1.0)  # value 0 held for 10 s
        # horizon 20: value 1 held for 10 s -> average 0.5
        assert series.time_average(horizon=20.0) == pytest.approx(0.5)

    def test_time_average_without_horizon_drops_last(self):
        series = TimeSeries("s")
        series.record(0.0, 4.0)
        series.record(2.0, 100.0)
        assert series.time_average() == pytest.approx(4.0)

    def test_time_average_single_sample(self):
        series = TimeSeries("s")
        series.record(5.0, 3.0)
        assert series.time_average() == 3.0


class TestRegistry:
    def test_instruments_created_once(self):
        stats = StatsRegistry()
        assert stats.series("s") is stats.series("s")
        assert stats.tally("t") is stats.tally("t")

    def test_all_series_and_tallies(self):
        stats = StatsRegistry()
        stats.series("a").record(0.0, 1.0)
        stats.tally("b").observe(2.0)
        assert set(stats.all_series()) == {"a"}
        assert set(stats.all_tallies()) == {"b"}


class TestGauge:
    def test_set_and_add(self):
        stats = StatsRegistry()
        gauge = stats.gauge("fresh")
        gauge.add()
        gauge.add(2.5)
        gauge.set(5.0)
        gauge.add(-1.5)
        assert stats.gauge_value("fresh") == 3.5

    def test_created_once(self):
        stats = StatsRegistry()
        assert stats.gauge("g") is stats.gauge("g")

    def test_gauge_value_default_does_not_create(self):
        stats = StatsRegistry()
        assert stats.gauge_value("missing", default=7.0) == 7.0
        assert stats.gauges() == {}

    def test_gauges_snapshot_is_sorted(self):
        stats = StatsRegistry()
        stats.gauge("b").set(2.0)
        stats.gauge("a").set(1.0)
        assert stats.gauges() == {"a": 1.0, "b": 2.0}
        assert list(stats.gauges()) == ["a", "b"]
