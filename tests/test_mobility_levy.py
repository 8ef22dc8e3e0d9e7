"""Tests for Levy-walk mobility and the truncated-Pareto sampler."""

import numpy as np
import pytest

from repro.mobility.levy import LevyWalkModel, truncated_pareto
from tests.reference_paths import proximity_generate_scalar


class TestTruncatedPareto:
    def test_bounds_respected(self):
        rng = np.random.default_rng(3)
        x = truncated_pareto(rng, alpha=1.4, lo=20.0, hi=500.0, size=5000)
        assert x.min() >= 20.0
        assert x.max() <= 500.0

    def test_heavy_tail_shape(self):
        # smaller alpha -> heavier tail -> larger mean
        rng = np.random.default_rng(3)
        heavy = truncated_pareto(rng, alpha=0.8, lo=10.0, hi=1e4, size=20000)
        rng = np.random.default_rng(3)
        light = truncated_pareto(rng, alpha=2.5, lo=10.0, hi=1e4, size=20000)
        assert heavy.mean() > light.mean()

    def test_scalar_draw(self):
        rng = np.random.default_rng(0)
        x = truncated_pareto(rng, alpha=1.5, lo=1.0, hi=10.0)
        assert np.isscalar(x) or x.shape == ()
        assert 1.0 <= float(x) <= 10.0

    def test_deterministic_per_seed(self):
        a = truncated_pareto(np.random.default_rng(9), 1.4, 10, 100, size=64)
        b = truncated_pareto(np.random.default_rng(9), 1.4, 10, 100, size=64)
        assert np.array_equal(a, b)

    def test_parameter_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            truncated_pareto(rng, alpha=0.0, lo=1.0, hi=2.0)
        with pytest.raises(ValueError):
            truncated_pareto(rng, alpha=1.0, lo=5.0, hi=2.0)


@pytest.fixture(scope="module")
def model():
    return LevyWalkModel(n=10, area=800.0, radio_range=80.0,
                         sample_interval=10.0)


class TestLevyWalkModel:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LevyWalkModel(n=1)
        with pytest.raises(ValueError):
            LevyWalkModel(n=5, alpha=-1.0)
        with pytest.raises(ValueError):
            LevyWalkModel(n=5, flight_min=5000.0, area=100.0)
        with pytest.raises(ValueError):
            LevyWalkModel(n=5, pause_min=100.0, pause_max=10.0)

    def test_positions_stay_in_arena(self, model):
        positions = model.positions(600.0, np.random.default_rng(1))
        assert positions.shape[1:] == (model.n, 2)
        assert positions.min() >= 0.0
        assert positions.max() <= model.area

    def test_generate_deterministic(self, model):
        a = model.generate(3600.0, np.random.default_rng(5))
        b = model.generate(3600.0, np.random.default_rng(5))
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert (ca.a, ca.b, ca.start, ca.end) == (cb.a, cb.b, cb.start,
                                                      cb.end)

    def test_contacts_well_formed(self, model):
        trace = model.generate(3600.0, np.random.default_rng(5))
        assert len(trace) > 0
        for contact in trace:
            assert 0 <= contact.a < contact.b < model.n
            assert 0.0 <= contact.start < contact.end <= 3600.0 + 1e-9

    def test_arrays_match_object_trace(self, model):
        duration = 3 * 3600.0
        trace = proximity_generate_scalar(model, duration,
                                          np.random.default_rng(7))
        arrays = model.generate_arrays(duration, np.random.default_rng(7))
        assert len(arrays) == len(trace)
        for i, contact in enumerate(trace):
            assert arrays.a[i] == contact.a
            assert arrays.b[i] == contact.b
            assert arrays.start[i] == contact.start
            assert arrays.end[i] == contact.end


class TestVehicularProfile:
    def test_registered(self):
        from repro.mobility.calibration import get_profile, list_profiles

        assert "vehicular" in list_profiles()
        profile = get_profile("vehicular")
        assert profile.num_nodes == 40

    def test_synthesizes_contacts(self):
        from repro.experiments.config import Settings
        from repro.experiments.runner import make_trace

        settings = Settings(profile="vehicular", duration=6 * 3600.0)
        trace = make_trace(settings, seed=1)
        assert len(trace) > 0
