"""Tests for the Poisson contact generators."""

import numpy as np
import pytest

from repro.mobility.synthetic import (
    PoissonContactModel,
    community_rate_matrix,
    gamma_rate_matrix,
    homogeneous_rate_matrix,
)


class TestRateMatrices:
    def test_homogeneous(self):
        rates = homogeneous_rate_matrix(4, 0.5)
        assert rates.shape == (4, 4)
        assert (np.diag(rates) == 0).all()
        off = rates[np.triu_indices(4, k=1)]
        assert (off == 0.5).all()

    def test_homogeneous_validation(self):
        with pytest.raises(ValueError):
            homogeneous_rate_matrix(1, 0.5)
        with pytest.raises(ValueError):
            homogeneous_rate_matrix(4, -0.1)

    def test_gamma_mean_approx(self, rng):
        rates = gamma_rate_matrix(40, mean_rate=2.0, shape=2.0, rng=rng)
        off = rates[np.triu_indices(40, k=1)]
        assert off.mean() == pytest.approx(2.0, rel=0.1)
        assert (rates == rates.T).all()
        assert (np.diag(rates) == 0).all()

    def test_gamma_sparsity(self, rng):
        rates = gamma_rate_matrix(40, mean_rate=1.0, shape=2.0, rng=rng, sparsity=0.5)
        off = rates[np.triu_indices(40, k=1)]
        zero_fraction = (off == 0).mean()
        assert 0.35 < zero_fraction < 0.65

    def test_gamma_validation(self, rng):
        with pytest.raises(ValueError):
            gamma_rate_matrix(4, mean_rate=0, shape=1, rng=rng)
        with pytest.raises(ValueError):
            gamma_rate_matrix(4, mean_rate=1, shape=1, rng=rng, sparsity=1.0)

    def test_community_structure(self, rng):
        rates, membership = community_rate_matrix(
            60, 3, intra_rate=1.0, inter_rate=0.01, rng=rng,
            hub_fraction=0.0, jitter_shape=50.0,
        )
        assert len(membership) == 60
        assert set(membership) <= {0, 1, 2}
        intra, inter = [], []
        for i in range(60):
            for j in range(i + 1, 60):
                (intra if membership[i] == membership[j] else inter).append(rates[i, j])
        assert np.mean(intra) > 10 * np.mean(inter)

    def test_community_hubs_boosted(self, rng):
        rates, _ = community_rate_matrix(
            30, 1, intra_rate=1.0, inter_rate=1.0, rng=rng,
            hub_fraction=0.1, hub_multiplier=100.0, jitter_shape=50.0,
        )
        degrees = rates.sum(axis=1)
        # hubs stand out by an order of magnitude
        assert degrees.max() > 5 * np.median(degrees)

    def test_community_validation(self, rng):
        with pytest.raises(ValueError):
            community_rate_matrix(10, 0, 1.0, 0.1, rng)
        with pytest.raises(ValueError):
            community_rate_matrix(10, 11, 1.0, 0.1, rng)


class TestPoissonContactModel:
    def test_contact_count_matches_expectation(self, rng):
        rate = 0.01  # per second
        model = PoissonContactModel(homogeneous_rate_matrix(5, rate), mean_duration=1.0)
        duration = 10000.0
        trace = model.generate(duration, rng)
        expected = model.expected_contacts(duration)
        assert expected == pytest.approx(10 * rate * duration)
        assert len(trace) == pytest.approx(expected, rel=0.15)

    def test_zero_rate_pair_never_meets(self, rng):
        rates = homogeneous_rate_matrix(3, 0.01)
        rates[0, 1] = rates[1, 0] = 0.0
        model = PoissonContactModel(rates, mean_duration=1.0)
        trace = model.generate(5000.0, rng)
        assert (0, 1) not in trace.pair_contacts()

    def test_zero_length_draws_are_dropped(self, rng):
        # lengths far below one ulp of any start time leave end == start
        model = PoissonContactModel(homogeneous_rate_matrix(4, 0.01),
                                    mean_duration=1e-300)
        assert model.expected_contacts(1000.0) == 60.0
        assert len(model.generate(1000.0, rng)) == 0

    def test_contacts_within_horizon(self, rng):
        model = PoissonContactModel(homogeneous_rate_matrix(4, 0.01), mean_duration=50.0)
        trace = model.generate(1000.0, rng)
        assert all(0 <= c.start <= 1000.0 and c.end <= 1000.0 for c in trace)

    def test_durations_near_mean(self, rng):
        model = PoissonContactModel(
            homogeneous_rate_matrix(6, 0.005), mean_duration=20.0
        )
        trace = model.generate(50000.0, rng)
        durations = [c.duration for c in trace]
        assert np.mean(durations) == pytest.approx(20.0, rel=0.2)

    def test_intercontact_times_are_exponential(self, rng):
        """KS distance of gaps to the fitted exponential should be small."""
        from repro.contacts.intercontact import fit_exponential, ks_distance

        model = PoissonContactModel(homogeneous_rate_matrix(2, 0.02), mean_duration=0.5)
        trace = model.generate(200000.0, rng)
        gaps = trace.inter_contact_times()[(0, 1)]
        assert len(gaps) > 1000
        rate = fit_exponential(gaps)
        assert ks_distance(gaps, rate) < 0.05

    def test_custom_node_ids(self, rng):
        model = PoissonContactModel(
            homogeneous_rate_matrix(3, 0.01), node_ids=[10, 20, 30]
        )
        trace = model.generate(1000.0, rng)
        assert set(trace.node_ids) <= {10, 20, 30}

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            PoissonContactModel(np.ones((2, 3)))
        asym = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            PoissonContactModel(asym)
        with pytest.raises(ValueError):
            PoissonContactModel(homogeneous_rate_matrix(2, 1.0), mean_duration=0)
        with pytest.raises(ValueError):
            PoissonContactModel(homogeneous_rate_matrix(2, 1.0), node_ids=[1])
        model = PoissonContactModel(homogeneous_rate_matrix(2, 1.0))
        with pytest.raises(ValueError):
            model.generate(0.0, rng)

    def test_deterministic_given_seed(self):
        model = PoissonContactModel(homogeneous_rate_matrix(4, 0.01))
        a = model.generate(1000.0, np.random.default_rng(5))
        b = model.generate(1000.0, np.random.default_rng(5))
        assert len(a) == len(b)
        assert all(x.pair == y.pair and x.start == y.start for x, y in zip(a, b))


class TestVectorisedBitIdentity:
    """The vectorised generators must reproduce the scalar assembly
    (test-local copies in ``tests/reference_paths.py``) exactly: same
    contacts, same order, bit-identical timestamps per seed."""

    def _scalar(self, fn):
        from tests.reference_paths import legacy_paths

        with legacy_paths():
            return fn()

    def test_poisson_model_identical_to_scalar(self):
        model = PoissonContactModel(homogeneous_rate_matrix(6, 0.005))
        vectorised = model.generate(100_000.0, np.random.default_rng(3))
        scalar = self._scalar(
            lambda: model.generate(100_000.0, np.random.default_rng(3))
        )
        assert list(vectorised) == list(scalar)

    @pytest.mark.parametrize("name", ["infocom06", "reality", "small"])
    def test_calibration_profile_identical_to_scalar(self, name):
        from repro.mobility.calibration import get_profile

        profile = get_profile(name)
        vectorised = profile.generate(np.random.default_rng(1))
        scalar = self._scalar(lambda: profile.generate(np.random.default_rng(1)))
        assert len(vectorised) == len(scalar)
        assert list(vectorised) == list(scalar)
        assert vectorised.node_ids == scalar.node_ids
