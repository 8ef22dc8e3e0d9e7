"""Tests for the working-day behavioural mobility model."""

import numpy as np
import pytest

from repro.mobility.workingday import WorkingDayModel

DAY = 86400.0


@pytest.fixture
def model(rng):
    return WorkingDayModel(
        n=24, num_offices=3, num_spots=2, household_size=2,
        meeting_prob=0.2, evening_prob=0.3, rng=rng,
    )


class TestStructure:
    def test_households_are_shared_homes(self, model):
        assert model.household_of(0) == model.household_of(1)
        assert model.household_of(0) != model.household_of(2)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            WorkingDayModel(n=1, rng=rng)
        with pytest.raises(ValueError):
            WorkingDayModel(n=4, num_offices=0, rng=rng)
        with pytest.raises(ValueError):
            WorkingDayModel(n=4, meeting_prob=1.5, rng=rng)
        with pytest.raises(ValueError):
            WorkingDayModel(n=4, contact_fraction=0.0, rng=rng)
        model = WorkingDayModel(n=4, rng=rng)
        with pytest.raises(ValueError):
            model.generate(0.0, rng)


class TestGeneratedTrace:
    def test_trace_valid(self, model, rng):
        trace = model.generate(3 * DAY, rng)
        assert len(trace) > 50
        for c in trace:
            assert c.end <= 3 * DAY
            assert c.duration > 0

    def test_contacts_touching_across_hours_merge(self):
        class WholeHours:
            """Every contact starts at its hour and lasts all of it."""

            def uniform(self, low, high):
                return low

            def exponential(self, scale):
                return 3600.0

        model = WorkingDayModel(n=4, household_size=2,
                                rng=np.random.default_rng(0))
        # hours 0-7 are at home: each household's eight hourly contacts
        # touch end to start, so each is one contact
        trace = model.generate(8 * 3600.0, WholeHours())
        assert [(c.a, c.b, c.start, c.end) for c in trace] == [
            (0, 1, 0.0, 8 * 3600.0), (2, 3, 0.0, 8 * 3600.0)]

    def test_commute_hours_have_no_contacts(self, model, rng):
        trace = model.generate(3 * DAY, rng)
        for c in trace:
            hour = int(c.start // 3600) % 24
            assert hour not in (8, 17)

    def test_household_members_meet_at_night(self, model, rng):
        trace = model.generate(3 * DAY, rng)
        night_contacts = [
            c for c in trace if (int(c.start // 3600) % 24) in range(0, 8)
        ]
        assert night_contacts
        for c in night_contacts:
            # at night only co-habitants (or spot stragglers ending late)
            # meet; check the household structure dominates
            pass
        same_home = sum(
            1 for c in night_contacts
            if model.household_of(c.a) == model.household_of(c.b)
        )
        assert same_home / len(night_contacts) > 0.95

    def test_office_mates_meet_more_than_strangers(self, rng):
        model = WorkingDayModel(
            n=30, num_offices=3, num_spots=2, household_size=1,
            meeting_prob=0.05, evening_prob=0.1, rng=rng,
        )
        trace = model.generate(5 * DAY, rng)
        office_pairs = stranger_pairs = 0
        office_contacts = stranger_contacts = 0
        counts = {pair: len(cs) for pair, cs in trace.pair_contacts().items()}
        for a in range(30):
            for b in range(a + 1, 30):
                c = counts.get((a, b), 0)
                if model.office_of(a) == model.office_of(b):
                    office_pairs += 1
                    office_contacts += c
                else:
                    stranger_pairs += 1
                    stranger_contacts += c
        assert office_contacts / office_pairs > 3 * (
            stranger_contacts / max(stranger_pairs, 1)
        )

    def test_deterministic_given_seed(self):
        def build(seed):
            rng = np.random.default_rng(seed)
            model = WorkingDayModel(n=10, rng=rng)
            return model.generate(2 * DAY, rng)

        a, b = build(5), build(5)
        assert len(a) == len(b)
        assert all(x.pair == y.pair and x.start == y.start for x, y in zip(a, b))

    def test_feeds_the_scheme_pipeline(self, rng):
        """The behavioural trace drives a full HDR run out-of-model."""
        from repro.caching.items import DataCatalog
        from repro.core.scheme import build_simulation

        model = WorkingDayModel(n=20, num_offices=2, num_spots=2,
                                household_size=2, rng=rng)
        trace = model.generate(4 * DAY, rng)
        catalog = DataCatalog.uniform(
            2, sources=[0], refresh_interval=24 * 3600.0
        )
        runtime = build_simulation(trace, catalog, scheme="hdr",
                                   num_caching_nodes=5, seed=1)
        runtime.install_freshness_probe(interval=3600.0, until=4 * DAY)
        runtime.run(until=4 * DAY)
        assert runtime.stats.series("probe.freshness").mean() > 0.2
