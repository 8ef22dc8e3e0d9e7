"""Tests for scenario composition, including the metrics-identity proof:
a registry scenario produces RunMetrics `same_as`-identical to the
equivalent handwritten sweep."""

import tomllib

import pytest

from repro.caching.onpath import OnPathConfig
from repro.caching.placement import GeographicPlacement, PopularityPlacement
from repro.experiments.config import HOUR, Settings
from repro.experiments.parallel import SweepPoint, run_sweep
from repro.scenarios import (
    compose_scenario,
    cycle_from_doc,
    faults_from_doc,
    load_scenario,
    onpath_from_doc,
    placement_from_doc,
    settings_from_doc,
    sweep_point_from_doc,
)
from repro.workloads.cycles import DEFAULT_QUERY_ACTIVITY


def doc(text):
    return tomllib.loads(text)


class TestSettingsFromDoc:
    def test_defaults_without_settings_table(self):
        settings = settings_from_doc(
            doc('[scenario]\nname="x"\n[run]\nschemes=["hdr"]')
        )
        assert settings == Settings()

    def test_unit_conversions(self):
        settings = settings_from_doc(doc("""
            [settings]
            duration_hours = 48.0
            refresh_interval_hours = 6.0
            probe_interval_minutes = 20.0
            seeds = [7, 8]
        """))
        assert settings.duration == 48.0 * HOUR
        assert settings.refresh_interval == 6.0 * HOUR
        assert settings.probe_interval == 20.0 * 60.0
        assert settings.seeds == (7, 8)

    def test_passthrough_keys(self):
        settings = settings_from_doc(doc("""
            [settings]
            profile = "small"
            num_items = 3
            zipf_exponent = 1.2
            num_sources = 3
        """))
        assert settings.profile == "small"
        assert settings.num_items == 3
        assert settings.zipf_exponent == 1.2
        assert settings.num_sources == 3
        # unlisted keys keep library defaults
        assert settings.num_caching_nodes == Settings().num_caching_nodes


class TestPartConverters:
    def test_no_tables_mean_none(self):
        empty = doc('[scenario]\nname="x"\n[run]\nschemes=["hdr"]')
        assert cycle_from_doc(empty) is None
        assert onpath_from_doc(empty) is None
        assert placement_from_doc(empty) is None
        assert faults_from_doc(empty) is None

    def test_diurnal_default_activity(self):
        cycle = cycle_from_doc(doc("[workload.diurnal]"))
        assert cycle.diurnal.activity == DEFAULT_QUERY_ACTIVITY
        assert cycle.crowds == ()

    def test_flash_crowd_hours_to_seconds(self):
        cycle = cycle_from_doc(doc("""
            [[workload.flash_crowds]]
            start_hours = 10.0
            length_hours = 2.0
            boost = 5.0
        """))
        assert cycle.diurnal is None
        (crowd,) = cycle.crowds
        assert crowd.start == 10.0 * HOUR
        assert crowd.length == 2.0 * HOUR
        assert crowd.boost == 5.0

    def test_onpath(self):
        config = onpath_from_doc(doc("""
            [caching.onpath]
            strategy = "lcd"
            capacity = 4
        """))
        assert config == OnPathConfig(strategy="lcd", capacity=4)

    def test_placement_families(self):
        pop = placement_from_doc(doc("""
            [placement]
            policy = "popularity"
            s = 1.0
            budget_fraction = 0.25
        """))
        assert pop == PopularityPlacement(s=1.0, budget_fraction=0.25)
        geo = placement_from_doc(doc("""
            [placement]
            policy = "geographic"
            spread_quantile = 0.6
        """))
        assert geo == GeographicPlacement(spread_quantile=0.6)

    def test_faults(self):
        plan = faults_from_doc(doc("""
            [faults.messages]
            loss_rate = 0.05
        """))
        assert plan.loss_rate == 0.05


SCENARIO_E4_STYLE = """
[scenario]
name = "e4-twin"
title = "Declarative twin of one E4 fast point"

[settings]
profile = "small"
duration_hours = 72.0
seeds = [1, 2]
num_caching_nodes = 5
num_items = 4
num_sources = 1
refresh_interval_hours = 2.0
probe_interval_minutes = 20.0

[run]
schemes = ["hdr", "source"]
"""


class TestMetricsIdentity:
    def test_scenario_matches_handwritten_sweep(self, tmp_path):
        """The acceptance-criteria proof: running a registry scenario is
        RunMetrics-identical (same_as, NaN-aware) to the handwritten
        SweepPoint an experiment module would build for the same
        configuration -- here the shape of E4's fast preset at one
        refresh interval."""
        path = tmp_path / "e4-twin.toml"
        path.write_text(SCENARIO_E4_STYLE)
        _, sweep_points = compose_scenario(load_scenario(path))
        handwritten = SweepPoint(
            settings=Settings.fast().with_(refresh_interval=2.0 * HOUR,
                                           seeds=(1, 2)),
            schemes=("hdr", "source"),
        )
        assert sweep_points == [handwritten]
        (from_scenario,) = run_sweep(sweep_points)
        (from_code,) = run_sweep([handwritten])
        assert set(from_scenario) == set(from_code) == {"hdr", "source"}
        for scheme, runs in from_code.items():
            assert len(from_scenario[scheme]) == len(runs)
            for mine, theirs in zip(from_scenario[scheme], runs):
                assert mine.same_as(theirs)

    def test_soa_point_matches_object_point(self, tmp_path):
        """The committed parity scenario really is metric-identical
        across engines."""
        from pathlib import Path

        scenario = load_scenario(Path(__file__).resolve().parents[1]
                                 / "scenarios" / "soa-baseline.toml")
        grid_points, sweep_points = compose_scenario(scenario)
        assert [p.label for p in grid_points] == ["engine=object",
                                                  "engine=soa"]
        quick = [
            SweepPoint(
                settings=p.settings.with_(duration=24 * HOUR, seeds=(1,)),
                schemes=("hdr",),
                backend=p.backend,
            )
            for p in sweep_points
        ]
        object_runs, soa_runs = run_sweep(quick)
        for mine, theirs in zip(object_runs["hdr"], soa_runs["hdr"]):
            assert mine.same_as(theirs)


class TestComposeErrors:
    def test_bad_scheme_surfaces_before_any_run(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('[scenario]\nname="bad"\n[run]\nschemes=["nope"]')
        from repro.scenarios import ScenarioError

        with pytest.raises(ScenarioError) as err:
            compose_scenario(load_scenario(path))
        assert "nope" in str(err.value)

    def test_sweep_point_defaults(self):
        point = sweep_point_from_doc(
            doc('[scenario]\nname="x"\n[run]\nschemes=["hdr"]')
        )
        assert point.backend == "object"
        assert point.with_queries is False
        assert point.fault_plan is None
        assert point.placement is None
        assert point.onpath is None
        assert point.cycle is None
