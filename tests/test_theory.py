"""Property and integration tests for the analytical freshness model."""

import math

import numpy as np
import pytest

from repro.caching.items import DataCatalog
from repro.contacts.rates import RateTable
from repro.core.hierarchy import RefreshTree
from repro.core.replication import (
    contact_probability,
    expected_fresh_fraction,
    two_hop_probability,
)
from repro.theory import (
    DelayDistribution,
    FreshnessModel,
    ModelReport,
    agreement_band,
    compare,
    edge_delivery_cdf,
    measured_values,
    relay_path_probability,
)


def exponential_distribution(rate, horizon=40.0):
    return DelayDistribution.from_function(
        lambda t: contact_probability(rate, t), horizon=horizon
    )


class TestClosedFormProperties:
    @pytest.mark.parametrize("rate", [0.1, 1.0, 5.0])
    def test_edge_cdf_monotone_in_window(self, rate):
        values = [edge_delivery_cdf(rate, [], t) for t in np.linspace(0, 10, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_edge_cdf_monotone_in_rate(self):
        t = 2.0
        values = [edge_delivery_cdf(r, [], t) for r in np.linspace(0.01, 5, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_edge_cdf_approaches_one(self):
        assert edge_delivery_cdf(0.5, [], 1e4) == pytest.approx(1.0)
        assert edge_delivery_cdf(0.0, [(1.0, 1.0)], 1e4) == pytest.approx(1.0)

    def test_relays_only_help(self):
        with_relay = edge_delivery_cdf(0.5, [(1.0, 1.0)], 2.0)
        without = edge_delivery_cdf(0.5, [], 2.0)
        assert with_relay >= without

    def test_relay_path_first_stage_is_two_hop(self):
        assert relay_path_probability(2.0, 1, 0.7, 1.5) == pytest.approx(
            two_hop_probability(2.0, 0.7, 1.5)
        )

    def test_relay_path_later_recruits_deliver_later(self):
        # Erlang(i+1) waits dominate Erlang(i) stochastically.
        for t in (0.5, 1.0, 3.0, 10.0):
            probs = [relay_path_probability(2.0, i, 0.8, t) for i in (1, 2, 3)]
            assert probs[0] >= probs[1] >= probs[2]

    def test_relay_path_equal_rates_erlang(self):
        # pool == delivery rate: the path delay is Erlang(stages + 1).
        rate, t = 1.3, 2.0
        expected = 1.0 - math.exp(-rate * t) * sum(
            (rate * t) ** n / math.factorial(n) for n in range(3)
        )
        assert relay_path_probability(rate, 2, rate, t) == pytest.approx(expected)

    def test_relay_path_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        pool, stages, mu, t = 1.5, 3, 0.6, 4.0
        sample = rng.gamma(stages, 1 / pool, 200_000) + rng.exponential(
            1 / mu, 200_000
        )
        assert relay_path_probability(pool, stages, mu, t) == pytest.approx(
            float((sample <= t).mean()), abs=0.005
        )


class TestDelayDistribution:
    def test_convolution_matches_hypoexponential(self):
        a = exponential_distribution(1.0)
        b = DelayDistribution.from_function(
            lambda t: contact_probability(2.0, t), horizon=40.0
        )
        two = a.convolve(b)
        for t in (0.5, 1.0, 2.0, 5.0):
            assert two.at(t) == pytest.approx(
                two_hop_probability(1.0, 2.0, t), abs=1e-3
            )

    def test_fresh_fraction_matches_closed_form(self):
        for rate_x_interval in (0.3, 1.0, 4.0):
            rate = rate_x_interval / 2.0
            dist = exponential_distribution(rate, horizon=40.0)
            assert dist.fresh_fraction(2.0) == pytest.approx(
                expected_fresh_fraction(rate, 2.0), abs=5e-4
            )

    def test_fresh_fraction_monotone_in_rate(self):
        fractions = [
            exponential_distribution(rate).fresh_fraction(2.0)
            for rate in (0.1, 0.5, 1.0, 3.0)
        ]
        assert all(b > a for a, b in zip(fractions, fractions[1:]))

    def test_valid_fraction_bounds_and_monotonicity(self):
        dist = exponential_distribution(0.8, horizon=60.0)
        values = [dist.valid_fraction(2.0, lifetime) for lifetime in (2.0, 4.0, 8.0)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values[0] <= values[1] <= values[2]
        assert dist.valid_fraction(2.0, 4.0) >= dist.fresh_fraction(2.0)

    def test_valid_fraction_approaches_one_with_long_lifetime(self):
        dist = exponential_distribution(0.8, horizon=60.0)
        assert dist.valid_fraction(2.0, 500.0) > 0.99


class TestFreshnessModel:
    def chain_model(self, rate01=1.0, rate12=0.5, interval=1.0):
        rates = RateTable({(0, 1): rate01, (1, 2): rate12})
        tree = RefreshTree(root=0)
        tree.attach(1, 0)
        tree.attach(2, 1)
        catalog = DataCatalog.uniform(
            num_items=1, sources=[0], refresh_interval=interval,
            lifetime=2 * interval,
        )
        return FreshnessModel(rates, {0: tree}, {}, catalog)

    def test_depth_one_reduces_to_closed_forms(self):
        prediction = self.chain_model().predict()
        p1 = prediction.nodes[(0, 1)]
        assert p1.on_time == pytest.approx(contact_probability(1.0, 1.0), abs=1e-4)
        assert p1.fresh == pytest.approx(
            expected_fresh_fraction(1.0, 1.0), abs=1e-4
        )

    def test_depth_two_is_hop_convolution(self):
        prediction = self.chain_model().predict()
        p2 = prediction.nodes[(0, 2)]
        assert p2.on_time == pytest.approx(
            two_hop_probability(1.0, 0.5, 1.0), abs=1e-3
        )
        assert p2.depth == 2

    def test_on_time_monotone_in_interval(self):
        values = [
            self.chain_model(interval=w).predict().on_time_ratio
            for w in (0.5, 1.0, 2.0, 8.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.95  # window -> infinity: delivery certain

    def test_deeper_nodes_are_staler(self):
        prediction = self.chain_model().predict()
        assert prediction.nodes[(0, 1)].fresh > prediction.nodes[(0, 2)].fresh

    def test_empty_trees_raise(self):
        rates = RateTable({})
        catalog = DataCatalog.uniform(
            num_items=1, sources=[0], refresh_interval=1.0, lifetime=2.0
        )
        with pytest.raises(ValueError):
            FreshnessModel(rates, {}, {}, catalog)

    def test_summary_keys_match_run_metrics_fields(self):
        from repro.experiments.runner import RunMetrics

        metrics = RunMetrics(
            scheme="hdr", seed=1, freshness=0.0, validity=0.0, messages=0,
            messages_per_update=0.0, on_time_ratio=0.0, refresh_delay=0.0,
        )
        summary = self.chain_model().predict().summary()
        for name in summary:
            assert hasattr(metrics, name)


class TestFromRuntime:
    @pytest.fixture(scope="class")
    def runtime(self):
        from repro.core.scheme import build_simulation
        from repro.experiments import Settings
        from repro.experiments.runner import (
            choose_sources,
            make_catalog,
            make_trace,
        )

        settings = Settings.fast()
        trace = make_trace(settings, seed=1)
        catalog = make_catalog(settings, choose_sources(trace, settings))
        return build_simulation(
            trace, catalog, scheme="hdr",
            num_caching_nodes=settings.num_caching_nodes, seed=1,
        )

    def test_prediction_covers_every_tree_member(self, runtime):
        prediction = FreshnessModel.from_runtime(runtime).predict()
        expected = sum(len(tree.members) for tree in runtime.trees.values())
        assert len(prediction.nodes) == expected
        for p in prediction.nodes.values():
            assert 0.0 <= p.fresh <= p.valid <= 1.0
            assert 0.0 <= p.on_time <= 1.0

    def test_requesters_counted_like_schedule_queries(self, runtime):
        model = FreshnessModel.from_runtime(runtime, query_rate=1.0)
        expected = (
            len(runtime.nodes)
            - len(set(runtime.sources))
            - len(set(runtime.caching_nodes))
        )
        assert model.num_requesters == expected

    def test_soa_runtime_predicts_like_object_runtime(self, runtime):
        """Both executors wire the same rates, trees, plans and nodes, so
        the model reads the same prediction from either runtime."""
        from repro.core.scheme import build_simulation
        from repro.experiments import Settings
        from repro.experiments.runner import (
            choose_sources,
            make_catalog,
            make_trace,
        )

        settings = Settings.fast()
        trace = make_trace(settings, seed=1)
        catalog = make_catalog(settings, choose_sources(trace, settings))
        soa = build_simulation(
            trace, catalog, scheme="hdr",
            num_caching_nodes=settings.num_caching_nodes, seed=1,
            backend="soa",
        )
        from_object = FreshnessModel.from_runtime(runtime, query_rate=1e-4)
        from_soa = FreshnessModel.from_runtime(soa, query_rate=1e-4)
        assert from_soa.num_requesters == from_object.num_requesters > 0
        assert (from_soa.predict().summary()
                == from_object.predict().summary())

    def test_unreadable_runtime_raises_named_error(self, runtime):
        from types import SimpleNamespace

        from repro.theory import UnsupportedRuntime

        partial = SimpleNamespace(sources=runtime.sources,
                                  caching_nodes=runtime.caching_nodes)
        with pytest.raises(UnsupportedRuntime, match="node_ids"):
            FreshnessModel.from_runtime(partial)

    def test_prediction_is_passive(self, monkeypatch):
        """Predicting reads only static wiring and draws no randomness,
        so a prediction evaluated between build and run leaves every
        metric of the run unchanged."""
        from repro.experiments import Settings, runner

        settings = Settings.fast()
        trace = runner.make_trace(settings, seed=1)
        baseline = runner.run_once(trace, "hdr", settings, seed=1,
                                   with_queries=True)
        build = runner.build_simulation
        predictions = []

        def build_then_predict(*args, **kwargs):
            runtime = build(*args, **kwargs)
            predictions.append(FreshnessModel.from_runtime(runtime).predict())
            return runtime

        monkeypatch.setattr(runner, "build_simulation", build_then_predict)
        predicted = runner.run_once(trace, "hdr", settings, seed=1,
                                    with_queries=True)
        assert len(predictions) == 1 and predictions[0].nodes
        assert predicted.same_as(baseline)

    def test_epidemic_scheme_raises(self):
        from repro.core.scheme import build_simulation
        from repro.experiments import Settings
        from repro.experiments.runner import (
            choose_sources,
            make_catalog,
            make_trace,
        )

        settings = Settings.fast()
        trace = make_trace(settings, seed=1)
        catalog = make_catalog(settings, choose_sources(trace, settings))
        runtime = build_simulation(
            trace, catalog, scheme="flooding",
            num_caching_nodes=settings.num_caching_nodes, seed=1,
        )
        with pytest.raises(ValueError):
            FreshnessModel.from_runtime(runtime)


class TestValidation:
    def prediction(self):
        rates = RateTable({(0, 1): 1.0})
        tree = RefreshTree(root=0)
        tree.attach(1, 0)
        catalog = DataCatalog.uniform(
            num_items=1, sources=[0], refresh_interval=1.0, lifetime=2.0
        )
        return FreshnessModel(rates, {0: tree}, {}, catalog).predict()

    def test_band_grows_with_ks(self):
        assert agreement_band(0.0) == pytest.approx(0.05)
        assert agreement_band(0.1) > agreement_band(0.05) > agreement_band(0.0)
        with pytest.raises(ValueError):
            agreement_band(-0.1)

    def test_compare_without_measurements_is_vacuous(self):
        report = compare(self.prediction())
        assert report.agreement
        assert math.isnan(report.max_error)

    def test_compare_flags_out_of_band_metric(self):
        prediction = self.prediction()
        measured = dict(prediction.summary())
        measured["freshness"] += 0.5
        report = compare(prediction, measured, tolerance=0.1)
        assert not report.agreement
        assert report.max_error == pytest.approx(0.5)
        row = next(r for r in report.rows if r.metric == "freshness")
        assert not row.within

    def test_measured_values_from_registry_snapshot(self):
        snapshot = {
            "counters": {},
            "gauges": {
                "probe.fresh_slots": 3,
                "probe.valid_slots": 4,
                "probe.total_slots": 8,
            },
        }
        values = measured_values(snapshot)
        assert values == {"freshness": 0.375, "validity": 0.5}

    def test_records_round_trip_through_jsonl(self, tmp_path):
        from repro.obs.export import load_trace, write_jsonl

        prediction = self.prediction()
        report = compare(prediction, prediction.summary(), tolerance=0.05)
        path = tmp_path / "model.jsonl"
        write_jsonl(report.records(time=42.0), path)
        records = load_trace(path)
        assert len(records) == len(report.rows)
        assert all(r.kind == "model.predict" for r in records)
        assert records[0].time == 42.0
        assert records[0].error == pytest.approx(0.0)

    def test_report_format_mentions_tolerance(self):
        report = compare(self.prediction(), tolerance=0.123)
        assert "0.123" in report.format()
        assert isinstance(report, ModelReport)


class TestExportJson:
    def test_prediction_payload_is_strict_json(self, tmp_path):
        import json

        from repro.analysis.export import export_json

        rates = RateTable({(0, 1): 1.0})
        tree = RefreshTree(root=0)
        tree.attach(1, 0)
        catalog = DataCatalog.uniform(
            num_items=1, sources=[0], refresh_interval=1.0, lifetime=2.0
        )
        prediction = FreshnessModel(rates, {0: tree}, {}, catalog).predict()
        path = tmp_path / "prediction.json"
        export_json(path, {"nan": float("nan"), **prediction.as_dict()})
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["nan"] is None  # strict JSON: non-finite -> null
        assert payload["summary"]["freshness"] == pytest.approx(
            expected_fresh_fraction(1.0, 1.0), abs=1e-4
        )
