"""SoA backend equivalence tests.

The vectorised structure-of-arrays executor (``repro.core.soa``) must be
*metric-identical* to the object backend: every probe sample, message
counter, and update-log aggregate agrees field-for-field
(``RunMetrics.same_as``).  These tests pin that contract:

- an exact sweep over every SoA-supported scheme at a fixed seed;
- a hypothesis property test over random (scheme, seed) draws;
- the same identity with the event slab shrunk to a handful of events,
  forcing many slab reloads and the timestamp-alignment edge cases;
- unsupported options (queries, tracing, the invalidate scheme) must be
  rejected loudly rather than silently ignored.
"""

import pytest
from hypothesis import HealthCheck, given, settings as hsettings
from hypothesis import strategies as st

from repro.core import soa as soa_module
from repro.experiments.config import DAY, Settings
from repro.experiments.runner import make_trace, run_once

#: Every scheme the SoA executor supports ("invalidate" is object-only).
SOA_SCHEMES = ("hdr", "flat", "random", "source", "flooding", "none")


def small_settings(duration_days: float = 2.0) -> Settings:
    return Settings.fast().with_(duration=duration_days * DAY)


def run_both(scheme: str, seed: int, settings: Settings):
    trace = make_trace(settings, seed)
    obj = run_once(trace, scheme, settings, seed=seed, backend="object")
    soa = run_once(trace, scheme, settings, seed=seed, backend="soa")
    return obj, soa


class TestBackendEquivalence:
    @pytest.mark.parametrize("scheme", SOA_SCHEMES)
    def test_identical_metrics_per_scheme(self, scheme):
        obj, soa = run_both(scheme, seed=3, settings=small_settings())
        assert obj.same_as(soa), f"{scheme}: SoA diverged from object backend"

    @hsettings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scheme=st.sampled_from(SOA_SCHEMES),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_identical_metrics_random_draws(self, scheme, seed):
        obj, soa = run_both(scheme, seed=seed, settings=small_settings())
        assert obj.same_as(soa), (
            f"{scheme} seed={seed}: SoA diverged from object backend"
        )

    def test_identical_with_tiny_slabs(self, monkeypatch):
        """Shrinking the slab forces reloads mid-run; slab boundaries
        must never split a timestamp's events across batches."""
        monkeypatch.setattr(soa_module, "SLAB_EVENTS", 7)
        obj, soa = run_both("hdr", seed=1, settings=small_settings())
        assert obj.same_as(soa)

    def test_identical_without_refresh_jitter(self):
        settings = small_settings().with_(refresh_jitter=0.0)
        obj, soa = run_both("hdr", seed=2, settings=settings)
        assert obj.same_as(soa)


class TestBackendValidation:
    def test_unknown_backend_rejected(self):
        settings = small_settings()
        trace = make_trace(settings, 1)
        with pytest.raises(ValueError, match="backend"):
            run_once(trace, "hdr", settings, seed=1, backend="gpu")

    def test_queries_rejected_on_soa(self):
        settings = small_settings()
        trace = make_trace(settings, 1)
        with pytest.raises(ValueError, match="quer"):
            run_once(trace, "hdr", settings, seed=1, backend="soa",
                     with_queries=True)

    def test_invalidate_scheme_rejected_on_soa(self):
        settings = small_settings()
        trace = make_trace(settings, 1)
        with pytest.raises(ValueError):
            run_once(trace, "invalidate", settings, seed=1, backend="soa")


def _feature_requests(feature: str):
    """How each layer asks for one feature the soa executor cannot run:
    (scenario-document tables, sweep-point fields, ``build_simulation``
    keywords), ``None`` where a layer cannot express the feature.
    Tracing reaches a sweep only through the ambient sink."""
    from repro.caching.onpath import OnPathConfig
    from repro.caching.placement import PopularityPlacement
    from repro.faults.plan import FaultPlan
    from repro.obs.bus import EventBus
    from repro.sim.network import LinkModel
    from repro.workloads.cycles import DiurnalCycle, QueryCycle

    queries = {"with_queries": True}
    return {
        "queries": ({"run": queries}, queries, queries),
        "cycle": ({"run": queries, "workload": {"diurnal": {}}},
                  {**queries, "cycle": QueryCycle(diurnal=DiurnalCycle())},
                  None),
        "faults": ({"faults": {"messages": {"loss_rate": 0.1}}},
                   {"fault_plan": FaultPlan(loss_rate=0.1)}, None),
        "tracing": (None, "ambient sink", {"bus": EventBus()}),
        "placement": ({"placement": {"policy": "popularity"}},
                      {"placement": PopularityPlacement()},
                      {"placement": PopularityPlacement()}),
        "onpath": ({"run": queries, "caching": {"onpath": {"strategy": "lce"}}},
                   {**queries, "onpath": OnPathConfig()},
                   {**queries, "onpath": OnPathConfig()}),
        "link_model": (None, None, {"link_model": LinkModel()}),
        "record_transfers": (None, None, {"record_transfers": True}),
        "invalidate": ({"run": {"schemes": ["invalidate"]}},
                       {"schemes": ("invalidate",)}, {"scheme": "invalidate"}),
    }[feature]


class TestOneCapabilityTable:
    """The registry, sweep validation and ``build_simulation`` reject
    every feature of ``repro.core.soa.UNSUPPORTED`` they can express,
    each reading the one table."""

    @pytest.mark.parametrize("feature", sorted(soa_module.UNSUPPORTED))
    def test_every_layer_rejects(self, feature, tmp_path):
        from repro.core.scheme import build_simulation
        from repro.experiments.parallel import SweepPoint, build_jobs
        from repro.experiments.runner import (
            choose_sources,
            make_catalog,
            trace_output,
        )
        from repro.scenarios import validate_doc

        doc_tables, point_fields, build_kwargs = _feature_requests(feature)
        name = soa_module.UNSUPPORTED[feature]
        settings = small_settings()
        if doc_tables is not None:
            doc = {"scenario": {"name": "x"},
                   "run": {"schemes": ["hdr"], "backend": "soa"}}
            for table, values in doc_tables.items():
                doc.setdefault(table, {}).update(values)
            errors = validate_doc(doc)
            assert any("backend = 'soa' does not support" in e
                       for e in errors), errors
        if point_fields == "ambient sink":
            point = SweepPoint(settings=settings, schemes=("hdr",),
                               backend="soa")
            with pytest.raises(ValueError, match=name):
                with trace_output(tmp_path / "t.jsonl"):
                    build_jobs([point])
        elif point_fields is not None:
            point = SweepPoint(settings=settings, backend="soa",
                               **{"schemes": ("hdr",), **point_fields})
            with pytest.raises(ValueError, match=name):
                build_jobs([point])
        if build_kwargs is not None:
            trace = make_trace(settings, 1)
            catalog = make_catalog(settings, choose_sources(trace, settings))
            with pytest.raises(ValueError, match=name):
                build_simulation(trace, catalog, backend="soa", **build_kwargs)
