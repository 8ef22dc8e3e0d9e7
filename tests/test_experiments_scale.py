"""Tests for the scaling benchmark helpers (synthetic schedule + one
measured point per process)."""

from repro.experiments.scale import (
    DAY,
    _pick_sources,
    run_scale_point,
    synthetic_arrays,
    synthetic_trace,
)


class TestSyntheticTrace:
    def test_every_node_exists_even_without_contacts(self):
        trace = synthetic_trace(50, contacts_per_node=0.5, seed=3)
        assert trace.num_nodes == 50
        assert set(trace.node_ids) == set(range(50))

    def test_endpoints_are_distinct(self):
        trace = synthetic_trace(40, seed=1)
        assert all(c.a != c.b for c in trace)

    def test_contact_volume_scales_with_density(self):
        # The trace may merge the occasional overlapping same-pair draw,
        # so the ratio is approximate.
        sparse = synthetic_trace(100, contacts_per_node=4.0, seed=0)
        dense = synthetic_trace(100, contacts_per_node=16.0, seed=0)
        assert 3.5 * len(sparse) <= len(dense) <= 4 * len(sparse)

    def test_same_seed_is_deterministic(self):
        a = synthetic_trace(30, seed=7)
        b = synthetic_trace(30, seed=7)
        assert [(c.a, c.b, c.start, c.end) for c in a] == \
            [(c.a, c.b, c.start, c.end) for c in b]

    def test_sources_are_sorted_and_in_range(self):
        sources = _pick_sources(synthetic_arrays(80, seed=2), 4)
        assert sources == sorted(sources)
        assert all(0 <= s < 80 for s in sources)
        assert len(sources) == 4


class TestRunScalePoint:
    def test_point_shape(self):
        point = run_scale_point(
            60, backend="soa", duration=0.25 * DAY,
            contacts_per_node=6.0, num_caching_nodes=6, num_items=2,
        )
        assert point["nodes"] == 60
        assert point["backend"] == "soa"
        assert point["events"] > 0
        assert point["events_per_sec"] > 0
        assert point["peak_rss_mb"] > 0
        assert point["run_s"] >= 0

    def test_backends_agree_on_messages(self):
        kwargs = dict(duration=0.25 * DAY, contacts_per_node=6.0,
                      num_caching_nodes=6, num_items=2)
        soa = run_scale_point(60, backend="soa", **kwargs)
        obj = run_scale_point(60, backend="object", **kwargs)
        assert soa["messages"] == obj["messages"]
        assert soa["freshness"] == obj["freshness"]
        assert soa["contacts"] == obj["contacts"]
