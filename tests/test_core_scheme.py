"""Tests for scheme configuration and simulation wiring."""

import numpy as np
import pytest

from repro.caching.items import DataCatalog
from repro.core.scheme import (
    SCHEMES,
    SchemeConfig,
    build_simulation,
    scheme_variant,
)
from repro.mobility.calibration import get_profile


@pytest.fixture(scope="module")
def small_trace():
    return get_profile("small").generate(np.random.default_rng(11), duration=86400.0)


@pytest.fixture(scope="module")
def catalog(small_trace):
    source = small_trace.node_ids[0]
    return DataCatalog.uniform(
        num_items=3, sources=[source], refresh_interval=4 * 3600.0
    )


class TestSchemeConfig:
    def test_known_schemes(self):
        assert set(SCHEMES) == {
            "hdr", "flat", "random", "source", "flooding", "invalidate", "none"
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(name="x", structure="weird")
        with pytest.raises(ValueError):
            SchemeConfig(name="x", structure="tree", assignment="weird")
        with pytest.raises(ValueError):
            SchemeConfig(name="x", structure="tree", max_relays=-1)
        with pytest.raises(ValueError):
            SchemeConfig(name="x", structure="tree", relay_budget=-1)

    def test_effective_relay_budget_default(self):
        config = SchemeConfig(name="x", structure="tree", fanout=3, max_relays=5)
        assert config.effective_relay_budget == 15
        explicit = SchemeConfig(name="x", structure="tree", relay_budget=7)
        assert explicit.effective_relay_budget == 7

    def test_scheme_variant_overrides(self):
        variant = scheme_variant("hdr", max_relays=2)
        assert variant.max_relays == 2
        assert variant.structure == "tree"
        assert "max_relays=2" in variant.name

    def test_scheme_variant_custom_name(self):
        assert scheme_variant("hdr", max_relays=2, name="x").name == "x"

    def test_source_scheme_has_no_relays(self):
        assert SCHEMES["source"].max_relays == 0
        assert SCHEMES["source"].structure == "star"


class TestBuildSimulation:
    def test_wires_trees_for_every_item(self, small_trace, catalog):
        runtime = build_simulation(small_trace, catalog, scheme="hdr",
                                   num_caching_nodes=5, seed=1)
        assert set(runtime.trees) == {0, 1, 2}
        for item in catalog:
            tree = runtime.trees[item.item_id]
            assert tree.root == item.source
            assert tree.members == set(runtime.caching_nodes)
            tree.validate()

    def test_star_scheme_builds_depth_one(self, small_trace, catalog):
        runtime = build_simulation(small_trace, catalog, scheme="flat",
                                   num_caching_nodes=5, seed=1)
        assert all(t.max_depth == 1 for t in runtime.trees.values())

    def test_flooding_scheme_has_no_trees(self, small_trace, catalog):
        runtime = build_simulation(small_trace, catalog, scheme="flooding",
                                   num_caching_nodes=5, seed=1)
        assert runtime.trees == {}
        assert runtime.plans == {}

    def test_plans_cover_every_edge(self, small_trace, catalog):
        runtime = build_simulation(small_trace, catalog, scheme="hdr",
                                   num_caching_nodes=5, seed=1)
        for item_id, tree in runtime.trees.items():
            for parent, child in tree.edges():
                assert (item_id, parent, child) in runtime.plans

    def test_caching_nodes_exclude_sources(self, small_trace, catalog):
        runtime = build_simulation(small_trace, catalog, scheme="hdr",
                                   num_caching_nodes=5, seed=1)
        assert not set(runtime.caching_nodes) & set(runtime.sources)
        assert len(runtime.caching_nodes) == 5

    def test_explicit_caching_nodes(self, small_trace, catalog):
        source = catalog.get(0).source
        picked = [n for n in small_trace.node_ids if n != source][:4]
        runtime = build_simulation(small_trace, catalog, scheme="hdr",
                                   caching_nodes=picked, seed=1)
        assert runtime.caching_nodes == sorted(picked)

    def test_explicit_caching_nodes_overlapping_source_rejected(
        self, small_trace, catalog
    ):
        source = catalog.get(0).source
        with pytest.raises(ValueError, match="both sources and caching"):
            build_simulation(small_trace, catalog, scheme="hdr",
                             caching_nodes=[source], seed=1)

    def test_unknown_source_rejected(self, small_trace):
        bad = DataCatalog.uniform(1, sources=[9999], refresh_interval=3600.0)
        with pytest.raises(ValueError, match="not in the trace"):
            build_simulation(small_trace, bad, scheme="hdr", num_caching_nodes=3)

    def test_seeding_gives_version_one_everywhere(self, small_trace, catalog):
        runtime = build_simulation(small_trace, catalog, scheme="hdr",
                                   num_caching_nodes=5, seed=1)
        fresh, valid, total = runtime.freshness_snapshot()
        assert total == 5 * 3
        assert valid == total

    def test_none_scheme_only_expires(self, small_trace, catalog):
        runtime = build_simulation(small_trace, catalog, scheme="none",
                                   num_caching_nodes=5, seed=1)
        runtime.run(until=86400.0)
        fresh, valid, total = runtime.freshness_snapshot()
        assert fresh == 0  # versions moved on, nobody was refreshed
        assert runtime.refresh_overhead() == 0

    def test_query_plane_optional(self, small_trace, catalog):
        without = build_simulation(small_trace, catalog, scheme="hdr",
                                   num_caching_nodes=5, seed=1)
        assert without.query_managers == {}
        with_q = build_simulation(small_trace, catalog, scheme="hdr",
                                  num_caching_nodes=5, seed=1, with_queries=True)
        assert set(with_q.query_managers) == set(small_trace.node_ids)

    def test_freshness_probe_records(self, small_trace, catalog):
        runtime = build_simulation(small_trace, catalog, scheme="flooding",
                                   num_caching_nodes=5, seed=1)
        runtime.install_freshness_probe(interval=3600.0, until=86400.0)
        runtime.run(until=86400.0)
        series = runtime.stats.series("probe.freshness")
        assert len(series) == 24
        assert all(0.0 <= v <= 1.0 for v in series.values)

    def test_probe_interval_validated(self, small_trace, catalog):
        runtime = build_simulation(small_trace, catalog, scheme="hdr",
                                   num_caching_nodes=5, seed=1)
        with pytest.raises(ValueError):
            runtime.install_freshness_probe(interval=0.0, until=100.0)

    def test_refresh_overhead_counts_kinds(self, small_trace, catalog):
        runtime = build_simulation(small_trace, catalog, scheme="hdr",
                                   num_caching_nodes=5, seed=1)
        runtime.run(until=86400.0)
        expected = (
            runtime.stats.counter_value("net.transfers.refresh")
            + runtime.stats.counter_value("net.transfers.refresh_relay")
        )
        assert runtime.refresh_overhead() == expected
        assert expected > 0

    def test_update_log_grows(self, small_trace, catalog):
        runtime = build_simulation(small_trace, catalog, scheme="hdr",
                                   num_caching_nodes=5, seed=1)
        runtime.run(until=86400.0)
        seeds = [u for u in runtime.update_log if u.via == "seed"]
        real = [u for u in runtime.update_log if u.via != "seed"]
        assert len(seeds) == 15
        assert len(real) > 0
        assert all(u.delay >= 0 for u in real)

    def test_store_capacity_bounds_every_store(self, small_trace, catalog):
        from repro.caching.store import EvictionPolicy

        runtime = build_simulation(
            small_trace, catalog, scheme="hdr", num_caching_nodes=5, seed=1,
            store_capacity=2, eviction_policy=EvictionPolicy.FIFO,
        )
        runtime.run(until=86400.0)
        for store in runtime.stores.values():
            assert len(store) <= 2
            assert store.policy is EvictionPolicy.FIFO
        # 3 items seeded into capacity-2 stores: evictions must have happened
        assert sum(store.evictions for store in runtime.stores.values()) > 0
