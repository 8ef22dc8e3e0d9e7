"""Tests for dynamic hierarchy maintenance and churn."""

import numpy as np
import pytest

from repro.caching.items import DataCatalog
from repro.contacts.rates import RateTable
from repro.core.hierarchy import RefreshTree
from repro.core.maintenance import (
    ChurnProcess,
    HierarchyManager,
    managers_for_runtime,
)
from repro.core.plan import RefreshPlan, plan_refresh
from repro.core.replication import plan_edge
from repro.core.scheme import SCHEMES, build_simulation, scheme_variant
from repro.mobility.calibration import get_profile
from tests.reference_paths import relay_candidates_all

DAY = 86400.0


def full_mesh_rates(n, rate=1.0):
    table = RateTable()
    for i in range(n):
        for j in range(i + 1, n):
            table.set(i, j, rate * (1 + 0.01 * (i + j)))
    return table


def make_manager(members=range(1, 8), fanout=3, max_depth=3, rates=None):
    """A manager of item 0 in a one-item hdr plan: source 0, ``members``
    caching, nodes 0-9."""
    plan = plan_refresh(
        scheme_variant("hdr", fanout=fanout, max_depth=max_depth, max_relays=3),
        DataCatalog.uniform(1, sources=[0], refresh_interval=3600.0),
        node_ids=range(10),
        rates=rates or full_mesh_rates(10),
        rng=np.random.default_rng(0),
        caching_nodes=list(members),
    )
    return HierarchyManager(plan, 0, fanout=fanout, max_depth=max_depth)


class TestHierarchyManager:
    def test_add_member_attaches_and_plans(self):
        manager = make_manager(members=range(1, 5))
        parent = manager.add_member(8)
        assert manager.tree.parent_of(8) == parent
        assert (0, parent, 8) in manager.plan.plans
        manager.tree.validate(max_depth=manager.max_depth)
        assert manager.stats.joins == 1

    def test_add_existing_member_rejected(self):
        manager = make_manager()
        with pytest.raises(ValueError):
            manager.add_member(1)

    def test_remove_leaf(self):
        manager = make_manager()
        leaf = next(n for n in manager.tree.members if not manager.tree.children_of(n))
        parent = manager.tree.parent_of(leaf)
        reattached = manager.remove_member(leaf)
        assert reattached == []
        assert leaf not in manager.tree.nodes
        assert (0, parent, leaf) not in manager.plan.plans
        manager.tree.validate()

    def test_remove_interior_reattaches_orphans(self):
        manager = make_manager()
        interior = next(n for n in manager.tree.members if manager.tree.children_of(n))
        orphans_before = set()
        stack = list(manager.tree.children_of(interior))
        while stack:
            node = stack.pop()
            orphans_before.add(node)
            stack.extend(manager.tree.children_of(node))
        reattached = manager.remove_member(interior)
        assert set(reattached) == orphans_before
        assert interior not in manager.tree.nodes
        for orphan in orphans_before:
            assert orphan in manager.tree.nodes
            assert (0, manager.tree.parent_of(orphan), orphan) in manager.plan.plans
        manager.tree.validate(max_depth=manager.max_depth)
        assert manager.stats.reattachments == len(orphans_before)

    def test_remove_root_rejected(self):
        manager = make_manager()
        with pytest.raises(ValueError):
            manager.remove_member(0)

    def test_remove_unknown_rejected(self):
        manager = make_manager()
        with pytest.raises(ValueError):
            manager.remove_member(42)

    def test_plans_of_departed_node_dropped(self):
        manager = make_manager()
        interior = next(n for n in manager.tree.members if manager.tree.children_of(n))
        manager.remove_member(interior)
        assert not any(
            interior in (key[1], key[2]) for key in manager.plan.plans
        )

    def test_repeated_churn_preserves_invariants(self):
        rng = np.random.default_rng(2)
        manager = make_manager(members=range(1, 8))
        present = set(manager.tree.members)
        absent = set()
        for _ in range(60):
            if present and (not absent or rng.random() < 0.5):
                node = int(rng.choice(sorted(present)))
                manager.remove_member(node)
                present.discard(node)
                absent.add(node)
            else:
                node = int(rng.choice(sorted(absent)))
                manager.add_member(node)
                absent.discard(node)
                present.add(node)
            manager.tree.validate(max_depth=manager.max_depth)
            assert manager.tree.members == present
            # every edge of the tree has a live plan, and no plan is stale
            edges = {(0, p, c) for p, c in manager.tree.edges()}
            assert edges == set(manager.plan.plans)

    def test_random_churn_sequences_preserve_invariants_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            st.lists(
                st.tuples(st.booleans(), st.integers(min_value=1, max_value=7)),
                max_size=40,
            ),
            st.integers(min_value=0, max_value=1000),
        )
        @settings(max_examples=30, deadline=None)
        def run_sequence(ops, seed):
            rng = np.random.default_rng(seed)
            rates = full_mesh_rates(10)
            # jitter rates so different seeds build different trees
            jittered = RateTable()
            for (a, b), rate in rates.pairs():
                jittered.set(a, b, rate * (1 + rng.random()))
            manager = make_manager(members=range(1, 8), rates=jittered)
            present = set(manager.tree.members)
            for leave, node in ops:
                if leave and node in present:
                    manager.remove_member(node)
                    present.discard(node)
                elif not leave and node not in present:
                    manager.add_member(node)
                    present.add(node)
            manager.tree.validate(max_depth=manager.max_depth)
            assert manager.tree.members == present
            edges = {(0, p, c) for p, c in manager.tree.edges()}
            assert edges == set(manager.plan.plans)

        run_sequence()

    def test_rate_aware_reattachment(self):
        # node 5's best surviving contact is node 2 by a wide margin
        rates = RateTable({(0, 1): 1.0, (1, 5): 1.0, (0, 2): 1.0, (2, 5): 50.0,
                           (0, 3): 1.0})
        tree = RefreshTree(root=0)
        tree.attach(1, 0)
        tree.attach(2, 0)
        tree.attach(3, 0)
        tree.attach(5, 1)
        plan = RefreshPlan(
            config=SCHEMES["hdr"],
            catalog=DataCatalog.uniform(1, sources=[0], refresh_interval=10.0),
            node_ids=(0, 1, 2, 3, 5), rates=rates, sources=[0],
            caching_nodes=[1, 2, 3, 5], assignment=None, trees={0: tree},
            plans={},
        )
        manager = HierarchyManager(plan, 0, fanout=3, max_depth=3)
        manager.remove_member(1)
        assert tree.parent_of(5) == 2


class TestManagersForRuntime:
    @pytest.fixture(scope="class")
    def runtime(self):
        trace = get_profile("small").generate(np.random.default_rng(4), duration=DAY)
        catalog = DataCatalog.uniform(
            2, sources=[trace.node_ids[0]], refresh_interval=4 * 3600.0
        )
        return build_simulation(trace, catalog, scheme="hdr",
                                num_caching_nodes=5, seed=1)

    def test_one_manager_per_item(self, runtime):
        managers = managers_for_runtime(runtime)
        assert set(managers) == {0, 1}
        assert managers[0].tree is runtime.trees[0]

    def test_repaired_edges_match_the_reference_scan(self):
        """Churn repair provisions an edge with the planner's neighbour
        intersection; every relay plan it leaves equals ``plan_edge``
        over every node of the population.  The hop windows are too
        short for any target and the relay cap is above the population,
        so every plan keeps every candidate with a two-hop path."""
        trace = get_profile("small").generate(np.random.default_rng(4), duration=DAY)
        catalog = DataCatalog.uniform(
            2, sources=[trace.node_ids[0]], refresh_interval=1800.0
        )
        runtime = build_simulation(trace, catalog,
                                   scheme=scheme_variant("hdr", max_relays=100),
                                   num_caching_nodes=5, seed=1)
        plan = runtime.plan
        managers = managers_for_runtime(runtime)
        all_nodes = np.asarray(plan.node_ids)

        def check():
            for item_id, manager in managers.items():
                edges = {(item_id, p, c) for p, c in manager.tree.edges()}
                assert edges == {key for key in plan.plans if key[0] == item_id}
            for (item_id, parent, child), relays in plan.plans.items():
                assert relays == plan_edge(
                    parent, child,
                    direct_rate=plan.rates.rate(parent, child),
                    relay_candidates=relay_candidates_all(
                        plan.rates, parent, child, all_nodes),
                    window=relays.window, target=relays.target,
                    max_relays=plan.config.max_relays,
                )

        for node in plan.caching_nodes:
            for manager in managers.values():
                manager.remove_member(node)
            check()
            for manager in managers.values():
                manager.add_member(node)
            check()
        # every return re-provisions the returning node's own edge
        assert all(manager.stats.replanned_edges > len(plan.caching_nodes)
                   for manager in managers.values())
        assert any(relays.relays for relays in plan.plans.values())

    def test_flooding_runtime_rejected(self):
        trace = get_profile("small").generate(np.random.default_rng(4), duration=DAY)
        catalog = DataCatalog.uniform(
            1, sources=[trace.node_ids[0]], refresh_interval=4 * 3600.0
        )
        runtime = build_simulation(trace, catalog, scheme="flooding",
                                   num_caching_nodes=5, seed=1)
        with pytest.raises(ValueError, match="no hierarchy"):
            managers_for_runtime(runtime)

    def test_star_runtime_keeps_depth_one(self):
        trace = get_profile("small").generate(np.random.default_rng(4), duration=DAY)
        catalog = DataCatalog.uniform(
            1, sources=[trace.node_ids[0]], refresh_interval=4 * 3600.0
        )
        runtime = build_simulation(trace, catalog, scheme="source",
                                   num_caching_nodes=5, seed=1)
        managers = managers_for_runtime(runtime)
        manager = managers[0]
        node = runtime.caching_nodes[0]
        manager.remove_member(node)
        manager.add_member(node)
        assert manager.tree.max_depth == 1


class TestChurnProcess:
    def make_runtime(self, seed=1):
        trace = get_profile("small").generate(
            np.random.default_rng(seed), duration=2 * DAY
        )
        catalog = DataCatalog.uniform(
            2, sources=[trace.node_ids[0]], refresh_interval=4 * 3600.0
        )
        return build_simulation(trace, catalog, scheme="hdr",
                                num_caching_nodes=5, seed=seed)

    def test_validation(self):
        runtime = self.make_runtime()
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            ChurnProcess(runtime, leave_rate=-1.0, mean_downtime=10.0, rng=rng,
                         until=DAY)
        with pytest.raises(ValueError):
            ChurnProcess(runtime, leave_rate=1.0, mean_downtime=0.0, rng=rng,
                         until=DAY)

    def test_zero_rate_is_noop(self):
        runtime = self.make_runtime()
        churn = ChurnProcess(runtime, leave_rate=0.0, mean_downtime=3600.0,
                             rng=np.random.default_rng(1), until=2 * DAY)
        churn.install()
        runtime.run(until=2 * DAY)
        assert churn.num_departures == 0

    def test_departures_and_returns_happen(self):
        runtime = self.make_runtime()
        churn = ChurnProcess(
            runtime, leave_rate=1 / (6 * 3600.0), mean_downtime=3600.0,
            rng=np.random.default_rng(1), until=2 * DAY,
        )
        churn.install()
        runtime.run(until=2 * DAY)
        assert churn.num_departures > 3
        returns = sum(1 for e in churn.events if e.online)
        assert returns > 0
        # trees stayed consistent throughout
        for item_id, tree in runtime.trees.items():
            tree.validate()
            online_members = {
                n for n in runtime.caching_nodes if n not in churn.offline
            }
            assert tree.members == online_members

    def test_offline_nodes_excluded_from_snapshot(self):
        runtime = self.make_runtime()
        node = runtime.caching_nodes[0]
        __, __, total_before = runtime.freshness_snapshot()
        runtime.network.set_online(node, False)
        __, __, total_after = runtime.freshness_snapshot()
        assert total_after == total_before - len(runtime.catalog)

    def test_simulation_still_makes_progress_under_churn(self):
        runtime = self.make_runtime()
        runtime.install_freshness_probe(interval=1800.0, until=2 * DAY)
        churn = ChurnProcess(
            runtime, leave_rate=1 / (8 * 3600.0), mean_downtime=2 * 3600.0,
            rng=np.random.default_rng(5), until=2 * DAY,
        )
        churn.install()
        runtime.run(until=2 * DAY)
        freshness = runtime.stats.series("probe.freshness").mean()
        assert freshness > 0.1  # refreshing keeps working through repairs


class TestOfflineNetwork:
    def test_offline_node_has_no_contacts(self, line_trace, network_factory):
        net = network_factory(line_trace)
        net.nodes[1].online = False
        net.run(until=1000.0)
        assert net.stats.counter_value("net.contacts_skipped_offline") > 0

    def test_set_online_closes_open_contacts(self, line_trace, network_factory):
        net = network_factory(line_trace)
        net.start()
        net.sim.run(until=15.0)  # 0-1 contact open
        assert net.nodes[0].in_contact_with(1)
        net.set_online(1, False)
        assert not net.nodes[0].in_contact_with(1)
        assert not net.nodes[1].in_contact_with(0)
        # the later contact_end event must not fire handlers twice
        net.sim.run(until=25.0)

    def test_set_online_idempotent(self, line_trace, network_factory):
        net = network_factory(line_trace)
        net.set_online(1, True)  # already online: no-op
        assert net.stats.counter_value("net.nodes_came_online") == 0
