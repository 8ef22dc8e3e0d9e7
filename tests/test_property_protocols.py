"""Protocol-level property tests on randomly generated small worlds.

Hypothesis generates small rate matrices and scheme parameters; each
example wires a full HDR simulation and checks invariants that must hold
for *any* input:

- cached versions never decrease at any node;
- every recorded update has a non-negative delay and refers to a version
  the ground truth actually published;
- the freshness snapshot is always within [0, total];
- refresh overhead is zero iff no version ever left a source;
- every scheme sends, delivers and probes exactly what it does on the
  scalar reference paths in ``tests/reference_paths.py`` (full task
  scan, gossip without watermarks, brute-force probe, per-child tree
  builder, relay enumeration over every node).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.caching.items import DataCatalog
from repro.contacts.rates import mle_rates
from repro.core.scheme import build_simulation
from repro.mobility.synthetic import PoissonContactModel, gamma_rate_matrix
from repro.sim.messages import reset_message_ids
from repro.sim.node import ProtocolHandler
from tests.reference_paths import legacy_paths


class VersionMonotonicityWatcher(ProtocolHandler):
    """Asserts a node's cached versions never decrease."""

    def __init__(self, store):
        super().__init__()
        self.store = store
        self.highest: dict[int, int] = {}
        self.violations: list[str] = []

    def on_contact_end(self, peer):
        self._check()

    def on_contact_start(self, peer):
        self._check()

    def _check(self):
        for entry in self.store.entries():
            previous = self.highest.get(entry.item_id, 0)
            if entry.version < previous:
                self.violations.append(
                    f"item {entry.item_id} went {previous} -> {entry.version}"
                )
            self.highest[entry.item_id] = max(previous, entry.version)


@st.composite
def simulation_params(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    mean_rate = draw(st.floats(min_value=1e-5, max_value=5e-4))
    num_items = draw(st.integers(min_value=1, max_value=3))
    num_caching = draw(st.integers(min_value=1, max_value=max(1, n - 2)))
    scheme = draw(st.sampled_from(["hdr", "flat", "source", "flooding"]))
    return n, seed, mean_rate, num_items, num_caching, scheme


class TestProtocolInvariants:
    @given(simulation_params())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_full_simulation_invariants(self, params):
        n, seed, mean_rate, num_items, num_caching, scheme = params
        rng = np.random.default_rng(seed)
        rates = np.full((n, n), mean_rate)
        np.fill_diagonal(rates, 0.0)
        trace = PoissonContactModel(rates, mean_duration=60.0).generate(
            4 * 86400.0, rng
        )
        if trace.num_nodes < 2:
            return
        source = trace.node_ids[0]
        catalog = DataCatalog.uniform(
            num_items, sources=[source], refresh_interval=6 * 3600.0
        )
        caching = [nid for nid in trace.node_ids if nid != source][:num_caching]
        if not caching:
            return
        runtime = build_simulation(
            trace, catalog, scheme=scheme, caching_nodes=caching, seed=seed
        )
        watchers = [
            runtime.nodes[nid].add_handler(
                VersionMonotonicityWatcher(runtime.stores[nid])
            )
            for nid in caching
        ]
        runtime.run(until=4 * 86400.0)

        for watcher in watchers:
            assert watcher.violations == []
        for update in runtime.update_log:
            assert update.delay >= 0.0
            assert 1 <= update.version <= runtime.history.num_versions(
                update.item_id
            )
        fresh, valid, total = runtime.freshness_snapshot()
        assert 0 <= fresh <= valid <= total or (fresh <= total and valid <= total)
        if scheme != "none":
            published = sum(
                runtime.history.num_versions(i.item_id) for i in catalog
            )
            assert published >= num_items


@st.composite
def refresh_worlds(draw):
    """Small heterogeneous worlds with zero-rate pairs, several items and
    sources, and lifetimes short enough that tasks expire in transit."""
    n = draw(st.integers(min_value=4, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    mean_rate = draw(st.floats(min_value=2e-5, max_value=4e-4))
    sparsity = draw(st.sampled_from([0.0, 0.3, 0.6]))
    num_items = draw(st.integers(min_value=1, max_value=4))
    num_sources = draw(st.integers(min_value=1, max_value=2))
    num_caching = draw(st.integers(min_value=1, max_value=n - num_sources))
    interval = draw(st.sampled_from([2 * 3600.0, 6 * 3600.0]))
    lifetime = interval * draw(st.sampled_from([0.75, 1.5, 3.0]))
    jitter = draw(st.sampled_from([0.0, 0.3]))
    scheme = draw(st.sampled_from(
        ["hdr", "flat", "random", "source", "flooding", "invalidate"]
    ))
    return (n, seed, mean_rate, sparsity, num_items, num_sources,
            num_caching, interval, lifetime, jitter, scheme)


def run_world(world):
    (n, seed, mean_rate, sparsity, num_items, num_sources, num_caching,
     interval, lifetime, jitter, scheme) = world
    rng = np.random.default_rng(seed)
    rates = gamma_rate_matrix(n, mean_rate, 0.5, rng, sparsity=sparsity)
    trace = PoissonContactModel(rates, mean_duration=300.0).generate(
        3 * 86400.0, rng
    )
    catalog = DataCatalog.uniform(
        num_items, sources=list(range(num_sources)),
        refresh_interval=interval, lifetime=lifetime,
    )
    reset_message_ids()
    runtime = build_simulation(
        trace, catalog, scheme=scheme,
        caching_nodes=list(range(num_sources, num_sources + num_caching)),
        rates=mle_rates(trace, t0=0.0, t1=3 * 86400.0),
        seed=seed, refresh_jitter=jitter, record_transfers=True,
    )
    runtime.install_freshness_probe(interval=1800.0, until=3 * 86400.0)
    runtime.run(until=3 * 86400.0)
    return (
        {item: tree.edges() for item, tree in runtime.trees.items()},
        runtime.plans,
        runtime.network.transfers,
        runtime.update_log,
        runtime.stats.counters(),
        list(runtime.stats.series("probe.freshness")),
        list(runtime.stats.series("probe.validity")),
    )


class TestReferencePaths:
    @given(refresh_worlds())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_scalar_reference_paths(self, world):
        live = run_world(world)
        with legacy_paths():
            reference = run_world(world)
        assert live == reference
