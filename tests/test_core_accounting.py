"""Tests for incremental freshness accounting and its equivalence to the
brute-force recompute, including a randomized hypothesis property test."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.caching.items import CacheEntry, DataCatalog
from repro.core.accounting import FreshnessAccountant
from repro.core.scheme import build_simulation
from repro.experiments.config import DAY, HOUR, Settings
from repro.experiments.runner import make_catalog, make_trace

NODES = [0, 1, 2, 3]
LIFETIME = 2.0 * HOUR


def make_test_catalog(num_items: int = 3) -> DataCatalog:
    return DataCatalog.uniform(
        num_items=num_items,
        sources=[99],
        refresh_interval=HOUR,
        lifetime=LIFETIME,
    )


class _Item:
    """Stand-in for the DataItem arg of version_published."""

    def __init__(self, item_id: int) -> None:
        self.item_id = item_id


class BruteModel:
    """Straight-line reference model of the accountant's three counters."""

    def __init__(self, catalog: DataCatalog, nodes) -> None:
        self.lifetimes = {item.item_id: item.lifetime for item in catalog}
        self.online = {n: True for n in nodes}
        self.current = {i: 0 for i in self.lifetimes}
        self.slots: dict[tuple[int, int], tuple[int, float]] = {}

    def snapshot(self, now: float) -> tuple[int, int, int]:
        fresh = valid = 0
        for (node, item_id), (version, version_time) in self.slots.items():
            if not self.online[node]:
                continue
            if now < version_time + self.lifetimes[item_id]:
                valid += 1
            if version == self.current[item_id] and version > 0:
                fresh += 1
        total = sum(self.online.values()) * len(self.lifetimes)
        return fresh, valid, total


# One randomized op: (kind, node, item, extra); time advances between ops.
_ops = st.lists(
    st.tuples(
        st.sampled_from(["publish", "put", "put_stale", "remove", "toggle"]),
        st.sampled_from(NODES),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.0, max_value=3.0 * HOUR),
    ),
    max_size=60,
)


class TestAccountantProperty:
    @given(ops=_ops)
    @hsettings(max_examples=150, deadline=None)
    def test_matches_brute_force_model(self, ops):
        catalog = make_test_catalog(3)
        acct = FreshnessAccountant(catalog, NODES)
        model = BruteModel(catalog, NODES)
        published: dict[int, list[tuple[int, float]]] = {i: [] for i in range(3)}
        now = 0.0
        for kind, node, item_id, delta in ops:
            now += delta
            if kind == "publish":
                version = len(published[item_id]) + 1
                published[item_id].append((version, now))
                acct.version_published(_Item(item_id), version, now)
                model.current[item_id] = version
            elif kind in ("put", "put_stale"):
                history = published[item_id]
                if not history:
                    continue
                version, version_time = (
                    history[-1] if kind == "put" else history[0]
                )
                entry = CacheEntry(
                    item_id=item_id, version=version,
                    version_time=version_time, cached_at=now,
                )
                acct.entry_changed(node, item_id, entry, now)
                model.slots[(node, item_id)] = (version, version_time)
            elif kind == "remove":
                acct.entry_changed(node, item_id, None, now)
                model.slots.pop((node, item_id), None)
            else:  # toggle online state
                state = not model.online[node]
                model.online[node] = state
                acct.online_changed(node, state, now)
            assert acct.snapshot(now) == model.snapshot(now)
        # Counters stay consistent as everything expires.
        later = now + 2 * LIFETIME
        assert acct.snapshot(later) == model.snapshot(later)


class TestAccountantUnit:
    def test_seed_before_publish_becomes_fresh(self):
        # Warm starts put version 1 in stores before the source publishes
        # it at t=0; the publish rescan must pick the holders up.
        catalog = make_test_catalog(1)
        acct = FreshnessAccountant(catalog, NODES)
        entry = CacheEntry(item_id=0, version=1, version_time=0.0, cached_at=0.0)
        acct.entry_changed(0, 0, entry, 0.0)
        assert acct.snapshot(0.0) == (0, 1, len(NODES))  # not published yet
        acct.version_published(_Item(0), 1, 0.0)
        assert acct.snapshot(0.0) == (1, 1, len(NODES))

    def test_lazy_expiry_drain(self):
        catalog = make_test_catalog(1)
        acct = FreshnessAccountant(catalog, [0])
        acct.version_published(_Item(0), 1, 0.0)
        acct.entry_changed(
            0, 0, CacheEntry(item_id=0, version=1, version_time=0.0, cached_at=0.0), 0.0
        )
        assert acct.snapshot(LIFETIME - 1.0) == (1, 1, 1)
        # Fresh is independent of validity; expiry only drops `valid`.
        assert acct.snapshot(LIFETIME) == (1, 0, 1)

    def test_superseded_expiry_entry_is_ignored(self):
        catalog = make_test_catalog(1)
        acct = FreshnessAccountant(catalog, [0])
        acct.version_published(_Item(0), 1, 0.0)
        acct.entry_changed(
            0, 0, CacheEntry(item_id=0, version=1, version_time=0.0, cached_at=0.0), 0.0
        )
        acct.version_published(_Item(0), 2, HOUR)
        acct.entry_changed(
            0, 0, CacheEntry(item_id=0, version=2, version_time=HOUR, cached_at=HOUR), HOUR
        )
        # Version 1's heap entry fires at t=LIFETIME but must not
        # invalidate the slot now holding version 2.
        assert acct.snapshot(LIFETIME + 1.0) == (1, 1, 1)

    def test_offline_node_leaves_all_counters(self):
        catalog = make_test_catalog(2)
        acct = FreshnessAccountant(catalog, NODES)
        acct.version_published(_Item(0), 1, 0.0)
        acct.entry_changed(
            1, 0, CacheEntry(item_id=0, version=1, version_time=0.0, cached_at=0.0), 0.0
        )
        assert acct.snapshot(1.0) == (1, 1, len(NODES) * 2)
        acct.online_changed(1, False, 2.0)
        assert acct.snapshot(2.0) == (0, 0, (len(NODES) - 1) * 2)
        acct.online_changed(1, True, 3.0)
        assert acct.snapshot(3.0) == (1, 1, len(NODES) * 2)

    def test_non_caching_node_churn_is_ignored(self):
        catalog = make_test_catalog(1)
        acct = FreshnessAccountant(catalog, [0, 1])
        acct.online_changed(77, False, 1.0)  # not a caching node
        assert acct.snapshot(1.0) == (0, 0, 2)


def _runtime_for(scheme: str, settings: Settings, seed: int = 1):
    trace = make_trace(settings, seed)
    catalog = make_catalog(settings, [sorted(trace.node_ids)[0]])
    return build_simulation(
        trace, catalog, scheme=scheme,
        num_caching_nodes=settings.num_caching_nodes, seed=seed,
        refresh_jitter=settings.refresh_jitter,
    )


@pytest.mark.parametrize("scheme", ["hdr", "flooding", "source", "invalidate"])
def test_accountant_matches_brute_force_in_simulation(scheme):
    settings = Settings.fast().with_(duration=2 * DAY)
    runtime = _runtime_for(scheme, settings)
    checks = []

    def check():
        checks.append(runtime.verify_freshness_accounting())

    for k in range(1, 13):
        runtime.sim.schedule_at(k * settings.duration / 13, check)
    runtime.run(until=settings.duration)
    runtime.verify_freshness_accounting()
    assert len(checks) == 12


def test_accountant_matches_brute_force_under_churn():
    from repro.core.maintenance import ChurnProcess

    settings = Settings.fast().with_(duration=2 * DAY)
    runtime = _runtime_for("hdr", settings)
    churn = ChurnProcess(
        runtime,
        leave_rate=1.0 / (4 * HOUR),
        mean_downtime=2 * HOUR,
        rng=np.random.default_rng(7),
        until=settings.duration,
        managers=None,  # tree scheme: exercise hierarchy repair too
    )
    churn.install()

    def check():
        runtime.verify_freshness_accounting()

    for k in range(1, 25):
        runtime.sim.schedule_at(k * settings.duration / 25, check)
    runtime.run(until=settings.duration)
    assert churn.num_departures > 0  # churn actually happened
    runtime.verify_freshness_accounting()


def test_optimised_and_legacy_paths_produce_identical_metrics():
    """The live paths against the test-local scalar references (brute
    probe, full task scan, unwatermarked gossip, scalar planning)."""
    from repro.experiments.runner import run_once
    from tests.reference_paths import legacy_paths

    settings = Settings.fast().with_(duration=2 * DAY)
    trace = make_trace(settings, 1)
    for scheme in ("hdr", "flooding", "invalidate"):
        optimised = run_once(trace, scheme, settings, seed=1)
        with legacy_paths():
            legacy = run_once(trace, scheme, settings, seed=1)
        assert optimised.same_as(legacy), scheme
