"""Equivalence tests for the vectorised build pipeline.

The array-native build path (chunked trace synthesis, array-backed rate
estimation, array-driven NCL/tree/plan construction, and the
``ContactEventStream.from_arrays`` stream) is only allowed to be *fast*
-- every result must be bit-identical to the scalar/object path it
replaces.  These tests pin that contract:

- every mobility model's chunked generation equals its per-contact
  reference in ``tests/reference_paths.py``, does not depend on the
  chunk size (pathological ones included), and rejects a horizon that
  is not positive;
- ``mle_rates``/``ewma_rates`` on :class:`ContactArrays` equal the
  object-trace estimators exactly, and ``RateTable.matrix`` equals a
  pair-by-pair fill (Hypothesis-driven);
- the half-open estimation window counts boundary contacts once;
- NCL selection on array-backed tables equals the dict-backed ranking,
  and refresh trees equal the per-child-lookup reference builder;
- the SoA event stream built from :class:`ContactArrays` matches the one
  built from ``Contact`` objects, and the object backend refuses arrays;
- one small scale point produces the same simulation from either trace
  representation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.caching.items import DataCatalog
from repro.caching.ncl import select_caching_nodes
from repro.contacts.rates import RateTable, ewma_rates, mle_rates
from repro.core.hierarchy import build_tree
from repro.core.scheme import build_simulation
from repro.mobility.arrays import ContactArrays
from repro.mobility.community import CommunityModel, DiurnalModel
from repro.mobility.levy import LevyWalkModel
from repro.mobility.rwp import RandomWaypointModel
from repro.mobility.synthetic import PoissonContactModel
from repro.mobility.trace import Contact, ContactTrace
from repro.mobility.workingday import WorkingDayModel
from tests.reference_paths import (
    build_tree_scalar,
    diurnal_generate_scalar,
    poisson_generate_scalar,
    proximity_generate_scalar,
    rate_matrix_loop,
    workingday_generate_scalar,
)

HOUR = 3600.0


def _rate_matrix(n, seed=0, scale=2e-4):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(0.2, 1.0, (n, n)) * scale, k=1)
    # sprinkle zero-rate pairs so the sparse structure is exercised
    upper[upper < 0.3 * scale] = 0.0
    return upper + upper.T


def _contact_tuples(trace):
    return [(c.a, c.b, c.start, c.end) for c in trace]


MODEL_FACTORIES = {
    "poisson": lambda: PoissonContactModel(_rate_matrix(10), mean_duration=200.0),
    "community": lambda: CommunityModel(
        12, num_communities=3, intra_rate=3e-4, inter_rate=2e-5,
        rng=np.random.default_rng(5),
    ),
    "diurnal": lambda: DiurnalModel(_rate_matrix(10, seed=2, scale=4e-4)),
    "workingday": lambda: WorkingDayModel(10, rng=np.random.default_rng(9)),
    "rwp": lambda: RandomWaypointModel(8, area=200.0, radio_range=40.0),
    "levy": lambda: LevyWalkModel(8, area=300.0, radio_range=40.0),
}

#: The per-contact reference each model's arrays are held against.
REFERENCES = {
    "poisson": poisson_generate_scalar,
    "community": lambda model, duration, rng: poisson_generate_scalar(
        model._model, duration, rng),
    "diurnal": diurnal_generate_scalar,
    "workingday": workingday_generate_scalar,
    "rwp": proximity_generate_scalar,
    "levy": proximity_generate_scalar,
}


class TestChunkedGeneration:
    """Chunked synthesis must be bit-identical to the per-contact
    references."""

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_arrays_match_object_path(self, name):
        model = MODEL_FACTORIES[name]()
        trace = REFERENCES[name](model, 12 * HOUR, np.random.default_rng(42))
        arrays = model.generate_arrays(12 * HOUR, np.random.default_rng(42))
        assert _contact_tuples(arrays.to_trace()) == _contact_tuples(trace)

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_chunk_size_is_irrelevant(self, name):
        # 7 never divides the generators' natural batch sizes, so every
        # block boundary falls mid-pair
        model = MODEL_FACTORIES[name]()
        whole = model.generate_arrays(12 * HOUR, np.random.default_rng(3))
        tiny = model.generate_arrays(12 * HOUR, np.random.default_rng(3),
                                     chunk_contacts=7)
        for field in ("start", "end", "a", "b"):
            np.testing.assert_array_equal(getattr(whole, field),
                                          getattr(tiny, field))

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_chunks_are_bounded_and_sorted(self, name):
        model = MODEL_FACTORIES[name]()
        blocks = list(model.generate_chunks(12 * HOUR,
                                            np.random.default_rng(1),
                                            chunk_contacts=16))
        assert blocks, "generator produced no contacts"
        for s, e, a, b in blocks:
            assert len(s) <= 16 + 64  # a block may round up to a pair group
            assert np.all(np.diff(s) >= 0)  # time-sorted within the block
            assert np.all(e > s)
            assert np.all(a != b)

    @pytest.mark.parametrize("duration", [0.0, -25.0])
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_duration_must_be_positive(self, name, duration):
        model = MODEL_FACTORIES[name]()
        draws = (model.generate, model.generate_arrays,
                 lambda d, rng: list(model.generate_chunks(d, rng)))
        for draw in draws:
            with pytest.raises(ValueError, match="duration must be positive"):
                draw(duration, np.random.default_rng(0))

    def test_chunk_size_must_be_positive(self):
        model = MODEL_FACTORIES["poisson"]()
        with pytest.raises(ValueError):
            list(model.generate_chunks(HOUR, np.random.default_rng(0),
                                       chunk_contacts=0))

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_every_model_checks_chunk_size(self, name):
        model = MODEL_FACTORIES[name]()
        with pytest.raises(ValueError, match="chunk_contacts must be positive"):
            list(model.generate_chunks(HOUR, np.random.default_rng(0),
                                       chunk_contacts=0))

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(chunk=st.integers(min_value=1, max_value=64),
           seed=st.integers(min_value=0, max_value=1000))
    def test_poisson_chunking_property(self, chunk, seed):
        model = PoissonContactModel(_rate_matrix(6, seed=1, scale=6e-4),
                                    mean_duration=150.0)
        trace = poisson_generate_scalar(model, 6 * HOUR,
                                        np.random.default_rng(seed))
        arrays = model.generate_arrays(6 * HOUR, np.random.default_rng(seed),
                                       chunk_contacts=chunk)
        assert _contact_tuples(arrays.to_trace()) == _contact_tuples(trace)


@st.composite
def contact_lists(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=8))
    n_contacts = draw(st.integers(min_value=1, max_value=40))
    contacts = []
    for _ in range(n_contacts):
        a = draw(st.integers(min_value=0, max_value=n_nodes - 2))
        b = draw(st.integers(min_value=a + 1, max_value=n_nodes - 1))
        start = draw(st.floats(min_value=0.0, max_value=10_000.0,
                               allow_nan=False, width=32))
        length = draw(st.floats(min_value=1.0, max_value=5_000.0,
                                allow_nan=False, width=32))
        contacts.append(Contact.make(a, b, start, start + length))
    return ContactTrace(contacts, node_ids=range(n_nodes))


class TestRateEstimationIdentity:
    """The array estimators must match the object-trace loops bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(trace=contact_lists())
    def test_mle_rates_identity(self, trace):
        arrays = ContactArrays.from_trace(trace)
        scalar = dict(mle_rates(trace).pairs())
        vec = dict(mle_rates(arrays).pairs())
        assert vec == scalar  # exact float equality, not approx

    @settings(max_examples=60, deadline=None)
    @given(trace=contact_lists(),
           alpha=st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
    def test_ewma_rates_identity(self, trace, alpha):
        arrays = ContactArrays.from_trace(trace)
        scalar = dict(ewma_rates(trace, alpha=alpha).pairs())
        vec = dict(ewma_rates(arrays, alpha=alpha).pairs())
        assert vec == scalar

    @settings(max_examples=40, deadline=None)
    @given(trace=contact_lists(), data=st.data())
    def test_matrix_identity(self, trace, data):
        # both backings, over node lists in any order with unknown ids
        for table in (mle_rates(ContactArrays.from_trace(trace)),
                      mle_rates(trace)):
            ids = data.draw(st.permutations(sorted(table.nodes()) + [99]))
            np.testing.assert_array_equal(table.matrix(ids),
                                          rate_matrix_loop(table, ids))

    def test_half_open_window(self):
        # contact starting exactly at t1 is outside [t0, t1); exactly at
        # t0 is inside -- so tiled windows count each contact once
        trace = ContactTrace([
            Contact.make(0, 1, 0.0, 10.0),
            Contact.make(0, 1, 50.0, 60.0),
            Contact.make(0, 1, 100.0, 110.0),
        ])
        for source in (trace, ContactArrays.from_trace(trace)):
            assert mle_rates(source, t0=0.0, t1=100.0).rate(0, 1) == 0.02
            assert mle_rates(source, t0=50.0, t1=150.0).rate(0, 1) == 0.02


class TestPlanningIdentity:
    """Array-backed NCL selection must rank like the dict-backed path,
    and trees must match the per-child-lookup reference builder."""

    def _table(self):
        model = PoissonContactModel(_rate_matrix(20, seed=4, scale=5e-4))
        arrays = model.generate_arrays(2 * 24 * HOUR, np.random.default_rng(8))
        return mle_rates(arrays)

    @pytest.mark.parametrize("metric", ["contact", "degree"])
    def test_selection_identity(self, metric):
        table = self._table()
        assert table.is_array_backed
        as_dict = RateTable(dict(table.pairs()))
        assert not as_dict.is_array_backed
        fast = select_caching_nodes(table, 6, metric=metric)
        slow = select_caching_nodes(as_dict, 6, metric=metric)
        assert fast == slow

    def test_tree_identity(self):
        table = self._table()
        caching = select_caching_nodes(table, 8)
        root = next(n for n in sorted(table.nodes()) if n not in caching)
        fast = build_tree(root, caching, table, fanout=3, max_depth=3)
        slow = build_tree_scalar(root, caching, table, fanout=3, max_depth=3)
        assert fast.edges() == slow.edges()


class TestEventStreamFromArrays:
    """The SoA stream must be representation-agnostic."""

    def _trace(self, seed=0):
        model = PoissonContactModel(_rate_matrix(12, seed=3, scale=5e-4))
        return model.generate(24 * HOUR, np.random.default_rng(seed))

    def test_from_arrays_matches_objects(self):
        from repro.sim.soa import ContactEventStream

        trace = self._trace()
        arrays = ContactArrays.from_trace(trace)
        obj = ContactEventStream(trace, trace.node_ids)
        arr = ContactEventStream.from_arrays(arrays)
        np.testing.assert_array_equal(obj.time, arr.time)
        np.testing.assert_array_equal(obj.kind, arr.kind)
        np.testing.assert_array_equal(obj.a, arr.a)
        np.testing.assert_array_equal(obj.b, arr.b)
        np.testing.assert_array_equal(obj.start_times, arr.start_times)

    def test_event_order_is_time_kind_seq(self):
        # the merge-based assembly must equal the brute-force sort of
        # (time, kind, arrival order) with starts before ends on ties
        from repro.sim.soa import ContactEventStream

        trace = self._trace(seed=5)
        stream = ContactEventStream.from_arrays(ContactArrays.from_trace(trace))
        keys = list(zip(stream.time.tolist(), stream.kind.tolist()))
        assert keys == sorted(keys)
        assert np.all(np.diff(stream.start_times) >= 0)

    def test_node_index_lookup(self):
        from repro.sim.soa import _NodeIndex

        index = _NodeIndex(np.array([3, 7, 11, 40], dtype=np.int64))
        assert len(index) == 4
        assert index[3] == 0 and index[40] == 3
        assert 11 in index and 12 not in index
        assert index.get(7) == 1
        assert index.get(8) is None
        with pytest.raises(KeyError):
            index[8]

    def test_object_backend_rejects_arrays(self):
        arrays = ContactArrays.from_trace(self._trace())
        catalog = DataCatalog.uniform(num_items=2, sources=[0],
                                      refresh_interval=4 * HOUR,
                                      lifetime=12 * HOUR)
        with pytest.raises(ValueError, match="object backend"):
            build_simulation(arrays, catalog, scheme="hdr",
                             num_caching_nodes=4, seed=1, backend="object")


class TestScalePointEquivalence:
    """One small scale point, both trace representations, same simulation."""

    def test_trace_modes_agree(self):
        from repro.experiments.scale import DAY, run_scale_point

        kwargs = dict(duration=0.25 * DAY, contacts_per_node=8.0,
                      num_caching_nodes=6, num_items=2, seed=11)
        # the soa point builds from ContactArrays, the object point from
        # Contact objects of the same draws
        via_arrays = run_scale_point(80, backend="soa", **kwargs)
        via_objects = run_scale_point(80, backend="object", **kwargs)
        for key in ("contacts", "events", "messages", "freshness"):
            assert via_arrays[key] == via_objects[key]


class TestContactArraysNormalisation:
    """:class:`ContactArrays` must normalise exactly like ``ContactTrace``."""

    @settings(max_examples=60, deadline=None)
    @given(trace=contact_lists())
    def test_matches_contact_trace(self, trace):
        # few nodes + many contacts -> heavy pair duplication, which is
        # the dense merge regime
        s = np.array([c.start for c in trace], dtype=np.float64)
        e = np.array([c.end for c in trace], dtype=np.float64)
        a = np.array([c.a for c in trace], dtype=np.int64)
        b = np.array([c.b for c in trace], dtype=np.int64)
        arrays = ContactArrays(s, e, a, b)
        assert _contact_tuples(arrays.to_trace()) == _contact_tuples(trace)

    def test_sparse_merge_regime(self):
        # hundreds of distinct pairs with a handful of duplicates keeps
        # the duplicate fraction under 1%, taking the sparse merge path
        rng = np.random.default_rng(0)
        a = np.arange(400, dtype=np.int64)
        b = a + 1000
        s = rng.uniform(0.0, 1000.0, 400)
        e = s + rng.uniform(1.0, 50.0, 400)
        # two overlapping and one disjoint extra interval for pair 0
        a = np.append(a, [0, 0, 0])
        b = np.append(b, [1000, 1000, 1000])
        s = np.append(s, [s[0] + 1.0, s[0] + 2.0, s[0] + 5000.0])
        e = np.append(e, [e[0] + 30.0, e[0] + 5.0, s[-1] + 10.0])
        contacts = [Contact.make(int(ai), int(bi), float(si), float(ei))
                    for ai, bi, si, ei in zip(a, b, s, e)]
        arrays = ContactArrays(s, e, a, b)
        assert _contact_tuples(arrays.to_trace()) == \
            _contact_tuples(ContactTrace(contacts))

    def test_all_unique_pairs_short_circuit(self):
        rng = np.random.default_rng(1)
        order = rng.permutation(100)
        a = np.arange(100, dtype=np.int64)[order]
        b = (a + 500)
        s = rng.uniform(0.0, 100.0, 100)
        e = s + 10.0
        arrays = ContactArrays(s, e, a, b)
        assert len(arrays) == 100
        assert np.all(np.diff(arrays.start) >= 0)
        contacts = [Contact.make(int(ai), int(bi), float(si), float(ei))
                    for ai, bi, si, ei in zip(a, b, s, e)]
        assert _contact_tuples(arrays.to_trace()) == \
            _contact_tuples(ContactTrace(contacts))

    def test_endpoints_are_normalised(self):
        arrays = ContactArrays([0.0], [5.0], [9], [2])
        assert arrays.a.tolist() == [2] and arrays.b.tolist() == [9]

    def test_validation(self):
        with pytest.raises(ValueError, match="self-contact"):
            ContactArrays([0.0], [1.0], [3], [3])
        with pytest.raises(ValueError, match="ends before"):
            ContactArrays([5.0], [1.0], [0], [1])
        with pytest.raises(ValueError, match="unknown nodes"):
            ContactArrays([0.0], [1.0], [0], [7], node_ids=[0, 1])
        with pytest.raises(ValueError, match="equal length"):
            ContactArrays([0.0, 1.0], [1.0], [0], [1])

    def test_from_blocks_equals_single_shot(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 20, 60)
        b = (a + 1 + rng.integers(0, 19, 60)) % 21
        keep = a != b
        a, b = a[keep], b[keep]
        s = rng.uniform(0.0, 500.0, len(a))
        e = s + rng.uniform(1.0, 40.0, len(a))
        whole = ContactArrays(s, e, a, b)
        blocks = [(s[i:i + 7], e[i:i + 7], a[i:i + 7], b[i:i + 7])
                  for i in range(0, len(a), 7)]
        blocked = ContactArrays.from_blocks(blocks)
        for field in ("start", "end", "a", "b"):
            np.testing.assert_array_equal(getattr(whole, field),
                                          getattr(blocked, field))
