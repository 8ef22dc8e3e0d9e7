"""Tests for refresh hierarchy construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contacts.rates import RateTable
from repro.core.hierarchy import RefreshTree, build_tree, random_tree, star_tree
from tests.reference_paths import build_tree_scalar


def chain_rates(nodes, rate=1.0):
    """Strong rates only along consecutive node pairs."""
    table = RateTable()
    for a, b in zip(nodes, nodes[1:]):
        table.set(a, b, rate)
    return table


class TestRefreshTree:
    def test_attach_and_lookup(self):
        tree = RefreshTree(root=0)
        tree.attach(1, 0)
        tree.attach(2, 1)
        assert tree.parent_of(2) == 1
        assert tree.children_of(0) == [1]
        assert tree.depth_of(2) == 2
        assert tree.max_depth == 2
        assert tree.members == {1, 2}
        assert tree.path_to_root(2) == [2, 1, 0]
        assert set(tree.edges()) == {(0, 1), (1, 2)}

    def test_attach_validation(self):
        tree = RefreshTree(root=0)
        with pytest.raises(ValueError):
            tree.attach(1, 99)  # unknown parent
        tree.attach(1, 0)
        with pytest.raises(ValueError):
            tree.attach(1, 0)  # already placed

    def test_detach_removes_subtree(self):
        tree = RefreshTree(root=0)
        tree.attach(1, 0)
        tree.attach(2, 1)
        tree.attach(3, 2)
        orphans = tree.detach(1)
        assert orphans == [2, 3]  # the whole subtree leaves the tree
        assert tree.members == set()
        assert tree.children_of(0) == []

    def test_detach_root_rejected(self):
        with pytest.raises(ValueError):
            RefreshTree(root=0).detach(0)

    def test_validate_passes_for_good_tree(self):
        tree = RefreshTree(root=0)
        tree.attach(1, 0)
        tree.attach(2, 0)
        tree.validate(fanout=2, max_depth=3)

    def test_validate_catches_corruption(self):
        tree = RefreshTree(root=0)
        tree.attach(1, 0)
        tree.depth[1] = 5  # corrupt
        with pytest.raises(ValueError):
            tree.validate()


class TestBuildTree:
    def test_follows_strong_edges(self):
        # chain 0-1-2-3 with strong consecutive rates: the built tree
        # should be the chain itself.
        rates = chain_rates([0, 1, 2, 3])
        tree = build_tree(0, [1, 2, 3], rates, fanout=3, max_depth=3)
        assert tree.parent_of(1) == 0
        assert tree.parent_of(2) == 1
        assert tree.parent_of(3) == 2

    def test_prefers_highest_rate_parent(self):
        table = RateTable({(0, 1): 1.0, (0, 2): 1.0, (1, 3): 5.0, (2, 3): 0.1})
        tree = build_tree(0, [1, 2, 3], table, fanout=2, max_depth=3)
        assert tree.parent_of(3) == 1

    def test_every_member_placed_exactly_once(self):
        rates = chain_rates(list(range(8)))
        tree = build_tree(0, range(1, 8), rates, fanout=2, max_depth=7)
        assert tree.members == set(range(1, 8))
        tree.validate(fanout=2, max_depth=7)

    def test_fanout_respected(self):
        table = RateTable()
        for child in range(1, 8):
            table.set(0, child, 1.0)
            for other in range(1, 8):
                if child < other:
                    table.set(child, other, 0.5)
        tree = build_tree(0, range(1, 8), table, fanout=2, max_depth=3, root_fanout=2)
        tree.validate(max_depth=3)
        assert len(tree.children_of(0)) <= 2
        for member in tree.members:
            assert len(tree.children_of(member)) <= 2

    def test_disconnected_node_gets_fallback_parent(self):
        rates = chain_rates([0, 1])
        tree = build_tree(0, [1, 9], rates, fanout=3, max_depth=2)
        assert 9 in tree.members
        assert tree.parent_of(9) is not None

    def test_capacity_check(self):
        with pytest.raises(ValueError, match="capacity"):
            build_tree(0, range(1, 100), RateTable(), fanout=2, max_depth=2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_tree(0, [1], RateTable(), fanout=0)
        with pytest.raises(ValueError):
            build_tree(0, [1], RateTable(), max_depth=0)

    def test_root_excluded_from_members(self):
        rates = chain_rates([0, 1])
        tree = build_tree(0, [0, 1], rates)
        assert tree.members == {1}


class TestStarTree:
    def test_depth_one(self):
        tree = star_tree(5, [1, 2, 3])
        assert tree.max_depth == 1
        assert set(tree.children_of(5)) == {1, 2, 3}
        tree.validate()


class TestRandomTree:
    def test_respects_budgets(self):
        rng = np.random.default_rng(3)
        tree = random_tree(0, range(1, 14), rng, fanout=3, max_depth=3)
        tree.validate(fanout=3, max_depth=3)
        assert tree.members == set(range(1, 14))

    def test_different_seeds_differ(self):
        members = list(range(1, 14))
        a = random_tree(0, members, np.random.default_rng(1), fanout=2, max_depth=4)
        b = random_tree(0, members, np.random.default_rng(2), fanout=2, max_depth=4)
        assert a.parent != b.parent


@st.composite
def rate_tables(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    table = RateTable()
    for i in range(n):
        for j in range(i + 1, n):
            rate = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
            if rate > 0:
                table.set(i, j, rate)
    return n, table


@st.composite
def sparse_rate_tables(draw):
    """Few distinct rates and many absent pairs: ties everywhere, and
    groups linked to each other but to nothing already placed."""
    n = draw(st.integers(min_value=3, max_value=12))
    table = RateTable()
    for i in range(n):
        for j in range(i + 1, n):
            rate = draw(st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0]))
            if rate > 0:
                table.set(i, j, rate)
    return n, table


class TestTreeProperties:
    @given(rate_tables(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_built_tree_invariants(self, n_and_rates, fanout, max_depth):
        n, rates = n_and_rates
        members = list(range(1, n))
        capacity = fanout
        level = fanout
        for _ in range(max_depth - 1):
            level *= fanout
            capacity += level
        if len(members) > capacity:
            return  # over-constrained by construction
        tree = build_tree(0, members, rates, fanout=fanout, max_depth=max_depth)
        tree.validate(fanout=fanout, max_depth=max_depth)
        assert tree.members == set(members)
        # every member's path reaches the root without repeats
        for member in tree.members:
            path = tree.path_to_root(member)
            assert path[-1] == 0
            assert len(path) == len(set(path))
            assert len(path) - 1 == tree.depth_of(member)

    @given(st.one_of(rate_tables(), sparse_rate_tables()),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_child_lookup_reference(self, n_and_rates, fanout,
                                                max_depth, data):
        """The submatrix builder equals the per-child-lookup builder,
        including ties, zero rates, members the table has never seen and
        a separate root budget, on either table backing."""
        n, rates = n_and_rates
        if data.draw(st.booleans()):
            rates = RateTable.from_arrays(*rates.as_arrays())
        root = data.draw(st.integers(min_value=0, max_value=n - 1))
        members = data.draw(st.sets(st.integers(min_value=0, max_value=n + 2),
                                    max_size=n + 2))
        root_fanout = data.draw(st.one_of(st.none(),
                                          st.integers(min_value=1, max_value=4)))
        kwargs = dict(fanout=fanout, max_depth=max_depth,
                      root_fanout=root_fanout)
        try:
            expected = build_tree_scalar(root, members, rates, **kwargs)
        except ValueError:
            with pytest.raises(ValueError):
                build_tree(root, members, rates, **kwargs)
            return
        tree = build_tree(root, members, rates, **kwargs)
        assert tree.edges() == expected.edges()
        assert tree.depth == expected.depth
