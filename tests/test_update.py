"""Incremental updates (§5.4): every operation must equal a full rebuild."""

import math

import numpy as np
import pytest

from repro.core import SignatureIndex
from repro.errors import UpdateError


def assert_equals_rebuild(index):
    """The crucial §5.4 invariant: the incrementally maintained index is
    indistinguishable from one rebuilt from scratch."""
    rebuilt = SignatureIndex.build(
        index.network,
        index.dataset,
        index.partition,
        backend="scipy",
        keep_trees=True,
    )
    assert np.array_equal(index.table.categories, rebuilt.table.categories)
    # Links may differ where several shortest paths tie; verify each link
    # telescopes onto a true shortest path instead of insisting on equality.
    trees = rebuilt.trees
    for rank in range(len(index.dataset)):
        dist = trees.distances[rank]
        for node in range(index.network.num_nodes):
            link = int(index.table.links[node, rank])
            if node == index.dataset[rank]:
                assert link == -1  # LINK_HERE
            elif math.isinf(dist[node]):
                assert link == -2  # LINK_NONE
            else:
                neighbor, weight = index.network.neighbor_at(node, link)
                assert dist[neighbor] + weight == dist[node]
    # Spanning-tree distances must match exactly.
    assert np.array_equal(index.trees.distances, rebuilt.trees.distances)
    # Compression must remain lossless.
    from repro.core.compression import resolve_category

    flagged = np.argwhere(index.table.compressed)
    for node, rank in flagged[:300]:
        assert resolve_category(
            index.table, index.object_table, int(node), int(rank)
        ) == int(index.table.categories[node, rank])


def _pick_absent_edge(network, rng):
    while True:
        u = int(rng.integers(network.num_nodes))
        v = int(rng.integers(network.num_nodes))
        if u != v and not network.has_edge(u, v):
            return u, v


def _pick_existing_edge(network, rng, trees=None, on_tree=None):
    edges = list(network.edges())
    rng.shuffle(edges)
    for edge in edges:
        if on_tree is None:
            return edge.u, edge.v, edge.weight
        used = bool(trees.trees_using_edge(edge.u, edge.v))
        if used == on_tree:
            return edge.u, edge.v, edge.weight
    raise AssertionError("no edge with the requested tree usage")


class TestAddEdge:
    def test_shortcut_edge_updates_to_rebuild(self, updatable_index):
        rng = np.random.default_rng(0)
        u, v = _pick_absent_edge(updatable_index.network, rng)
        report = updatable_index.apply_updates([("add", u, v, 1.0)]).report
        assert_equals_rebuild(updatable_index)
        assert report.changed_components >= 0

    def test_useless_heavy_edge_changes_nothing(self, updatable_index):
        rng = np.random.default_rng(1)
        u, v = _pick_absent_edge(updatable_index.network, rng)
        before = updatable_index.table.categories.copy()
        report = updatable_index.apply_updates([("add", u, v, 1e9)]).report
        assert np.array_equal(updatable_index.table.categories, before)
        assert report.changed_components == 0
        assert report.touched_nodes == 0

    def test_multiple_adds_accumulate_correctly(self, updatable_index):
        rng = np.random.default_rng(2)
        for _ in range(3):
            u, v = _pick_absent_edge(updatable_index.network, rng)
            weight = float(rng.integers(1, 5))
            updatable_index.apply_updates([("add", u, v, weight)])
        assert_equals_rebuild(updatable_index)


class TestRemoveEdge:
    def test_tree_edge_removal_updates_to_rebuild(self, updatable_index):
        rng = np.random.default_rng(3)
        u, v, _ = _pick_existing_edge(
            updatable_index.network, rng, updatable_index.trees, on_tree=True
        )
        updatable_index.apply_updates([("remove", u, v)])
        assert_equals_rebuild(updatable_index)

    def test_non_tree_edge_removal_keeps_categories(self, updatable_index):
        rng = np.random.default_rng(4)
        try:
            u, v, _ = _pick_existing_edge(
                updatable_index.network, rng, updatable_index.trees, on_tree=False
            )
        except AssertionError:
            pytest.skip("every edge lies on some spanning tree")
        before = updatable_index.table.categories.copy()
        updatable_index.apply_updates([("remove", u, v)])
        assert np.array_equal(updatable_index.table.categories, before)
        assert_equals_rebuild(updatable_index)

    def test_removals_then_queries_stay_correct(self, updatable_index):
        rng = np.random.default_rng(5)
        for _ in range(2):
            u, v, _ = _pick_existing_edge(updatable_index.network, rng)
            # Keep connectivity plausible: skip degree-1 endpoints.
            if (
                updatable_index.network.degree(u) <= 1
                or updatable_index.network.degree(v) <= 1
            ):
                continue
            updatable_index.apply_updates([("remove", u, v)])
        updatable_index.refresh_storage()
        updatable_index.verify(sample_nodes=8, seed=1)

    def test_disconnection_marks_unreachable(self, updatable_index):
        """Cut off a degree-1 node: every object must become unreachable
        from it (unless an object lives there)."""
        network = updatable_index.network
        leaf = next(
            (
                node
                for node in network.nodes()
                if network.degree(node) == 1
                and node not in updatable_index.dataset
            ),
            None,
        )
        if leaf is None:
            pytest.skip("no non-object leaf in this network")
        neighbor, _ = network.neighbors(leaf)[0]
        updatable_index.apply_updates([("remove", leaf, neighbor)])
        unreachable = updatable_index.partition.unreachable
        assert all(
            updatable_index.table.categories[leaf, rank] == unreachable
            for rank in range(len(updatable_index.dataset))
        )
        assert_equals_rebuild(updatable_index)


class TestReweight:
    def test_decrease_updates_to_rebuild(self, updatable_index):
        rng = np.random.default_rng(6)
        u, v, w = _pick_existing_edge(
            updatable_index.network, rng, updatable_index.trees, on_tree=True
        )
        if w <= 1:
            updatable_index.network.set_edge_weight(u, v, 5.0)
            # no-op sync
            updatable_index.apply_updates([("set_weight", u, v, 5.0)])
            w = 5.0
        updatable_index.apply_updates([("set_weight", u, v, w / 2)])
        assert_equals_rebuild(updatable_index)

    def test_increase_updates_to_rebuild(self, updatable_index):
        rng = np.random.default_rng(7)
        u, v, w = _pick_existing_edge(
            updatable_index.network, rng, updatable_index.trees, on_tree=True
        )
        updatable_index.apply_updates([("set_weight", u, v, w * 3)])
        assert_equals_rebuild(updatable_index)

    def test_same_weight_is_a_noop(self, updatable_index):
        rng = np.random.default_rng(8)
        u, v, w = _pick_existing_edge(updatable_index.network, rng)
        result = updatable_index.apply_updates([("set_weight", u, v, w)])
        report = result.report
        assert report.changed_components == 0
        assert not report.affected_objects

    def test_increase_on_non_tree_edge_changes_nothing(self, updatable_index):
        rng = np.random.default_rng(9)
        try:
            u, v, w = _pick_existing_edge(
                updatable_index.network, rng, updatable_index.trees, on_tree=False
            )
        except AssertionError:
            pytest.skip("every edge lies on some spanning tree")
        result = updatable_index.apply_updates([("set_weight", u, v, w * 10)])
        report = result.report
        assert report.changed_components == 0
        assert_equals_rebuild(updatable_index)


class TestNodeOperations:
    def test_add_node_updates_to_rebuild(self, updatable_index):
        network = updatable_index.network
        node, report = updatable_index.add_node(
            1.0, 1.0, [(0, 2.0), (1, 3.0)]
        )
        assert node == network.num_nodes - 1
        assert updatable_index.table.categories.shape[0] == network.num_nodes
        assert_equals_rebuild(updatable_index)

    def test_add_node_requires_edges(self, updatable_index):
        with pytest.raises(UpdateError):
            updatable_index.add_node(0.0, 0.0, [])

    def test_remove_node_updates_to_rebuild(self, updatable_index):
        network = updatable_index.network
        victim = next(
            node
            for node in network.nodes()
            if node not in updatable_index.dataset and network.degree(node) >= 2
        )
        updatable_index.remove_node(victim)
        assert network.degree(victim) == 0
        assert_equals_rebuild(updatable_index)

    def test_remove_object_node_rejected(self, updatable_index):
        with pytest.raises(UpdateError):
            updatable_index.remove_node(updatable_index.dataset[0])


class TestUpdateLocality:
    def test_far_change_touches_few_signatures(self, updatable_index):
        """§5.4's claim: 'a change on the nodes or edges only causes a
        limited number of signatures to be updated'."""
        rng = np.random.default_rng(10)
        u, v, w = _pick_existing_edge(
            updatable_index.network, rng, updatable_index.trees, on_tree=True
        )
        result = updatable_index.apply_updates([("set_weight", u, v, w + 1)])
        report = result.report
        total = updatable_index.network.num_nodes * len(updatable_index.dataset)
        assert report.changed_components < total * 0.5

    def test_requires_trees(self, small_net, small_objs):
        index = SignatureIndex.build(small_net, small_objs, backend="scipy")
        neighbor = next(iter(small_net.neighbors(0)))[0]
        with pytest.raises(UpdateError):
            index.apply_updates([("set_weight", 0, neighbor, 2.0)])
