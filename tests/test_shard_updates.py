"""§5.4 updates on the sharded index: routing, overlay, promotions.

A non-cut edge update must touch *only* the owning shard's signature
index; a cut-edge update must leave every shard index untouched and
instead rebuild the boundary overlay (which it invalidates).  Either
way, post-update answers must match a monolithic index receiving the
identical update stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SignatureIndex
from repro.errors import DatasetError, QueryError
from repro.network import random_planar_network, uniform_dataset
from repro.network.dijkstra import shortest_path_tree
from repro.shard import ShardedSignatureIndex


@pytest.fixture()
def pair():
    """(sharded K=4, monolith) over private network copies."""
    network = random_planar_network(300, seed=42)
    dataset = uniform_dataset(network, density=0.04, seed=7)
    sharded = ShardedSignatureIndex.build(
        network.copy(), dataset, num_shards=4, backend="scipy"
    )
    mono = SignatureIndex.build(
        network.copy(), dataset, backend="scipy", keep_trees=True
    )
    return sharded, mono


def _shard_fingerprints(index):
    """Byte-level fingerprint of every shard's signature arrays."""
    prints = []
    for shard in index.shards:
        if shard.index is None:
            prints.append(None)
            continue
        prints.append(
            (
                shard.index.table.categories.copy(),
                shard.index.trees.distances.copy(),
            )
        )
    return prints


def _find_edge(index, *, cut: bool):
    for edge in index.network.edges():
        su = int(index.assignment[edge.u])
        sv = int(index.assignment[edge.v])
        if (su != sv) == cut:
            return edge.u, edge.v, edge.weight
    raise AssertionError("no such edge")


def _assert_answers_match(sharded, mono, nodes=(0, 42, 99, 250)):
    for node in nodes:
        assert sharded.range_query(node, 45.0, with_distances=True) == (
            mono.range_query(node, 45.0, with_distances=True)
        )
        assert sharded.knn(node, 5) == mono.knn(node, 5)


class TestIntraShardUpdates:
    def test_routes_to_owning_shard_only(self, pair):
        sharded, mono = pair
        u, v, w = _find_edge(sharded, cut=False)
        owner = int(sharded.assignment[u])
        before = _shard_fingerprints(sharded)

        sharded.apply_updates([("set_weight", u, v, w * 3.0)])
        mono.apply_updates([("set_weight", u, v, w * 3.0)])

        after = _shard_fingerprints(sharded)
        for shard_id, (prev, cur) in enumerate(zip(before, after)):
            if prev is None:
                continue
            changed = not np.array_equal(prev[1], cur[1])
            if shard_id == owner:
                assert changed, "owning shard's trees did not move"
            else:
                assert np.array_equal(prev[0], cur[0]), (
                    f"shard {shard_id} signatures touched by a foreign "
                    f"intra-shard update"
                )
                assert np.array_equal(prev[1], cur[1]), (
                    f"shard {shard_id} trees touched by a foreign "
                    f"intra-shard update"
                )
        _assert_answers_match(sharded, mono)
        sharded.verify(sample_nodes=8)

    def test_remove_and_readd(self, pair):
        sharded, mono = pair
        u, v, w = _find_edge(sharded, cut=False)
        for index in (sharded, mono):
            index.apply_updates([("remove", u, v)])
        _assert_answers_match(sharded, mono)
        for index in (sharded, mono):
            index.apply_updates([("add", u, v, w * 1.5)])
        _assert_answers_match(sharded, mono)


class TestCutEdgeUpdates:
    def test_invalidates_boundary_matrix_not_shards(self, pair):
        sharded, mono = pair
        before = _shard_fingerprints(sharded)
        # Reweight cut edges until one actually moves a boundary-pair
        # distance (a cut edge shadowed by an equally short parallel
        # path legitimately leaves D unchanged).
        moved = False
        for edge in list(sharded.network.edges()):
            if (
                sharded.assignment[edge.u] == sharded.assignment[edge.v]
            ):
                continue
            d_before = sharded.D.copy()
            deltas = [("set_weight", edge.u, edge.v, edge.weight * 10.0)]
            sharded.apply_updates(deltas)
            mono.apply_updates(deltas)
            if not np.array_equal(d_before, sharded.D):
                moved = True
                break
        assert moved, "no cut-edge reweight moved the boundary matrix"

        # No shard index moved — the change lives in the overlay.
        for prev, cur in zip(before, _shard_fingerprints(sharded)):
            if prev is not None:
                assert np.array_equal(prev[0], cur[0])
                assert np.array_equal(prev[1], cur[1])
        _assert_answers_match(sharded, mono)
        sharded.verify(sample_nodes=8)

    def test_cut_remove_and_readd(self, pair):
        sharded, mono = pair
        u, v, w = _find_edge(sharded, cut=True)
        for index in (sharded, mono):
            index.apply_updates([("remove", u, v)])
        _assert_answers_match(sharded, mono)
        for index in (sharded, mono):
            index.apply_updates([("add", u, v, w)])
        _assert_answers_match(sharded, mono)

    def test_new_cut_edge_promotes_interior_endpoints(self, pair):
        sharded, mono = pair
        # Two interior (non-boundary) nodes in different shards.
        interior = [
            node
            for node in range(sharded.network.num_nodes)
            if node
            not in sharded.shards[int(sharded.assignment[node])].boundary_set
        ]
        u = interior[0]
        v = next(
            n
            for n in interior
            if sharded.assignment[n] != sharded.assignment[u]
            and not sharded.network.has_edge(u, n)
        )
        boundary_before = int(sharded.boundary.size)

        sharded.apply_updates([("add", u, v, 7.0)])
        mono.apply_updates([("add", u, v, 7.0)])

        assert int(sharded.boundary.size) == boundary_before + 2
        for node in (u, v):
            shard = sharded.shards[int(sharded.assignment[node])]
            assert node in shard.boundary_set
            assert node in shard.pseudo_rank
        _assert_answers_match(sharded, mono, nodes=(u, v, 42, 250))
        sharded.verify(sample_nodes=8)

    def test_staleness_regression_interleaved(self, pair):
        """Mirror of the serving staleness stress, in-process: every
        update must be visible to the very next query."""
        sharded, _ = pair
        network = sharded.network
        objects = list(sharded.dataset)

        def oracle_range(node, radius):
            tree = shortest_path_tree(network, node)
            return sorted(
                obj for obj in objects if tree.distance[obj] <= radius
            )

        edges = []
        for u in range(0, 30, 3):
            for v, w in network.neighbors(u):
                edges.append((u, v, w))
                break
        for step, (u, v, w) in enumerate(edges):
            sharded.apply_updates([("set_weight", u, v, w * (2.0 + step % 3))])
            for node in (u, 42, 250):
                assert sorted(sharded.range_query(node, 45.0)) == (
                    oracle_range(node, 45.0)
                ), f"stale answer after update {step} at node {node}"


class TestUpdateValidation:
    def test_bad_edges_rejected(self, pair):
        sharded, _ = pair
        u, v, w = _find_edge(sharded, cut=False)
        with pytest.raises(DatasetError):
            sharded.apply_updates([("add", u, v, 1.0)])  # already exists
        with pytest.raises(QueryError):
            sharded.apply_updates([("set_weight", u, u, 1.0)])
        with pytest.raises(QueryError):
            sharded.apply_updates([("remove", u, u)])
