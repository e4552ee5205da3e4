"""The zero-copy columnar store: construction, binding, and equivalence.

The store is correct iff it is invisible: every query through the
columnar engine must return exactly what the scalar reference returns,
charge the same page accesses, and tally the same §5.3 decompressions —
and §5.4 updates must flow through without any explicit invalidation,
because the store's arrays *are* the table's arrays (one memory, rebound
on every structural rebuild), whatever the engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ColumnarSignatureStore, KnnType, SignatureIndex
from repro.core.categories import (
    ExponentialPartition,
    category_bound_arrays,
)
from repro.errors import IndexError_, StorageError
from repro.network import uniform_dataset
from repro.network.dijkstra import shortest_path_tree

ENGINES = ("scalar", "columnar")


@pytest.fixture(scope="module")
def engine_indexes(small_net, small_objs):
    """One index per engine over the same network/dataset."""
    return {
        engine: SignatureIndex.build(
            small_net, small_objs, backend="scipy", query_engine=engine
        )
        for engine in ENGINES
    }


# ----------------------------------------------------------------------
# store construction
# ----------------------------------------------------------------------
class TestStoreConstruction:
    def test_from_index_shapes(self, sig_index):
        store = ColumnarSignatureStore.from_index(sig_index)
        n = sig_index.network.num_nodes
        d = len(sig_index.dataset)
        assert store.categories.shape == (n, d)
        assert store.links.shape == (n, d)
        assert store.compressed.shape == (n, d)
        assert store.object_nodes.shape == (d,)
        assert store.object_distances.shape == (d, d)
        assert store.num_nodes == n and store.num_objects == d

    def test_width_minimal_dtypes(self, sig_index):
        store = ColumnarSignatureStore.from_index(sig_index)
        unreachable = sig_index.partition.unreachable
        assert store.categories.dtype == np.min_scalar_type(unreachable)
        assert store.links.dtype in (np.int16, np.int32)
        assert store.categories.flags.c_contiguous
        assert store.links.flags.c_contiguous

    def test_paper_partition_needs_wider_categories(self, small_net, small_objs):
        """~1000 categories (§6.1 partition) cannot fit uint8."""
        partition = ExponentialPartition(1.01, 1.0, 10_000.0)
        index = SignatureIndex.build(
            small_net, small_objs, partition, backend="scipy"
        )
        store = ColumnarSignatureStore.from_index(index)
        assert partition.unreachable > 255
        assert store.categories.dtype.itemsize >= 2

    def test_bind_rebinds_table_arrays(self, small_net, small_objs):
        index = SignatureIndex.build(small_net, small_objs, backend="scipy")
        assert index.columnar is not None
        assert index.table.categories is index.columnar.categories
        assert index.table.links is index.columnar.links
        assert index.table.compressed is index.columnar.compressed

    def test_default_engine_is_columnar(self, sig_index):
        assert sig_index.query_engine == "columnar"

    def test_vectorized_engine_rejected(self, small_net, small_objs):
        with pytest.raises(IndexError_):
            SignatureIndex.build(
                small_net, small_objs, backend="scipy",
                query_engine="vectorized",
            )

    def test_mismatched_shapes_rejected(self, sig_index):
        store = ColumnarSignatureStore.from_index(sig_index)
        with pytest.raises(IndexError_):
            ColumnarSignatureStore(
                categories=store.categories,
                links=store.links[:-1],
                compressed=store.compressed,
                bases=None,
                boundaries=store.boundaries,
                object_nodes=store.object_nodes,
                object_distances=store.object_distances,
                tree_distances=None,
                tree_parents=None,
                max_degree=store.max_degree,
                drop_last=store.drop_last,
            )

    def test_out_of_range_block_read_raises(self, small_net, small_objs):
        index = SignatureIndex.build(
            small_net, small_objs, backend="scipy", query_engine="columnar"
        )
        bad = np.array([small_net.num_nodes], dtype=np.int64)
        with pytest.raises(StorageError):
            index.columnar.category_block(index, bad)


# ----------------------------------------------------------------------
# engine equivalence
# ----------------------------------------------------------------------
def _reset(index):
    index.counter.reset()
    index.decompressions = 0


class TestEngineEquivalence:
    """Both engines answer identically and cost identically."""

    RADII = (5.0, 15.0, 40.0)

    def test_range_queries(self, engine_indexes, small_net):
        nodes = list(range(0, small_net.num_nodes, 7))
        for radius in self.RADII:
            answers, pages, decomp = {}, {}, {}
            for engine, index in engine_indexes.items():
                _reset(index)
                answers[engine] = index.range_query_batch(
                    nodes, radius, with_distances=True
                )
                pages[engine] = index.counter.logical_reads
                decomp[engine] = index.decompressions
            assert answers["columnar"] == answers["scalar"]
            assert pages["columnar"] == pages["scalar"]
            assert decomp["columnar"] == decomp["scalar"]

    @pytest.mark.parametrize(
        "knn_type",
        [KnnType.SET, KnnType.ORDERED, KnnType.EXACT_DISTANCES],
    )
    def test_knn_all_types(self, engine_indexes, small_net, knn_type):
        nodes = list(range(0, small_net.num_nodes, 11))
        answers = {
            engine: index.knn_batch(nodes, 3, knn_type=knn_type)
            for engine, index in engine_indexes.items()
        }
        assert answers["columnar"] == answers["scalar"]

    def test_aggregate_and_join(self, engine_indexes):
        for aggregate in ("count", "min", "max"):
            values = {
                engine: index.aggregate_range(3, 25.0, aggregate)
                for engine, index in engine_indexes.items()
            }
            assert values["columnar"] == values["scalar"]
        joins = {
            engine: sorted(index.epsilon_join(index, 20.0))
            for engine, index in engine_indexes.items()
        }
        assert joins["columnar"] == joins["scalar"]

    def test_single_node_queries(self, engine_indexes, small_net):
        for node in (0, small_net.num_nodes - 1, 17):
            results = {
                engine: index.range_query(node, 30.0, with_distances=True)
                for engine, index in engine_indexes.items()
            }
            assert results["columnar"] == results["scalar"]


# ----------------------------------------------------------------------
# staleness regression: §5.4 updates vs the shared store
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_no_stale_categories_after_weight_update(
    small_net, small_objs, engine
):
    """An edge-weight update must never leave either engine serving the
    pre-update categories (the columnar store shares the table's
    memory)."""
    network = small_net.copy()
    index = SignatureIndex.build(
        network, small_objs, backend="scipy", keep_trees=True,
        query_engine=engine,
    )
    nodes = list(range(0, network.num_nodes, 5))
    index.range_query_batch(nodes, 30.0)  # touch the store

    u, (v, w) = 0, network.neighbors(0)[0]
    index.apply_updates([("set_weight", u, v, w * 4.0)])

    # Oracle: a freshly built index over the mutated network.
    oracle = SignatureIndex.build(network, small_objs, backend="scipy")
    got = index.range_query_batch(nodes, 30.0, with_distances=True)
    want = oracle.range_query_batch(nodes, 30.0, with_distances=True)
    assert got == want
    got_knn = index.knn_batch(nodes, 3, knn_type=KnnType.EXACT_DISTANCES)
    want_knn = oracle.knn_batch(nodes, 3, knn_type=KnnType.EXACT_DISTANCES)
    assert got_knn == want_knn


def test_structural_update_rebinds_store(small_net, small_objs):
    """add_object / remove_object rebuild arrays; the store must follow."""
    network = small_net.copy()
    index = SignatureIndex.build(
        network, small_objs, backend="scipy", keep_trees=True
    )
    new_object = next(
        node
        for node in range(network.num_nodes)
        if node not in set(small_objs)
    )
    index.add_object(new_object)
    assert index.table.categories is index.columnar.categories
    assert index.columnar.num_objects == len(small_objs) + 1
    # And the query path sees the new object immediately.
    hits = index.range_query(new_object, 0.0)
    assert new_object in hits

    index.remove_object(new_object)
    assert index.columnar.num_objects == len(small_objs)
    assert index.table.categories is index.columnar.categories


def test_scalar_engine_shares_memory_through_updates(small_net, small_objs):
    """The scalar engine reads the table the store is bound to: edge
    updates write through it, and ``add_object`` (which reallocates
    the table) rebinds it."""
    network = small_net.copy()
    index = SignatureIndex.build(
        network, small_objs, backend="scipy", keep_trees=True,
        query_engine="scalar",
    )
    assert index.table.categories is index.columnar.categories
    u, (v, w) = 0, network.neighbors(0)[0]
    index.apply_updates([("set_weight", u, v, w * 3.0)])
    assert index.table.categories is index.columnar.categories
    assert index.table.links is index.columnar.links

    before = index.table.categories
    index.add_object(
        next(n for n in range(network.num_nodes) if n not in set(small_objs))
    )
    assert index.table.categories is not before
    assert index.table.categories is index.columnar.categories
    assert index.table.links is index.columnar.links
    assert index.table.compressed is index.columnar.compressed
    assert index.columnar.num_objects == len(small_objs) + 1
    index.verify(sample_nodes=24)


# ----------------------------------------------------------------------
# block reads of a scalar-engine index (joins, degraded serving)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def join_sides(small_net, small_objs):
    """Probe side on both engines, and a scalar-engine ``other``."""
    other_objs = uniform_dataset(small_net, density=0.03, seed=99)

    def build(objs, engine):
        return SignatureIndex.build(
            small_net, objs, backend="scipy", query_engine=engine
        )

    return (
        build(small_objs, "columnar"),
        build(small_objs, "scalar"),
        build(other_objs, "scalar"),
    )


def _object_distances(network, objs_a, objs_b) -> np.ndarray:
    """Dijkstra oracle: ``(|A|, |B|)`` exact object-to-object distances."""
    return np.array([
        np.asarray(shortest_path_tree(network, a).distance)[list(objs_b)]
        for a in objs_a
    ])


def test_epsilon_join_against_scalar_other(join_sides, small_net):
    columnar, scalar, other = join_sides
    truth = _object_distances(small_net, columnar.dataset, other.dataset)
    for epsilon in (10.0, 25.0, 60.0):
        got = sorted(columnar.epsilon_join(other, epsilon))
        assert got == sorted(scalar.epsilon_join(other, epsilon))
        want = sorted(
            (columnar.dataset[a], other.dataset[b])
            for a, b in zip(*np.nonzero(truth <= epsilon))
        )
        assert got == want


def test_knn_join_against_scalar_other(join_sides, small_net):
    columnar, scalar, other = join_sides
    truth = _object_distances(small_net, columnar.dataset, other.dataset)
    ranks_b = {node: rank for rank, node in enumerate(other.dataset)}
    for k in (1, 3):
        got = columnar.knn_join(other, k)
        assert got == scalar.knn_join(other, k)
        for rank_a, (node_a, neighbors) in enumerate(got):
            assert node_a == columnar.dataset[rank_a]
            distances = sorted(truth[rank_a, ranks_b[n]] for n in neighbors)
            assert distances == sorted(truth[rank_a])[:k]


def test_approximate_range_on_scalar_engine(
    join_sides, small_net, ground_truth
):
    """Degraded serving reads one signature row through the store."""
    columnar, scalar, _ = join_sides
    lbs, _ = category_bound_arrays(scalar.partition)
    partition = scalar.partition
    for node in range(0, small_net.num_nodes, 13):
        for radius in (5.0, 20.0, 45.0):
            got = scalar.approximate_range(node, radius)
            reference = [
                scalar.dataset[rank]
                for rank in range(len(scalar.dataset))
                if lbs[scalar.component(node, rank).category] <= radius
            ]
            assert got == reference
            assert got == columnar.approximate_range(node, radius)
            # Oracle: no object within the radius is missed, and every
            # answer's true category could lie within it.
            rank_of = {n: r for r, n in enumerate(scalar.dataset)}
            truth = ground_truth[:, node]
            assert {
                scalar.dataset[r] for r in np.flatnonzero(truth <= radius)
            } <= set(got)
            for object_node in got:
                category = partition.categorize(truth[rank_of[object_node]])
                assert lbs[category] <= radius
