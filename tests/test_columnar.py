"""The zero-copy columnar store: construction, binding, and equivalence.

The store is correct iff it is invisible: every query through the
columnar engine must return exactly what the scalar reference returns,
charge the same page accesses, and tally the same §5.3 decompressions —
and §5.4 updates must flow through without any explicit invalidation,
because the store's arrays *are* the table's arrays (one memory, rebound
on every structural rebuild), whatever the engine.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core import ColumnarSignatureStore, KnnType, SignatureIndex
from repro.core.categories import (
    CategoryPartition,
    ExponentialPartition,
    category_bound_arrays,
)
from repro.core.persistence import load_index, save_index
from repro.core.signature import LINK_HERE, LINK_NONE
from repro.errors import DisconnectedError, IndexError_, StorageError
from repro.network import (
    ObjectDataset,
    random_planar_network,
    ring_network,
    uniform_dataset,
)
from repro.network.dijkstra import shortest_path_tree
from repro.storage.buffer import LRUBufferPool

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


# ----------------------------------------------------------------------
# Algorithm 1 walks: columnar vs the scalar Backtracker, cost included
# ----------------------------------------------------------------------
def _engine_cost(index, engine, run):
    """``(outcome, cost)`` of ``run`` on ``engine`` from a cold pool.

    The outcome is the result, or the type of the exception raised; the
    cost is logical and physical pages, pool hits and misses,
    decompressions and ``backtrack.hops``.
    """
    index.query_engine = engine
    hops = index.metrics.counter("backtrack.hops")
    index.reset_counters()
    before = hops.value
    try:
        outcome = run()
    except (DisconnectedError, IndexError_) as exc:
        outcome = type(exc)
    pool = index.buffer_pool
    return outcome, (
        index.counter.logical_reads,
        index.counter.physical_reads,
        pool.hits,
        pool.misses,
        index.decompressions,
        hops.value - before,
    )


def _distances(index, pairs):
    """Single ``distance`` calls, ``DisconnectedError`` recorded inline."""
    out = []
    for node, object_node in pairs:
        try:
            out.append(index.distance(node, object_node))
        except DisconnectedError:
            out.append(DisconnectedError)
    return out


def _walk_reads(index, nodes, targets, radii):
    """Every read the columnar walk serves, keyed for error messages."""
    pairs = list(zip(nodes, targets))
    reads = {
        "distance": lambda: _distances(index, pairs),
        "distance_batch": lambda: index.distance_batch(nodes, targets),
    }
    for radius in radii:
        for wd in (False, True):
            reads[("range", radius, wd)] = (
                lambda r=radius, wd=wd: [
                    index.range_query(node, r, with_distances=wd)
                    for node in nodes
                ]
            )
            reads[("range_batch", radius, wd)] = (
                lambda r=radius, wd=wd: index.range_query_batch(
                    nodes, r, with_distances=wd
                )
            )
    return reads


def _with_pool(index, capacity=8):
    """Attach a small LRU pool so physical pages differ from logical."""
    index.buffer_pool = LRUBufferPool(capacity)
    index.refresh_storage()
    return index


class TestWalkDifferential:
    """Distance and range reads answer and charge identically on both
    engines: the columnar walk is the scalar Backtracker, operation for
    operation."""

    @pytest.fixture(
        scope="class",
        params=["compressed", "v2_snapshot", "paper_island", "updated"],
    )
    def case(self, request, small_net, small_objs, tmp_path_factory):
        if request.param in ("compressed", "v2_snapshot"):
            index = SignatureIndex.build(small_net, small_objs, backend="scipy")
            assert index.table.compressed.any()
            if request.param == "v2_snapshot":
                path = tmp_path_factory.mktemp("walk") / "idx"
                save_index(index, path, format=2)
                index = load_index(path)
        elif request.param == "paper_island":
            shared = request.getfixturevalue("dropped_and_disconnected_index")
            index = SignatureIndex(
                shared.network,
                shared.dataset,
                shared.partition,
                shared.table,
                shared.object_table,
            )
        else:
            network = small_net.copy()
            index = SignatureIndex.build(
                network, small_objs, backend="scipy", keep_trees=True
            )
            u, (v, w) = 0, network.neighbors(0)[0]
            far = next(
                node
                for node in range(network.num_nodes)
                if node != u and node not in dict(network.neighbors(u))
                and network.coordinates(node) != network.coordinates(u)
            )
            report = index.apply_updates(
                [("set_weight", u, v, w * 0.5), ("add", u, far, 2.0)]
            ).report
            assert report.changed_components > 0
        rng = random.Random(3)
        objects = [int(node) for node in index.dataset]
        nodes = rng.sample(range(index.network.num_nodes), 24)
        if request.param == "paper_island":
            nodes[:2] = [index.network.num_nodes - 1, 0]
        targets = [rng.choice(objects) for _ in nodes]
        return _with_pool(index), nodes, targets, request.param

    @staticmethod
    def radii(index, nodes, targets):
        """Radii at which refinement decides: true distances (objects
        exactly at the radius) and the lower bound of the median's
        category, where that whole category straddles the radius."""
        distances = index.distance_batch(nodes, targets)
        finite = sorted(d for d in distances if math.isfinite(d))
        median = finite[len(finite) // 2]
        lbs, _ = category_bound_arrays(index.partition)
        boundary = float(lbs[index.partition.categorize(median)])
        return (finite[len(finite) // 4], median, boundary)

    def test_answers_and_costs_are_identical(self, case):
        index, nodes, targets, name = case
        radii = self.radii(index, nodes, targets)
        reads = _walk_reads(index, nodes, targets, radii)
        refined = 0
        for key, run in reads.items():
            got, got_cost = _engine_cost(index, "columnar", run)
            want, want_cost = _engine_cost(index, "scalar", run)
            assert got == want, key
            assert got_cost == want_cost, key
            refined += want_cost[-1]
        assert refined > 0, "no read backtracked: the walk went untested"
        if name == "paper_island":
            batch = index.distance_batch(nodes[:2], [targets[1]] * 2)
            assert math.inf in batch
            assert DisconnectedError in _distances(
                index, list(zip(nodes[:2], [targets[1]] * 2))
            )


class TestWalkCorruption:
    """A corrupt link table fails the same way, after the same charges,
    on both engines."""

    @pytest.fixture
    def corruptible(self, small_net, small_objs):
        index = _with_pool(
            SignatureIndex.build(small_net, small_objs, backend="scipy")
        )
        links = index.table.links
        for node in range(small_net.num_nodes):
            for rank in range(len(small_objs)):
                link = int(links[node, rank])
                if link in (LINK_HERE, LINK_NONE):
                    continue
                after, _ = small_net.neighbor_at(node, link)
                if links[after, rank] != LINK_HERE:
                    return index, node, rank, after
        raise AssertionError("no two-hop walk to corrupt")

    @staticmethod
    def assert_engines_fail_alike(index, node, rank):
        object_node = int(index.dataset[rank])
        for run in (
            lambda: index.distance(node, object_node),
            lambda: index.distance_batch([node], [object_node]),
            lambda: index.range_query(node, 1e9, with_distances=True),
        ):
            got, got_cost = _engine_cost(index, "columnar", run)
            want, want_cost = _engine_cost(index, "scalar", run)
            assert got is want is IndexError_
            assert got_cost == want_cost

    def test_link_cycle(self, corruptible):
        index, node, rank, after = corruptible
        back = [n for n, _ in index.network.neighbors(after)].index(node)
        index.table.links[after, rank] = back
        self.assert_engines_fail_alike(index, node, rank)

    def test_mid_walk_unreachable(self, corruptible):
        index, node, rank, after = corruptible
        index.table.links[after, rank] = LINK_NONE
        self.assert_engines_fail_alike(index, node, rank)

    @pytest.mark.parametrize("past_end", (0, 5), ids=("at-degree", "beyond"))
    def test_link_out_of_range(self, corruptible, past_end):
        index, node, rank, after = corruptible
        index.table.links[after, rank] = (
            index.network.degree(after) + past_end
        )
        self.assert_engines_fail_alike(index, node, rank)

    def test_negative_link(self, corruptible):
        index, node, rank, after = corruptible
        # Below both sentinels: a negative position, not a marker.
        index.table.links[after, rank] = min(LINK_HERE, LINK_NONE) - 1
        self.assert_engines_fail_alike(index, node, rank)


def test_shifted_range_collapse_ends_the_walk_on_both_engines():
    """A category narrower than the accumulator's rounding shifts to
    ``lb + acc == ub + acc``: both engines take the range as exact there
    and stop, after the same charges."""
    network = ring_network(12, edge_weight=1000.0)
    partition = CategoryPartition([1.0, 1.0 + 1e-14, 5000.0])
    index = _with_pool(
        SignatureIndex.build(
            network, ObjectDataset([0]), partition, backend="scipy"
        )
    )
    start = 5
    after, _ = network.neighbor_at(start, int(index.table.links[start, 0]))
    index.table.categories[after, 0] = 1
    index.table.compressed[after, 0] = False
    runs = (
        # (read, its walks: one hop each, where the range collapses)
        (lambda: index.distance(start, 0), 1),
        (lambda: index.distance_batch([start], [0]), 1),
        (lambda: index.range_query(start, 6000.0, with_distances=True), 2),
    )
    for run, walks in runs:
        got, got_cost = _engine_cost(index, "columnar", run)
        want, want_cost = _engine_cost(index, "scalar", run)
        assert got == want
        assert got_cost == want_cost
        assert want_cost[-1] == walks
    assert index.distance(start, 0) == 1001.0


#: Columnar ``(logical pages, decompressions, backtrack.hops)`` on the
#: ``tests/test_paper_pin.py`` configuration, 20 query nodes: range at a
#: radius that refines 137 ambiguous objects, without and with distances,
#: and ``distance_batch`` over 20 pairs.  Recorded before the columnar
#: walk replaced the scalar Backtracker on this engine.
COLUMNAR_RANGE_COST = {False: (814, 506, 397), True: (1358, 552, 669)}
COLUMNAR_DISTANCE_BATCH_COST = (384, 85, 192)


class TestColumnarWalkCostPin:
    RADIUS = 25.0

    @pytest.fixture(scope="class")
    def pinned(self):
        network = random_planar_network(240, seed=13)
        objects = uniform_dataset(network, density=0.05, seed=9)
        index = SignatureIndex.build(
            network, objects, backend="scipy", query_engine="columnar"
        )
        nodes = random.Random(0).sample(range(network.num_nodes), 20)
        targets = random.Random(1).choices(
            [int(node) for node in index.dataset], k=20
        )
        return index, nodes, targets

    @staticmethod
    def cost(index, run):
        hops = index.metrics.counter("backtrack.hops")
        index.reset_counters()
        before = hops.value
        run()
        return (
            index.counter.logical_reads,
            index.decompressions,
            hops.value - before,
        )

    @pytest.mark.parametrize("with_distances", [False, True])
    def test_range_single_and_batch(self, pinned, with_distances):
        index, nodes, _ = pinned
        single = self.cost(
            index,
            lambda: [
                index.range_query(
                    node, self.RADIUS, with_distances=with_distances
                )
                for node in nodes
            ],
        )
        batch = self.cost(
            index,
            lambda: index.range_query_batch(
                nodes, self.RADIUS, with_distances=with_distances
            ),
        )
        assert single == batch == COLUMNAR_RANGE_COST[with_distances]

    def test_distance_single_and_batch(self, pinned):
        index, nodes, targets = pinned
        single = self.cost(
            index,
            lambda: [
                index.distance(node, target)
                for node, target in zip(nodes, targets)
            ],
        )
        batch = self.cost(
            index, lambda: index.distance_batch(nodes, targets)
        )
        assert single == batch == COLUMNAR_DISTANCE_BATCH_COST
