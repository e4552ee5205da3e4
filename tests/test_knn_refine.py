"""Bound-pruned kNN refinement (repro.core.knn_refine).

The load-bearing property: the columnar engine, which resolves kNN
through the pruned refinement, returns answers **bit-identical** to the
scalar engine's paper algorithm (same members, same ties, same order per
``KnnType``) over the same tables, while reading far fewer pages on
boundary-heavy workloads.  Plus the validation sweep: ``k < 1`` and
empty object sets raise :class:`~repro.errors.QueryError` everywhere,
and serve as HTTP 400.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SignatureIndex
from repro.core import knn_refine, operations, queries, vectorized
from repro.core.persistence import load_index, save_index
from repro.core.queries import KnnType
from repro.core.signature import ObjectDistanceTable, SignatureTable
from repro.errors import QueryError
from repro.network import (
    ObjectDataset,
    grid_network,
    random_planar_network,
    uniform_dataset,
)
from repro.network.dijkstra import shortest_path_tree
from repro.obs.metrics import MetricsRegistry


def measured(index, fn, *args, **kwargs):
    """(result, logical page reads) of one call on a quiet counter."""
    index.reset_counters()
    result = fn(*args, **kwargs)
    return result, index.counter.logical_reads


@pytest.fixture(scope="module")
def refine_net():
    return random_planar_network(240, seed=13)


@pytest.fixture(scope="module")
def refine_objs(refine_net):
    return uniform_dataset(refine_net, density=0.05, seed=9)


@pytest.fixture(scope="module")
def refine_oracle(refine_net, refine_objs):
    return np.array(
        [shortest_path_tree(refine_net, o).distance for o in refine_objs]
    )


def reload_as_vectorized_snapshot(index, path):
    """Save ``index`` and reload it from a ``meta.txt`` rewritten to the
    older form that named the batch engine ``vectorized``."""
    save_index(index, path)
    meta_path = path / "meta.txt"
    lines = [
        "query_engine vectorized" if line.startswith("query_engine")
        else line
        for line in meta_path.read_text().splitlines()
    ]
    meta_path.write_text("\n".join(lines) + "\n")
    return load_index(path)


def twin(index: SignatureIndex, engine: str) -> SignatureIndex:
    """An ``engine`` index over the *same* tables as ``index``."""
    return SignatureIndex(
        index.network,
        index.dataset,
        index.partition,
        index.table,
        index.object_table,
        stored_kind=index.stored_kind,
        query_engine=engine,
    )


def engine_pair(index: SignatureIndex):
    """``(columnar, scalar)``: ``index`` plus its other-engine twin."""
    if index.query_engine == "scalar":
        return twin(index, "columnar"), index
    return index, twin(index, "scalar")


@pytest.fixture(
    scope="module", params=["scalar", "vectorized", "columnar"]
)
def engine_index(request, refine_net, refine_objs, tmp_path_factory):
    """The side built (or loaded) under each engine name; every test
    compares it with its other-engine twin.  ``vectorized`` is a
    snapshot saved under the older engine name: it must load onto the
    columnar engine and answer identically."""
    engine = "columnar" if request.param == "vectorized" else request.param
    index = SignatureIndex.build(
        refine_net,
        refine_objs,
        backend="scipy",
        query_engine=engine,
    )
    if request.param == "vectorized":
        index = reload_as_vectorized_snapshot(
            index, tmp_path_factory.mktemp("knn_refine") / "idx"
        )
        assert index.query_engine == "columnar"
    return index


def sample_nodes(network, count, seed=0):
    return random.Random(seed).sample(range(network.num_nodes), count)


class TestBitIdentity:
    def test_matches_legacy_for_all_result_types(self, engine_index):
        """The paper's Algorithm 6 (the scalar engine) is the reference."""
        columnar, scalar = engine_pair(engine_index)
        num_objects = len(columnar.dataset)
        columnar_pages = scalar_pages = 0
        for node in sample_nodes(columnar.network, 20):
            for k in (1, 2, 5, num_objects, num_objects + 3):
                for knn_type in KnnType:
                    got, pages = measured(
                        columnar, columnar.knn, node, k, knn_type=knn_type
                    )
                    want, pages_s = measured(
                        scalar, scalar.knn, node, k, knn_type=knn_type
                    )
                    assert got == want, (node, k, knn_type)
                    columnar_pages += pages
                    scalar_pages += pages_s
        # Individual ORDERED queries may trade a few pages (full walks vs
        # pairwise partial refinement); the workload total must win big.
        assert columnar_pages < scalar_pages

    def test_exact_distances_match_dijkstra_oracle(
        self, engine_index, refine_oracle
    ):
        index = engine_index
        dataset = index.dataset
        for node in sample_nodes(index.network, 12, seed=1):
            result = index.knn(
                node, 6, knn_type=KnnType.EXACT_DISTANCES
            )
            distances = [d for _, d in result]
            assert distances == sorted(distances)
            for object_node, d in result:
                rank = dataset.rank(object_node)
                assert d == pytest.approx(
                    refine_oracle[rank][node], rel=1e-9
                )

    def test_pruned_reads_many_fewer_pages(self, engine_index):
        columnar, scalar = engine_pair(engine_index)
        nodes = sample_nodes(columnar.network, 40, seed=2)
        totals = []
        for index in (columnar, scalar):
            index.reset_counters()
            for node in nodes:
                index.knn(node, 5)
            totals.append(index.counter.logical_reads)
        columnar_pages, scalar_pages = totals
        assert columnar_pages * 2 < scalar_pages


class TestHypothesisOracle:
    @given(
        rows=st.integers(3, 5),
        cols=st.integers(3, 5),
        data=st.data(),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_grid_ties_pruned_equals_legacy_and_oracle(
        self, rows, cols, data
    ):
        # Unit grids are maximally tie-heavy: many objects at exactly the
        # same distance, so any tie-break drift shows up immediately.
        network = grid_network(rows, cols)
        num_nodes = rows * cols
        size = data.draw(
            st.integers(1, min(6, num_nodes)), label="num_objects"
        )
        members = data.draw(
            st.lists(
                st.integers(0, num_nodes - 1),
                min_size=size,
                max_size=size,
                unique=True,
            ),
            label="objects",
        )
        dataset = ObjectDataset(sorted(members))
        index = SignatureIndex.build(network, dataset, backend="scipy")
        scalar = twin(index, "scalar")
        oracle = np.array(
            [shortest_path_tree(network, o).distance for o in dataset]
        )
        ks = sorted({1, size // 2 + 1, size, size + 2})
        for node in range(num_nodes):
            for k in ks:
                for knn_type in KnnType:
                    got = index.knn(node, k, knn_type=knn_type)
                    want = scalar.knn(node, k, knn_type=knn_type)
                    assert got == want, (node, k, knn_type)
                result = index.knn(
                    node, k, knn_type=KnnType.EXACT_DISTANCES
                )
                kth = len(result)
                assert kth == min(k, int(np.isfinite(oracle[:, node]).sum()))
                returned = {dataset.rank(obj) for obj, _ in result}
                truth = sorted(oracle[:, node])
                for obj, d in result:
                    assert d == pytest.approx(
                        oracle[dataset.rank(obj)][node], rel=1e-9
                    )
                # No returned distance exceeds the k-th smallest overall.
                if kth:
                    worst = max(d for _, d in result)
                    assert worst <= truth[kth - 1] * (1 + 1e-9)
                excluded = set(range(size)) - returned
                for rank in excluded:
                    assert oracle[rank][node] >= (
                        truth[kth - 1] * (1 - 1e-9)
                    )


class TestBatchAndJoin:
    def test_batch_equals_scalar_singles(self, engine_index):
        index = engine_index
        nodes = sample_nodes(index.network, 16, seed=6)
        batched = vectorized.knn_query_batch(index, nodes, 5)
        singles = [queries.knn_query(index, node, 5) for node in nodes]
        assert batched == singles

    def test_batch_shares_the_frontier(self, refine_net, refine_objs):
        registry = MetricsRegistry()
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy", metrics=registry
        )
        # A batch re-visiting the same node must hit the shared frontier.
        node = refine_net.num_nodes // 2
        before = registry.counter("knn_refine.frontier_hits").value
        vectorized.knn_query_batch(index, [node, node, node], 5)
        assert registry.counter("knn_refine.frontier_hits").value > before

    def test_join_matches_legacy(self, refine_net, refine_objs):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy"
        )
        assert vectorized.knn_join(index, index, 3) == queries.knn_join(
            index, index, 3
        )


class TestObservability:
    def test_counters_and_tightness_histogram(
        self, refine_net, refine_objs
    ):
        registry = MetricsRegistry()
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy", metrics=registry
        )
        for node in sample_nodes(refine_net, 10, seed=7):
            index.knn(node, 5)
        assert registry.counter("knn_refine.refined").value > 0
        assert registry.counter("knn_refine.pruned").value > 0
        assert registry.histogram("knn_refine.bound_tightness").count > 0

    def test_trace_spans_cover_bound_and_exact(
        self, refine_net, refine_objs
    ):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy"
        )
        for node in sample_nodes(refine_net, 12, seed=8):
            with index.trace() as tracer:
                index.knn(node, 5)
            names = {span.name for span in tracer.walk()}
            if "refine.bound" in names:
                assert "refine.exact" in names
                break
        else:  # pragma: no cover - sampling failure
            pytest.fail("no query hit a boundary bucket")


def empty_object_index(network) -> SignatureIndex:
    """A valid index whose dataset is empty (kNN has no possible answer)."""
    partition = SignatureIndex.build(
        network, ObjectDataset([0]), backend="scipy"
    ).partition
    num_nodes = network.num_nodes
    table = SignatureTable(
        partition,
        np.zeros((num_nodes, 0), dtype=np.int16),
        np.zeros((num_nodes, 0), dtype=np.int32),
        max_degree=max(network.max_degree(), 1),
    )
    object_table = ObjectDistanceTable(np.zeros((0, 0)), partition)
    return SignatureIndex(
        network,
        ObjectDataset([]),
        partition,
        table,
        object_table,
        stored_kind="encoded",
    )


class TestValidation:
    def test_k_below_one_raises_everywhere(
        self, refine_net, refine_objs
    ):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy"
        )
        calls = [
            lambda: queries.knn_query(index, 0, 0),
            lambda: queries.approximate_knn_query(index, 0, 0),
            lambda: queries.knn_join(index, index, 0),
            lambda: vectorized.knn_query(index, 0, 0),
            lambda: vectorized.knn_query_batch(index, [0, 1], 0),
            lambda: index.knn(0, 0),
            lambda: index.knn_batch([0, 1], 0),
            lambda: index.knn_approximate(0, 0),
        ]
        for call in calls:
            with pytest.raises(QueryError, match="k must be >= 1"):
                call()

    def test_empty_object_set_raises_query_error(self, refine_net):
        index = empty_object_index(refine_net)
        calls = [
            lambda: queries.knn_query(index, 0, 1),
            lambda: queries.approximate_knn_query(index, 0, 1),
            lambda: vectorized.knn_query(index, 0, 1),
            lambda: vectorized.knn_query_batch(index, [0, 1], 1),
            lambda: index.knn(0, 1),
            lambda: index.knn_batch([0, 1], 1),
            lambda: index.knn_approximate(0, 1),
        ]
        for call in calls:
            with pytest.raises(QueryError, match="non-empty object"):
                call()
        # QueryError is a ValueError, which serving maps to HTTP 400.
        assert issubclass(QueryError, ValueError)

    def test_served_knn_rejects_bad_input_with_400(self, refine_net):
        from tests.test_serve_server import serving

        index = empty_object_index(refine_net)

        async def main():
            async with serving(index) as (_server, client):
                empty = await client.request(
                    "POST", "/v1/knn", {"node": 0, "k": 1}
                )
                assert empty.status == 400
                assert "non-empty object" in empty.payload["error"]
                bad_k = await client.request(
                    "POST", "/v1/knn", {"node": 0, "k": 0}
                )
                assert bad_k.status == 400

        asyncio.run(main())


class TestBoundMachinery:
    def test_bounds_are_admissible(self, refine_net, refine_objs):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy"
        )
        oracle = np.array(
            [shortest_path_tree(refine_net, o).distance for o in refine_objs]
        )
        candidates = list(range(len(refine_objs)))
        for node in sample_nodes(refine_net, 15, seed=9):
            cats_row = vectorized.decode_signature_row(index, node)
            lower, upper = knn_refine.candidate_bounds(
                index, cats_row, candidates
            )
            for i, rank in enumerate(candidates):
                truth = oracle[rank][node]
                if math.isinf(truth):
                    assert math.isinf(lower[i]) or lower[i] >= 0
                    continue
                assert lower[i] <= truth * (1 + 1e-9) + 1e-12
                assert upper[i] >= truth * (1 - 1e-9) - 1e-12

    def test_context_charges_each_page_once(self, refine_net, refine_objs):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy"
        )
        node = refine_net.num_nodes // 3
        ctx = knn_refine.RefinementContext(index)
        cats_row = vectorized.decode_signature_row(index, node)

        def select():
            return knn_refine.knn_select(
                index, node, 5, knn_type=KnnType.SET, cats_row=cats_row,
                ctx=ctx,
            )

        first = select()
        index.reset_counters()
        again = select()
        assert again == first
        # Every page the repeat needed was already in the frontier.
        assert index.counter.logical_reads == 0
        assert ctx.reuse_hits > 0


class TestComparatorDifferential:
    """The columnar engine's Algorithm 3 comparator, built once per query
    from the decoded row, decides every same-category pair exactly as
    the paper's :func:`operations.compare_approximate` does."""

    @pytest.fixture(
        scope="class",
        params=[
            "compressed",
            "v2_snapshot",
            "grid_ties",
            "dropped_and_disconnected",
        ],
    )
    def case(self, request, refine_net, refine_objs, tmp_path_factory):
        if request.param in ("compressed", "v2_snapshot"):
            index = SignatureIndex.build(
                refine_net, refine_objs, backend="scipy"
            )
            assert index.table.compressed.any()
            if request.param == "v2_snapshot":
                path = tmp_path_factory.mktemp("comparator") / "idx"
                save_index(index, path, format=2)
                index = load_index(path)
            return index, sample_nodes(refine_net, 24, seed=11)
        if request.param == "grid_ties":
            network = grid_network(6, 6)
            dataset = ObjectDataset([0, 5, 8, 14, 17, 21, 30, 35])
            index = SignatureIndex.build(network, dataset, backend="scipy")
            return index, list(range(network.num_nodes))
        index = request.getfixturevalue("dropped_and_disconnected_index")
        matrix = index.object_table.matrix_view()
        assert np.isnan(matrix).any() and np.isinf(matrix).any()
        return index, list(range(index.network.num_nodes))

    def test_decisions_equal_compare_approximate(self, case):
        index, nodes = case
        pairs = decided = 0
        for node in nodes:
            row = vectorized.decode_signature_row(index, node)
            compare = knn_refine._make_approx_comparator(index, row)
            cats = row.tolist()
            for a, cat_a in enumerate(cats):
                for b, cat_b in enumerate(cats):
                    if a == b or cat_a != cat_b:
                        continue
                    got = compare(a, b)
                    want = operations.compare_approximate(index, node, a, b)
                    assert got == want, (node, a, b)
                    pairs += 1
                    decided += got != 0
        # The observers must actually vote, or equality proves little.
        assert pairs and decided

    def test_observer_past_the_bisector(self, refine_net, refine_objs):
        """An observer whose every bisector candidate is nearer than the
        node can be votes for the far side.  Network-consistent tables
        never place one so; an edited table does.  Uncompressed, so the
        edit cannot change what a decompression would resolve."""
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy", compress=False
        )
        partition = index.partition
        table = index.object_table
        last_lb = partition.lower_bound(partition.num_categories - 1)
        for node in sample_nodes(refine_net, refine_net.num_nodes, seed=13):
            cats = vectorized.decode_signature_row(index, node).tolist()
            found = [
                (a, b, c)
                for a, b, c in itertools.permutations(range(len(cats)), 3)
                if cats[a] == cats[b]
                and 0 < cats[c] < cats[a]
                and 2 * partition.upper_bound(cats[a]) < last_lb
            ]
            if found:
                break
        else:  # pragma: no cover - sampling failure
            pytest.fail("no bounded pair with a nearer observer")
        a, b, c = found[0]
        shared, observer = cats[a], cats[c]
        ub = partition.upper_bound(shared)
        obs_lb = partition.lower_bound(observer)
        # The pair nearly 2*ub apart (bisector candidates then sit within
        # obs_lb / 2 of its midpoint) and the observer just off the
        # midpoint; every other observer equidistant, so it abstains.
        half = math.sqrt(ub * ub - obs_lb * obs_lb / 4)
        d_ca, d_cb = half + obs_lb / 8, half - obs_lb / 8
        table.set_distance(a, b, 2 * half)
        table.set_distance(b, a, 2 * half)
        table.set_distance(c, a, d_ca)
        table.set_distance(c, b, d_cb)
        for other, category in enumerate(cats):
            if category < shared and other not in (a, b, c):
                table.set_distance(other, a, 1.0)
                table.set_distance(other, b, 1.0)
        assert operations._observer_vote(
            partition, shared, observer, 2 * half, d_ca, d_cb
        ) == -1
        row = vectorized.decode_signature_row(index, node)
        compare = knn_refine._make_approx_comparator(index, row)
        assert compare(a, b) == operations.compare_approximate(
            index, node, a, b
        ) == -1
        assert compare(b, a) == operations.compare_approximate(
            index, node, b, a
        ) == 1


#: The columnar engine's kNN cost on the configuration of
#: ``tests/test_paper_pin.py`` (240-node planar network, seed 13;
#: density 0.05, seed 9; the 20 query nodes ``Random(0)`` samples):
#: ``(logical pages, decompressions, backtrack.hops)`` per ``(type, k)``,
#: summed over one query per node, and for one 20-node ``knn_batch``
#: (whose shared frontier charges a revisited record once).  A faster
#: refinement must leave every figure where it is.
COLUMNAR_KNN_COST_SINGLE = {
    (KnnType.EXACT_DISTANCES, 1): (176, 173, 85),
    (KnnType.EXACT_DISTANCES, 5): (979, 578, 989),
    (KnnType.EXACT_DISTANCES, 10): (1798, 1034, 1916),
    (KnnType.ORDERED, 1): (108, 173, 51),
    (KnnType.ORDERED, 5): (964, 578, 955),
    (KnnType.ORDERED, 10): (1783, 1034, 1882),
    (KnnType.SET, 1): (108, 173, 51),
    (KnnType.SET, 5): (908, 563, 829),
    (KnnType.SET, 10): (681, 536, 609),
}
COLUMNAR_KNN_COST_BATCH = {
    (KnnType.EXACT_DISTANCES, 1): (102, 173, 85),
    (KnnType.EXACT_DISTANCES, 5): (201, 404, 989),
    (KnnType.EXACT_DISTANCES, 10): (208, 563, 1916),
    (KnnType.ORDERED, 1): (76, 173, 51),
    (KnnType.ORDERED, 5): (201, 404, 955),
    (KnnType.ORDERED, 10): (208, 563, 1882),
    (KnnType.SET, 1): (76, 173, 51),
    (KnnType.SET, 5): (194, 399, 829),
    (KnnType.SET, 10): (160, 365, 609),
}


class TestColumnarCostPin:
    @pytest.fixture(scope="class")
    def pinned(self, refine_net, refine_objs):
        index = SignatureIndex.build(
            refine_net, refine_objs, backend="scipy", query_engine="columnar"
        )
        nodes = random.Random(0).sample(range(refine_net.num_nodes), 20)
        return index, nodes

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

    @pytest.mark.parametrize(
        "knn_type,k",
        sorted(
            COLUMNAR_KNN_COST_SINGLE,
            key=lambda key: (key[0].value, key[1]),
        ),
    )
    def test_single_and_batch_costs_are_pinned(self, pinned, knn_type, k):
        index, nodes = pinned
        single = self.cost(
            index,
            lambda: [index.knn(node, k, knn_type=knn_type) for node in nodes],
        )
        batch = self.cost(
            index, lambda: index.knn_batch(nodes, k, knn_type=knn_type)
        )
        assert single == COLUMNAR_KNN_COST_SINGLE[(knn_type, k)]
        assert batch == COLUMNAR_KNN_COST_BATCH[(knn_type, k)]
