"""Protocol-conformance battery for every registered backend family.

Parameterized over ``repro.backends.BACKENDS``, so a backend N+1 that
registers itself inherits the whole suite: exact distance/range/kNN
against a Dijkstra oracle (including tie-breaks by dataset rank),
``QueryError`` validation parity with the signature index, the
rebuild-on-update §5.4 story, and the persistence round-trip through
the registry-driven magic dispatch.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.backends import BACKENDS, backend_of, build_backend
from repro.core import KnnType, SignatureIndex
from repro.core.interface import DistanceIndex
from repro.core.persistence import load_index, registered_magics, save_index
from repro.errors import (
    DatasetError,
    IndexError_,
    PersistenceError,
    QueryError,
)
from repro.network import (
    ObjectDataset,
    grid_network,
    random_planar_network,
    uniform_dataset,
)
from repro.network.dijkstra import shortest_path_tree

BACKEND_NAMES = sorted(BACKENDS)

#: Every ``apply_updates`` implementation: the signature index under
#: both query engines and the two hierarchy backends.  The
#: update-validation battery below runs against all of them so
#: rejection behavior cannot drift apart.
UPDATE_IMPLEMENTATIONS = ("signature", "columnar", "ch", "hub")

SAMPLE_NODES = list(range(0, 250, 13))
RADII = (0.0, 12.0, 35.0, 80.0)


@pytest.fixture(scope="module")
def planar():
    network = random_planar_network(250, seed=11)
    dataset = uniform_dataset(network, density=0.04, seed=11)
    return network, dataset


@pytest.fixture(scope="module")
def oracle(planar):
    network, dataset = planar
    return {obj: shortest_path_tree(network, obj) for obj in dataset}


@pytest.fixture(scope="module", params=BACKEND_NAMES)
def backend(request, planar):
    network, dataset = planar
    # copy(): the shared module network must not alias a mutable index.
    return build_backend(request.param, network.copy(), dataset)


def _oracle_pairs(oracle, dataset, node):
    """All finite ``(distance, rank)`` pairs, in backend tie-break order."""
    pairs = sorted(
        (oracle[obj].distance[node], rank)
        for rank, obj in enumerate(dataset)
    )
    return [(d, r) for d, r in pairs if math.isfinite(d)]


# ----------------------------------------------------------------------
# protocol + reporting
# ----------------------------------------------------------------------
def test_every_backend_is_a_distance_index(backend):
    assert isinstance(backend, DistanceIndex)
    assert backend_of(backend) == backend.backend_name
    stats = backend.stats()
    assert stats["backend"] == backend.backend_name
    assert stats["index_bytes"] > 0


def test_signature_families_report_their_backend(planar):
    network, dataset = planar
    index = SignatureIndex.build(network, dataset)
    assert backend_of(index) == "signature"


# ----------------------------------------------------------------------
# exact answers against the Dijkstra oracle
# ----------------------------------------------------------------------
def test_distance_matches_dijkstra(backend, planar, oracle):
    _, dataset = planar
    for node in SAMPLE_NODES:
        for obj in dataset:
            assert backend.distance(node, obj) == oracle[obj].distance[node]


def test_range_matches_dijkstra(backend, planar, oracle):
    _, dataset = planar
    for node in SAMPLE_NODES:
        for radius in RADII:
            want = [
                obj
                for obj in dataset
                if oracle[obj].distance[node] <= radius
            ]
            assert backend.range_query(node, radius) == want
            got = backend.range_query(node, radius, with_distances=True)
            assert got == [
                (obj, oracle[obj].distance[node]) for obj in want
            ]


def test_knn_matches_oracle_with_rank_tiebreak(backend, planar, oracle):
    _, dataset = planar
    for node in SAMPLE_NODES[:8]:
        pairs = _oracle_pairs(oracle, dataset, node)
        for k in (1, 2, 5, len(dataset), len(dataset) + 4):
            want = [(dataset[r], d) for d, r in pairs[:k]]
            got = backend.knn(node, k, knn_type=KnnType.EXACT_DISTANCES)
            assert got == want
            ordered = backend.knn(node, k, knn_type=KnnType.ORDERED)
            assert ordered == [obj for obj, _ in want]
            assert set(backend.knn(node, k)) == {obj for obj, _ in want}


def test_grid_ties_resolve_by_dataset_rank():
    # A unit grid is all ties; the pinned semantics are (distance, rank).
    network = grid_network(6, 6)
    dataset = ObjectDataset([7, 10, 25, 28])
    oracle = {obj: shortest_path_tree(network, obj) for obj in dataset}
    for name in BACKEND_NAMES:
        index = build_backend(name, network.copy(), dataset)
        for node in range(0, network.num_nodes, 5):
            pairs = _oracle_pairs(oracle, dataset, node)
            got = index.knn(node, 3, knn_type=KnnType.EXACT_DISTANCES)
            assert got == [(dataset[r], d) for d, r in pairs[:3]], (
                name, node,
            )


def test_batch_entry_points_match_scalar(backend):
    nodes = [0, 3, 17, 101, 249]
    assert backend.range_query_batch(nodes, 30.0) == [
        backend.range_query(node, 30.0) for node in nodes
    ]
    assert backend.knn_batch(
        tuple(nodes), 4, knn_type=KnnType.EXACT_DISTANCES
    ) == [
        backend.knn(node, 4, knn_type=KnnType.EXACT_DISTANCES)
        for node in nodes
    ]
    assert backend.range_query_batch(np.array(nodes), 30.0) == [
        backend.range_query(node, 30.0) for node in nodes
    ]
    assert backend.range_query_batch([], 30.0) == []


def test_degraded_answers_are_exact(backend):
    for node in (4, 77):
        assert backend.approximate_range(node, 40.0) == backend.range_query(
            node, 40.0
        )
        assert backend.knn_approximate(node, 3) == backend.knn(
            node, 3, knn_type=KnnType.ORDERED
        )


@pytest.fixture(scope="module", params=UPDATE_IMPLEMENTATIONS)
def implementation(request, planar):
    """Every ``DistanceIndex`` implementation, queried read-only."""
    network, dataset = planar
    name = request.param
    if name in ("signature", "columnar"):
        engine = "scalar" if name == "signature" else "columnar"
        return SignatureIndex.build(network, dataset, query_engine=engine)
    return build_backend(name, network.copy(), dataset)


def test_approximate_range_never_misses_an_object(implementation):
    """The degraded range answer (§3.2) is a superset of the exact one,
    in dataset order; a signature index reads one signature record."""
    index = implementation
    assert isinstance(index, DistanceIndex)
    for node in SAMPLE_NODES:
        for radius in RADII:
            approx = index.approximate_range(node, radius)
            assert approx == sorted(approx, key=index.dataset.rank)
            assert set(index.range_query(node, radius)) <= set(approx)
    if isinstance(index, SignatureIndex):
        node = SAMPLE_NODES[3]
        index.reset_counters()
        index.touch_signature(node)
        one_record = index.counter.logical_reads
        index.reset_counters()
        index.approximate_range(node, RADII[-1])
        assert index.counter.logical_reads == one_record


def test_aggregate_range_matches_oracle(backend, planar, oracle):
    _, dataset = planar
    node, radius = 9, 50.0
    distances = [
        oracle[obj].distance[node]
        for obj in dataset
        if oracle[obj].distance[node] <= radius
    ]
    assert backend.aggregate_range(node, radius, "count") == len(distances)
    if distances:
        assert backend.aggregate_range(node, radius, "min") == min(distances)
        assert backend.aggregate_range(node, radius, "mean") == pytest.approx(
            sum(distances) / len(distances)
        )
    with pytest.raises(QueryError, match="unknown aggregate"):
        backend.aggregate_range(node, radius, "median")


def test_builtin_verify_passes(backend):
    backend.verify(sample_nodes=8, seed=3)


# ----------------------------------------------------------------------
# QueryError validation parity with the signature index
# ----------------------------------------------------------------------
def test_k_validation_parity(backend):
    for bad_k in (0, -2):
        with pytest.raises(QueryError, match=f"k must be >= 1, got {bad_k}"):
            backend.knn(1, bad_k)
    with pytest.raises(QueryError, match="k must be an integer"):
        backend.knn(1, 2.5)


def test_radius_validation_parity(backend):
    with pytest.raises(QueryError, match="finite and non-negative"):
        backend.range_query(1, -3.0)
    with pytest.raises(QueryError, match="finite and non-negative"):
        backend.range_query(1, math.inf)
    with pytest.raises(QueryError, match="radius must be a number"):
        backend.range_query(1, "wide")


def test_batch_input_validation_parity(backend):
    with pytest.raises(QueryError, match="must be integers"):
        backend.range_query_batch([1.5, 2.0], 10.0)
    with pytest.raises(QueryError, match="one-dimensional"):
        backend.knn_batch(np.zeros((2, 2), dtype=np.int64), 1)


def test_invalid_node_and_non_object(backend, planar):
    network, dataset = planar
    with pytest.raises(QueryError, match="does not exist"):
        backend.range_query(network.num_nodes + 5, 10.0)
    non_object = next(
        node for node in range(network.num_nodes) if node not in dataset
    )
    with pytest.raises(DatasetError, match="is not an object"):
        backend.distance(0, non_object)


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_empty_dataset_knn_parity(name):
    network = grid_network(4, 4)
    index = build_backend(name, network, ObjectDataset([]))
    with pytest.raises(
        QueryError, match="kNN query requires a non-empty object dataset"
    ):
        index.knn(0, 1)
    assert index.range_query(0, 100.0) == []


# ----------------------------------------------------------------------
# §5.4 updates: documented rebuild-on-update
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_updates_rebuild_to_exact_answers(name):
    network = random_planar_network(120, seed=4)
    dataset = uniform_dataset(network, density=0.05, seed=4)
    index = build_backend(name, network, dataset)
    far = max(
        range(network.num_nodes),
        key=lambda node: min(
            shortest_path_tree(network, obj).distance[node]
            for obj in dataset
        ),
    )
    report = index.apply_updates([("add", far, dataset[0], 1.0)]).report
    assert report.affected_objects == set(range(len(dataset)))
    assert report.touched_nodes == network.num_nodes
    oracle = {obj: shortest_path_tree(network, obj) for obj in dataset}
    for node in range(0, network.num_nodes, 9):
        for obj in dataset:
            assert index.distance(node, obj) == oracle[obj].distance[node]
    index.apply_updates([("set_weight", far, dataset[0], 0.5)])
    assert index.distance(far, dataset[0]) == 0.5
    index.apply_updates([("remove", far, dataset[0])])
    oracle_d = shortest_path_tree(network, dataset[0]).distance[far]
    assert index.distance(far, dataset[0]) == oracle_d


# ----------------------------------------------------------------------
# §5.4 updates: aligned validation across every implementation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=UPDATE_IMPLEMENTATIONS)
def updatable(request, planar):
    """One instance of each ``apply_updates`` implementation.

    Module-scoped deliberately: every test here asserts *rejection*,
    which must leave the index untouched, so sharing is safe — and the
    sharing itself re-checks the no-mutation contract test over test.
    """
    network, dataset = planar
    name = request.param
    if name == "signature":
        return SignatureIndex.build(
            network.copy(), dataset, keep_trees=True, query_engine="scalar"
        )
    if name == "columnar":
        return SignatureIndex.build(
            network.copy(), dataset, keep_trees=True,
            query_engine="columnar",
        )
    return build_backend(name, network.copy(), dataset)


@pytest.mark.parametrize(
    "item",
    [
        ("teleport", 0, 1, 2.0),
        ("add", 4, 4, 1.0),
        ("add", 0, 1),
        ("set_weight", 0, 1, None),
        ("add", 0, 1, 0.0),
        ("add", 0, 1, -2.0),
        ("add", 0, 1, math.inf),
        ("add", 0, 1, math.nan),
    ],
    ids=[
        "unknown-op", "self-loop", "missing-weight", "none-weight",
        "zero-weight", "negative-weight", "inf-weight", "nan-weight",
    ],
)
def test_structural_rejection_is_a_query_error(updatable, item):
    with pytest.raises(QueryError):
        updatable.apply_updates([item])


def test_network_rejection_is_a_dataset_error(updatable, planar):
    network, _ = planar
    edge = next(iter(network.edges()))
    u, v = int(edge.u), int(edge.v)
    missing = next(
        (a, b)
        for a in range(network.num_nodes)
        for b in range(a + 1, network.num_nodes)
        if not network.has_edge(a, b)
    )
    with pytest.raises(DatasetError):
        updatable.apply_updates([("set_weight", 0, 999, 2.0)])
    with pytest.raises(DatasetError):
        updatable.apply_updates([("add", u, v, 2.0)])
    with pytest.raises(DatasetError):
        updatable.apply_updates([("remove", *missing)])
    with pytest.raises(DatasetError):
        updatable.apply_updates([("set_weight", *missing, 2.0)])


def test_rejection_mutates_nothing(updatable, planar, oracle):
    _, dataset = planar
    before = [updatable.distance(node, dataset[0]) for node in SAMPLE_NODES]
    with pytest.raises(QueryError):
        updatable.apply_updates([("add", 0, 1, -5.0)])
    with pytest.raises(DatasetError):
        updatable.apply_updates([("set_weight", 0, 999, 2.0)])
    after = [updatable.distance(node, dataset[0]) for node in SAMPLE_NODES]
    assert before == after == [
        oracle[dataset[0]].distance[node] for node in SAMPLE_NODES
    ]


def test_whole_changeset_rejected_before_any_mutation(updatable, planar):
    """One bad delta poisons the batch: the valid ``set_weight`` ahead
    of it must not land."""
    network, dataset = planar
    edge = next(iter(network.edges()))
    u, v = int(edge.u), int(edge.v)
    before = updatable.distance(u, dataset[0])
    with pytest.raises(DatasetError):
        updatable.apply_updates(
            [("set_weight", u, v, 123.5), ("set_weight", 0, 999, 2.0)]
        )
    assert updatable.distance(u, dataset[0]) == before


# ----------------------------------------------------------------------
# persistence: registry-driven magic dispatch
# ----------------------------------------------------------------------
def test_persistence_roundtrip(backend, planar, oracle, tmp_path):
    _, dataset = planar
    target = tmp_path / "idx"
    save_index(backend, target)
    loaded = load_index(target)
    assert type(loaded) is type(backend)
    assert backend_of(loaded) == backend.backend_name
    for node in SAMPLE_NODES[:6]:
        for obj in dataset:
            assert loaded.distance(node, obj) == oracle[obj].distance[node]
        assert loaded.range_query(node, 40.0) == backend.range_query(
            node, 40.0
        )
        assert loaded.knn(node, 3, knn_type=KnnType.EXACT_DISTANCES) == (
            backend.knn(node, 3, knn_type=KnnType.EXACT_DISTANCES)
        )
    loaded.verify(sample_nodes=6, seed=1)


def test_backends_reject_explicit_format(backend, tmp_path):
    with pytest.raises(IndexError_, match="owns its on-disk format"):
        save_index(backend, tmp_path / "idx", format=2)


def test_unknown_magic_error_enumerates_registry(backend, tmp_path):
    target = tmp_path / "idx"
    save_index(backend, target)
    (target / "meta.txt").write_text("repro-quantum-index 9\n")
    with pytest.raises(PersistenceError) as excinfo:
        load_index(target)
    message = str(excinfo.value)
    for magic in registered_magics():
        assert repr(magic) in message
    assert excinfo.value.magic == "repro-quantum-index 9"


def test_corrupt_array_payload_is_typed(backend, tmp_path):
    target = tmp_path / "idx"
    save_index(backend, target)
    victim = next((target / "arrays").glob("bucket_dists.bin"))
    victim.write_bytes(victim.read_bytes()[:-4])
    with pytest.raises(PersistenceError, match="bytes"):
        load_index(target)


# ----------------------------------------------------------------------
# cross-family agreement
# ----------------------------------------------------------------------
def test_all_families_answer_identical_distances(planar, oracle):
    network, dataset = planar
    signature = SignatureIndex.build(network, dataset)
    backends = {
        name: build_backend(name, network.copy(), dataset)
        for name in BACKEND_NAMES
    }
    for node in SAMPLE_NODES[:8]:
        for obj in dataset:
            want = signature.distance(node, obj)
            assert want == oracle[obj].distance[node]
            for name, index in backends.items():
                assert index.distance(node, obj) == want, (name, node, obj)


def test_all_families_answer_identical_result_sets(planar):
    """Range results match the monolith exactly; kNN distance multisets
    match everywhere (only the reported object at an *exactly tied*
    distance may differ — the monolith breaks ties by its signature
    pre-sort, the backends by dataset rank)."""
    network, dataset = planar
    signature = SignatureIndex.build(network, dataset)
    backends = {
        name: build_backend(name, network.copy(), dataset)
        for name in BACKEND_NAMES
    }
    for node in SAMPLE_NODES:
        want_range = signature.range_query(node, 60.0, with_distances=True)
        want_dists = sorted(
            d
            for _, d in signature.knn(
                node, 4, knn_type=KnnType.EXACT_DISTANCES
            )
        )
        for name, index in backends.items():
            got = index.range_query(node, 60.0, with_distances=True)
            assert got == want_range, (name, node)
            got_dists = sorted(
                d
                for _, d in index.knn(
                    node, 4, knn_type=KnnType.EXACT_DISTANCES
                )
            )
            assert got_dists == want_dists, (name, node)


# ----------------------------------------------------------------------
# observability surface
# ----------------------------------------------------------------------
def test_trace_and_metrics_surface(backend):
    snapshot = backend.metrics.snapshot()
    before = snapshot["counters"].get("query.range.count", 0)
    with backend.trace() as tracer:
        backend.range_query(3, 25.0)
    names = [span.name for span in tracer.walk()]
    assert "query.range" in names
    after = backend.metrics.snapshot()["counters"]["query.range.count"]
    assert after == before + 1


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_build_trace_records_phases(name):
    network = grid_network(5, 5)
    dataset = ObjectDataset([0, 12, 24])
    index = build_backend(name, network, dataset)
    phases = {span.name for span in index.build_trace.walk()}
    assert "build.contract" in phases
    assert "build.buckets" in phases
    assert "build.object_table" in phases
