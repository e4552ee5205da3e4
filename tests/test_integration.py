"""Cross-system integration: all indexes agree on randomized inputs.

These are the strongest guarantees in the suite: on freshly generated
networks and datasets, the signature index, the full index, VN³, IER, and
plain network expansion must return identical answers for every query type
they share — and hypothesis drives the generation.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import FullIndex, VN3Index, ier_knn, ier_range
from repro.core import KnnType, SignatureIndex
from repro.network import (
    ine_knn,
    ine_range,
    random_planar_network,
    uniform_dataset,
)


def build_world(num_nodes, density, seed):
    network = random_planar_network(num_nodes, seed=seed)
    dataset = uniform_dataset(network, density=density, seed=seed + 1)
    return network, dataset


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(60, 220),
    k=st.integers(1, 6),
)
def test_knn_consensus_property(seed, num_nodes, k):
    network, dataset = build_world(num_nodes, 0.05, seed)
    signature = SignatureIndex.build(network, dataset, backend="scipy")
    full = FullIndex.build(network, dataset, backend="scipy")
    vn3 = VN3Index.build(network, dataset)
    rng = np.random.default_rng(seed)
    for node in rng.choice(num_nodes, 5, replace=False):
        node = int(node)
        expected = [d for _, d in full.knn(node, k)]
        assert [d for _, d in vn3.knn(node, k)] == expected
        assert [
            d
            for _, d in signature.knn(
                node, k, knn_type=KnnType.EXACT_DISTANCES
            )
        ] == expected
        assert [d for _, d in ier_knn(network, node, k, dataset)[0]] == expected
        assert [d for _, d in ine_knn(network, node, k, dataset).results] == (
            expected
        )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(60, 220),
    radius=st.floats(0.0, 60.0),
)
def test_range_consensus_property(seed, num_nodes, radius):
    network, dataset = build_world(num_nodes, 0.05, seed)
    signature = SignatureIndex.build(network, dataset, backend="scipy")
    full = FullIndex.build(network, dataset, backend="scipy")
    vn3 = VN3Index.build(network, dataset)
    rng = np.random.default_rng(seed)
    for node in rng.choice(num_nodes, 5, replace=False):
        node = int(node)
        expected = sorted(o for o, _ in full.range_query(node, radius))
        assert sorted(o for o, _ in vn3.range_query(node, radius)) == expected
        assert sorted(signature.range_query(node, radius)) == expected
        assert sorted(
            o for o, _ in ier_range(network, node, radius, dataset)[0]
        ) == expected
        assert sorted(
            o for o, _ in ine_range(network, node, radius, dataset).results
        ) == expected


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_update_stream_keeps_index_exact_property(seed):
    """A random stream of add/remove/reweight keeps signatures exact."""
    network, dataset = build_world(120, 0.05, seed)
    index = SignatureIndex.build(
        network, dataset, backend="scipy", keep_trees=True
    )
    rng = np.random.default_rng(seed)
    for _ in range(4):
        op = rng.integers(3)
        if op == 0:  # add
            while True:
                u = int(rng.integers(network.num_nodes))
                v = int(rng.integers(network.num_nodes))
                if u != v and not network.has_edge(u, v):
                    break
            index.apply_updates([("add", u, v, float(rng.integers(1, 11)))])
        elif op == 1:  # reweight
            edges = list(network.edges())
            edge = edges[int(rng.integers(len(edges)))]
            index.apply_updates([(
                "set_weight", edge.u, edge.v, float(rng.integers(1, 11))
            )])
        else:  # remove (keep min degree to limit disconnection churn)
            edges = [
                e
                for e in network.edges()
                if network.degree(e.u) > 1 and network.degree(e.v) > 1
            ]
            if not edges:
                continue
            edge = edges[int(rng.integers(len(edges)))]
            index.apply_updates([("remove", edge.u, edge.v)])
    # Exactness against fresh Dijkstra from every object.
    from repro.network.dijkstra import shortest_path_tree
    from repro.core.operations import retrieve_distance

    for rank, object_node in enumerate(dataset):
        tree = shortest_path_tree(network, object_node)
        for node in rng.choice(network.num_nodes, 10, replace=False):
            node = int(node)
            truth = tree.distance[node]
            if math.isinf(truth):
                assert (
                    index.component(node, rank).category
                    == index.partition.unreachable
                )
            else:
                assert retrieve_distance(index, node, rank) == truth


def test_grid_world_all_systems(grid5):
    """Deterministic miniature: the §5.1 grid with hand-picked objects."""
    from repro.network import ObjectDataset

    dataset = ObjectDataset([0, 12, 24])
    signature = SignatureIndex.build(grid5, dataset, backend="python")
    full = FullIndex.build(grid5, dataset, backend="python")
    vn3 = VN3Index.build(grid5, dataset)
    for node in grid5.nodes():
        expected = [d for _, d in full.knn(node, 3)]
        assert [
            d
            for _, d in signature.knn(node, 3, knn_type=KnnType.EXACT_DISTANCES)
        ] == expected
        assert [d for _, d in vn3.knn(node, 3)] == expected


def test_epsilon_join_cross_indexes(small_net, small_objs):
    """ε-join built from signature queries equals brute force over pairs."""
    other = uniform_dataset(small_net, density=0.02, seed=123)
    index_a = SignatureIndex.build(small_net, small_objs, backend="scipy")
    index_b = SignatureIndex.build(small_net, other, backend="scipy")
    full_b = FullIndex.build(small_net, other, backend="scipy")
    epsilon = 35.0
    joined = set(index_a.epsilon_join(index_b, epsilon))
    brute = {
        (a, b)
        for a in small_objs
        for b, _ in full_b.range_query(a, epsilon)
    }
    assert joined == brute
