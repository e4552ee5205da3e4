"""Shared fixtures: small deterministic networks, datasets, and indexes.

Everything heavier than a few milliseconds is session-scoped so the suite
stays fast; tests that mutate state (updates) build their own copies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import FullIndex, VN3Index
from repro.core import SignatureIndex
from repro.core.categories import ExponentialPartition
from repro.network import (
    ObjectDataset,
    grid_network,
    random_planar_network,
    ring_network,
    star_network,
    uniform_dataset,
)
from repro.network.dijkstra import shortest_path_tree


@pytest.fixture(scope="session")
def grid5():
    """A 5x5 unit grid (§5.1's analytical topology, in miniature)."""
    return grid_network(5, 5)


@pytest.fixture(scope="session")
def ring12():
    """A 12-node ring: two equally short directions everywhere."""
    return ring_network(12)


@pytest.fixture(scope="session")
def star8():
    """A hub with 8 spokes: the maximum-degree link-width stress case."""
    return star_network(8)


@pytest.fixture(scope="session")
def small_net():
    """A 300-node random planar network (the paper's synthetic recipe)."""
    return random_planar_network(300, seed=42)


@pytest.fixture(scope="session")
def small_objs(small_net):
    """A p=0.04 uniform dataset on :func:`small_net` (12 objects)."""
    return uniform_dataset(small_net, density=0.04, seed=7)


@pytest.fixture(scope="session")
def ground_truth(small_net, small_objs):
    """``(D, N)`` exact distances from every object, via reference Dijkstra."""
    rows = []
    for object_node in small_objs:
        tree = shortest_path_tree(small_net, object_node)
        rows.append(tree.distance)
    return np.array(rows)


@pytest.fixture(scope="session")
def sig_index(small_net, small_objs):
    """A compressed signature index over the small network."""
    return SignatureIndex.build(small_net, small_objs, backend="scipy")


@pytest.fixture(scope="session")
def full_index(small_net, small_objs):
    return FullIndex.build(small_net, small_objs, backend="scipy")


@pytest.fixture(scope="session")
def vn3_index(small_net, small_objs):
    return VN3Index.build(small_net, small_objs)


@pytest.fixture()
def updatable_index(small_net, small_objs):
    """A fresh signature index with trees, safe to mutate per test.

    The network is copied so edge updates cannot leak across tests.
    """
    network = small_net.copy()
    return SignatureIndex.build(
        network, small_objs, backend="scipy", keep_trees=True
    )


@pytest.fixture(scope="session")
def grid_partition():
    """A small exponential partition suited to the 5x5 grid distances."""
    return ExponentialPartition(2.0, 2.0, 8.0)


def make_line_network(weights):
    """A path graph 0-1-2-... with the given edge weights (test helper)."""
    from repro.network.graph import RoadNetwork

    network = RoadNetwork((float(i), 0.0) for i in range(len(weights) + 1))
    for i, w in enumerate(weights):
        network.add_edge(i, i + 1, w)
    return network


@pytest.fixture()
def line_net():
    """A 6-node path with weights 1..5."""
    return make_line_network([1, 2, 3, 4, 5])


@pytest.fixture(scope="session")
def single_object_dataset(small_net):
    """A dataset with exactly one object (degenerate-cardinality cases)."""
    return ObjectDataset([small_net.num_nodes // 2])


@pytest.fixture(scope="session")
def dropped_and_disconnected_index():
    """A ``partition="paper"`` index whose object table holds dropped
    last-category pairs (``NaN``) and an object on a separate two-node
    component (``inf`` pairs)."""
    from repro.network.graph import RoadNetwork

    planar = random_planar_network(120, seed=5)
    coordinates = [planar.coordinates(node) for node in planar.nodes()]
    network = RoadNetwork(coordinates + [(1e4, 1e4), (1e4 + 1, 1e4)])
    for edge in planar.edges():
        network.add_edge(edge.u, edge.v, edge.weight)
    island = planar.num_nodes
    network.add_edge(island, island + 1, 1.0)
    members = set(uniform_dataset(planar, density=0.1, seed=4)) | {island}
    # The paper's partition ends its bounded categories well inside the
    # distance spectrum, so many finite pairs fall in the last category.
    return SignatureIndex.build(
        network,
        ObjectDataset(sorted(members)),
        partition="paper",
        backend="scipy",
    )
