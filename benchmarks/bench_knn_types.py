"""§4.2's kNN result-type hierarchy: what order and distances cost extra.

The paper differentiates three kNN flavors — exact distances (type 1),
order only (type 2), bare set (type 3) — precisely because the general
algorithm "first solves a kNN query as a type 3 query, and then refines
the results for type 2 and type 1".  This bench measures the refinement
surcharge: type 3 is the floor, type 2 adds per-bucket sorting, type 1
adds exact retrieval for every result.

Run alongside a topology-robustness check: the same sweep on the
Manhattan-style structured grid must show the same hierarchy, supporting
DESIGN.md's claim that conclusions are not an artifact of one generator.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.core import KnnType, SignatureIndex
from repro.network.datasets import uniform_dataset
from repro.network.generators import manhattan_network
from repro.storage.buffer import LRUBufferPool
from repro.workloads import (
    build_experiment_suite,
    format_table,
    make_query_nodes,
    measure_queries,
)

NUM_QUERIES = 60
K = 10


def _measure(index, nodes):
    rows = []
    pages = {}
    for knn_type in (KnnType.SET, KnnType.ORDERED, KnnType.EXACT_DISTANCES):
        m = measure_queries(
            knn_type.name,
            index,
            lambda n, t=knn_type: index.knn(n, K, knn_type=t),
            nodes,
        )
        pages[knn_type] = m.pages
        rows.append([f"type {knn_type.value} ({knn_type.name})", m.pages, m.seconds * 1e3])
    return rows, pages


@pytest.fixture(scope="module")
def worlds():
    suite = build_experiment_suite(2500, seed=41, labels=("0.01",))
    random_index = SignatureIndex.build(
        suite.network,
        suite.datasets["0.01"],
        backend="scipy",
        buffer_pool=LRUBufferPool(100_000),
        query_engine="scalar",
    )
    city = manhattan_network(50, 50, arterial_every=5, street_weight=4.0)
    city_objects = uniform_dataset(city, density=0.01, seed=42)
    city_index = SignatureIndex.build(
        city,
        city_objects,
        backend="scipy",
        buffer_pool=LRUBufferPool(100_000),
        query_engine="scalar",
    )
    return (suite.network, random_index), (city, city_index)


def test_knn_type_hierarchy(worlds, benchmark):
    (random_net, random_index), (city, city_index) = worlds
    tables = []
    for label, network, index in (
        ("random planar", random_net, random_index),
        ("manhattan grid", city, city_index),
    ):
        nodes = make_query_nodes(network, NUM_QUERIES, seed=9)
        rows, pages = _measure(index, nodes)
        tables.append(
            format_table(
                ["result type", "pages/query", "ms/query"],
                rows,
                title=f"§4.2 kNN result types, {label} (k={K})",
            )
        )
        # Type 3 is the floor of the hierarchy on both topologies.
        assert pages[KnnType.SET] <= pages[KnnType.ORDERED] + 1e-9
        assert pages[KnnType.SET] <= pages[KnnType.EXACT_DISTANCES] + 1e-9
    write_result("knn_types", "\n\n".join(tables))

    nodes = make_query_nodes(random_net, 10, seed=10)
    benchmark.pedantic(
        lambda: [
            random_index.knn(n, K, knn_type=KnnType.EXACT_DISTANCES)
            for n in nodes
        ],
        rounds=1,
        iterations=1,
    )
