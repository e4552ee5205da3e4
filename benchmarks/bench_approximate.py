"""Approximate kNN — the signature's low-I/O approximate mode, quantified.

§3 promises that "with additional backtracking links, the signature can
support both exact and approximate distance computation at low cost"; the
approximate kNN query cashes that in: one signature record of I/O,
boundary ties resolved by observer voting (§3.2.2) instead of exact
backtracking.  This bench sweeps k and reports recall against the exact
answer alongside the page saving — the precision/cost dial a user of the
index actually gets.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.core import SignatureIndex
from repro.network.dijkstra import shortest_path_tree
from repro.storage.buffer import LRUBufferPool
from repro.workloads import (
    build_experiment_suite,
    format_table,
    make_query_nodes,
    measure_queries,
)

NUM_NODES = 2500
NUM_QUERIES = 60
K_VALUES = (1, 5, 10)


@pytest.fixture(scope="module")
def world():
    suite = build_experiment_suite(NUM_NODES, seed=31, labels=("0.01",))
    network = suite.network
    dataset = suite.datasets["0.01"]
    index = SignatureIndex.build(
        network,
        dataset,
        backend="scipy",
        buffer_pool=LRUBufferPool(100_000),
        query_engine="scalar",
    )
    import numpy as np

    truth = np.array(
        [shortest_path_tree(network, obj).distance for obj in dataset]
    )
    return network, dataset, index, truth


def test_approximate_knn_quality(world, benchmark):
    network, dataset, index, truth = world
    nodes = make_query_nodes(network, NUM_QUERIES, seed=13)
    rows = []
    recalls = {}
    for k in K_VALUES:
        exact_m = measure_queries(
            "exact", index, lambda n, k=k: index.knn(n, k), nodes
        )
        approx_m = measure_queries(
            "approx", index, lambda n, k=k: index.knn_approximate(n, k), nodes
        )
        hits = 0
        for node in nodes:
            approx = {
                dataset.rank(obj) for obj in index.knn_approximate(node, k)
            }
            order = sorted(
                range(len(dataset)), key=lambda r: (truth[r, node], r)
            )
            hits += len(approx & set(order[:k]))
        recall = hits / (len(nodes) * k)
        recalls[k] = recall
        rows.append(
            [
                k,
                exact_m.pages,
                exact_m.seconds * 1e3,
                approx_m.pages,
                approx_m.seconds * 1e3,
                f"{recall:.2f}",
            ]
        )
    table = format_table(
        ["k", "exact pages", "exact ms", "approx pages", "approx ms", "recall"],
        rows,
        title=(
            f"Approximate kNN — recall vs page saving "
            f"(N={NUM_NODES}, {NUM_QUERIES} queries)"
        ),
    )
    write_result("approximate_knn", table)

    # The approximate mode must be dramatically cheaper and usefully good.
    for k in K_VALUES:
        assert recalls[k] > 0.6
    assert all(float(row[3]) <= float(row[1]) for row in rows)

    benchmark.pedantic(
        lambda: [index.knn_approximate(n, 5) for n in nodes],
        rounds=1,
        iterations=1,
    )
