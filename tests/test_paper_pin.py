"""Pin the paper reproduction: the scalar engine's page counts are literal.

The §6 figures report page accesses of the paper's algorithms, and the
scalar engine is where those algorithms live (Algorithm 5 for range,
Algorithm 6 with the Algorithm 2/4 boundary sort for kNN).  Any change
that moves these totals changes what the figure benchmarks measure, so
it must show up here as a failing literal rather than as a silently
drifted figure.  The totals were recorded on the configuration of
``tests/test_knn_refine.py`` (240-node planar network, seed 13; density
0.05, seed 9; scipy construction sweep).
"""

from __future__ import annotations

import random

import pytest

from repro.core import KnnType, SignatureIndex
from repro.core.persistence import load_index, save_index
from repro.network import random_planar_network, uniform_dataset

#: Total logical page reads over the 20 query nodes, per radius.
RANGE_PAGES = {25.0: 814, 50.0: 548, 100.0: 608}

#: Total logical page reads over the 20 query nodes, per (type, k).
KNN_PAGES = {
    (KnnType.EXACT_DISTANCES, 1): 372,
    (KnnType.EXACT_DISTANCES, 5): 13594,
    (KnnType.EXACT_DISTANCES, 10): 6530,
    (KnnType.ORDERED, 1): 256,
    (KnnType.ORDERED, 5): 12780,
    (KnnType.ORDERED, 10): 15060,
    (KnnType.SET, 1): 256,
    (KnnType.SET, 5): 12444,
    (KnnType.SET, 10): 3046,
}


@pytest.fixture(scope="module")
def paper_index():
    network = random_planar_network(240, seed=13)
    objects = uniform_dataset(network, density=0.05, seed=9)
    return SignatureIndex.build(
        network, objects, backend="scipy", query_engine="scalar"
    )


@pytest.fixture(scope="module")
def query_nodes(paper_index):
    return random.Random(0).sample(range(paper_index.network.num_nodes), 20)


def total_pages(index, nodes, query):
    index.reset_counters()
    for node in nodes:
        query(node)
    return index.counter.logical_reads


@pytest.mark.parametrize("radius", sorted(RANGE_PAGES))
def test_range_pages_are_pinned(paper_index, query_nodes, radius):
    pages = total_pages(
        paper_index, query_nodes, lambda n: paper_index.range_query(n, radius)
    )
    assert pages == RANGE_PAGES[radius]


@pytest.mark.parametrize(
    "knn_type,k", sorted(KNN_PAGES, key=lambda key: (key[0].value, key[1]))
)
def test_knn_pages_are_pinned(paper_index, query_nodes, knn_type, k):
    pages = total_pages(
        paper_index,
        query_nodes,
        lambda n: paper_index.knn(n, k, knn_type=knn_type),
    )
    assert pages == KNN_PAGES[(knn_type, k)]


def test_snapshot_naming_the_old_knn_knob_still_loads(
    paper_index, query_nodes, tmp_path
):
    """A v2 snapshot whose ``meta.txt`` still carries a ``knn_refine``
    line (written before the engine chose the kNN algorithm) loads onto
    the columnar engine and answers like the paper engine."""
    save_index(paper_index, tmp_path)
    meta_path = tmp_path / "meta.txt"
    lines = []
    for line in meta_path.read_text().splitlines():
        if line.startswith("query_engine"):
            lines += ["query_engine columnar", "knn_refine legacy"]
        else:
            lines.append(line)
    meta_path.write_text("\n".join(lines) + "\n")
    loaded = load_index(tmp_path)
    assert loaded.query_engine == "columnar"
    for node in query_nodes:
        assert loaded.range_query(node, 50.0) == paper_index.range_query(
            node, 50.0
        )
        for knn_type in KnnType:
            assert loaded.knn(node, 5, knn_type=knn_type) == paper_index.knn(
                node, 5, knn_type=knn_type
            )
