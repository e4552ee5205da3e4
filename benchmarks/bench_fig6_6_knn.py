"""Fig 6.6 — kNN search: page accesses (a) and clock time (b).

Paper setup (§6.2): type-3 kNN workloads with k ∈ {1, 5, 10, 20, 50} on
the p=0.01 dataset; compare full indexing, NVD (VN³), and the signature
index.

Expected shape:

* full index flat in k (one record read regardless of k), best except
  k=1;
* VN³ best at k=1 (pure point location) but degrading sharply with k
  (the paper measures ×50 pages / ×170 time from k=1 to 50);
* signature in between, growing gently (the paper measures ≈ ×8 over the
  same span).

The signature index runs on the scalar engine: Algorithm 6 with the
Algorithm 2/4 boundary sort, the algorithm whose pages the paper plots.
The columnar engine's pruned kNN is measured by ``bench_throughput.py``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import NUM_QUERIES, QUERY_NODES, write_result
from repro.baselines import FullIndex, VN3Index
from repro.core import KnnType, SignatureIndex
from repro.storage.buffer import LRUBufferPool
from repro.workloads import format_table, make_query_nodes, measure_queries

K_VALUES = (1, 5, 10, 20, 50)


@pytest.fixture(scope="module")
def world(query_suite):
    """Indexes for the kNN sweep.

    Per §5.1 the partition's spreading bound ``SP`` is the workload's
    largest spreading — for type-3 kNN, the distance of the (k+1)-th
    nearest neighbor; here the 90th percentile of per-node k=50-th NN
    distances, read off the full index's matrix.
    """
    import numpy as np

    from repro.core import optimal_partition

    network = query_suite.network
    dataset = query_suite.datasets["0.01"]
    assert len(dataset) >= max(K_VALUES), "query network too small for k=50"
    full = FullIndex.build(
        network, dataset, backend="scipy", buffer_pool=LRUBufferPool(100_000)
    )
    kth = np.sort(full.distances, axis=1)[:, max(K_VALUES) - 1]
    spreading = float(np.percentile(kth[np.isfinite(kth)], 90))
    partition = optimal_partition(spreading, max_distance=spreading)
    return {
        "signature": SignatureIndex.build(
            network, dataset, partition, backend="scipy",
            buffer_pool=LRUBufferPool(100_000), query_engine="scalar",
        ),
        "full": full,
        "nvd": VN3Index.build(
            network, dataset, buffer_pool=LRUBufferPool(100_000)
        ),
    }


def test_fig6_6_knn_search(world, query_suite, benchmark):
    nodes = make_query_nodes(query_suite.network, NUM_QUERIES, seed=66)
    rows = []
    measurements = {}
    for k in K_VALUES:
        cells = [k]
        runners = {
            "full": lambda n, k=k: world["full"].knn(n, k),
            "nvd": lambda n, k=k: world["nvd"].knn(n, k),
            "signature": lambda n, k=k: world["signature"].knn(
                n, k, knn_type=KnnType.SET
            ),
        }
        for name in ("full", "nvd", "signature"):
            m = measure_queries(name, world[name], runners[name], nodes)
            measurements[(k, name)] = m
            cells.extend([m.pages, m.seconds * 1e3])
        rows.append(cells)
    table = format_table(
        [
            "k",
            "Full pages",
            "Full ms",
            "NVD pages",
            "NVD ms",
            "Sig pages",
            "Sig ms",
        ],
        rows,
        title=(
            f"Fig 6.6 — type-3 kNN, dataset 0.01 "
            f"(N={QUERY_NODES}, {NUM_QUERIES} queries)"
        ),
    )
    write_result("fig6_6_knn", table)

    # Full index flat in k.
    assert measurements[(1, "full")].pages == pytest.approx(
        measurements[(50, "full")].pages
    )
    # VN³'s k=1 is a pure point location: a constant handful of pages,
    # and cheaper than the signature index.  (The paper also sees it beat
    # the full index at k=1; at bench scale the full record is a single
    # page, which nothing can undercut — see the Fig 6.5 note.)
    assert measurements[(1, "nvd")].pages <= 4.0
    assert (
        measurements[(1, "nvd")].pages
        <= measurements[(1, "signature")].pages
    )
    # VN³ degrades with k: page accesses multiply from k=1 (the paper
    # measures x50 at its scale; at bench scale the cell-table file is
    # small enough that the sweep saturates it, so we assert a x5 floor)
    # and its clock time — where the paper's "degrades sharply" is most
    # visible — grows far faster than the signature index's.
    nvd_page_growth = measurements[(50, "nvd")].pages / max(
        measurements[(1, "nvd")].pages, 1e-9
    )
    assert nvd_page_growth > 5.0
    assert measurements[(50, "nvd")].pages > measurements[(5, "nvd")].pages
    nvd_time_growth = measurements[(50, "nvd")].seconds / max(
        measurements[(1, "nvd")].seconds, 1e-9
    )
    sig_time_growth = measurements[(50, "signature")].seconds / max(
        measurements[(1, "signature")].seconds, 1e-9
    )
    assert nvd_time_growth > sig_time_growth
    # The signature index handles large k gracefully: the paper measures
    # ~x8 page growth from k=1 to k=50; allow a factor-2 band around it.
    sig_page_growth = measurements[(50, "signature")].pages / max(
        measurements[(1, "signature")].pages, 1.0
    )
    assert sig_page_growth < 16.0

    index = world["signature"]
    benchmark.pedantic(
        lambda: [index.knn(n, 5) for n in nodes[:10]],
        rounds=1,
        iterations=1,
    )
