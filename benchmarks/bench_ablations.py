"""Ablations over the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the contribution of individual
design decisions the paper adopts (or proposes as future work):

* **CCAM clustering** (§6.1): how much does connectivity-clustered page
  placement save versus naive id-order placement?
* **§5.3 compression**: what does reading through compression flags cost
  in CPU, against what it saves in storage?
* **Buffer pool size**: how quickly do a query's physical reads collapse
  as the pool grows (the I/O model's sensitivity)?
* **§7 cross-node compression**: storage ratio versus reference-chain
  budget, with the read-cost (chain length) trade-off.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import write_result
from repro.core import SignatureIndex
from repro.core.cross_node import plan_cross_node_compression
from repro.storage.buffer import LRUBufferPool
from repro.workloads import (
    build_experiment_suite,
    format_table,
    make_query_nodes,
    measure_queries,
)

NUM_NODES = 2500
NUM_QUERIES = 60


@pytest.fixture(scope="module")
def world():
    suite = build_experiment_suite(NUM_NODES, seed=77, labels=("0.01",))
    return suite.network, suite.datasets["0.01"]


def test_ablation_ccam_vs_identity(world, benchmark):
    """CCAM placement must cut the distinct pages a kNN query touches."""
    network, dataset = world
    nodes = make_query_nodes(network, NUM_QUERIES, seed=1)
    rows = []
    pages = {}
    for strategy in ("ccam", "hilbert", "bfs", "identity"):
        index = SignatureIndex.build(
            network,
            dataset,
            backend="scipy",
            storage_strategy=strategy,
            buffer_pool=LRUBufferPool(100_000),
            query_engine="scalar",
        )
        m = measure_queries(
            strategy, index, lambda n, i=index: i.knn(n, 5), nodes
        )
        pages[strategy] = m.pages
        rows.append([strategy, m.pages, m.seconds * 1e3])
    table = format_table(
        ["placement", "pages/query", "ms/query"],
        rows,
        title=f"Ablation — storage placement, 5NN (N={NUM_NODES})",
    )
    write_result("ablation_placement", table)
    assert pages["ccam"] <= pages["identity"]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_storage_schema(world, benchmark):
    """§3.1's two storage schemas: separate files vs merged records.

    "Since the signature is usually accessed together with the adjacency
    list, it is preferable to merge the signature with the adjacency
    list" — a backtracking hop then touches one record instead of two.
    """
    network, dataset = world
    nodes = make_query_nodes(network, NUM_QUERIES, seed=4)
    rows = []
    pages = {}
    for schema in ("separate", "merged"):
        index = SignatureIndex.build(
            network,
            dataset,
            backend="scipy",
            storage_schema=schema,
            buffer_pool=LRUBufferPool(100_000),
            query_engine="scalar",
        )
        m = measure_queries(
            schema, index, lambda n, i=index: i.knn(n, 5), nodes
        )
        report = index.storage_report()
        pages[schema] = m.pages
        rows.append(
            [
                schema,
                m.pages,
                m.seconds * 1e3,
                report.signature_pages + report.adjacency_pages,
            ]
        )
    table = format_table(
        ["schema", "pages/query", "ms/query", "index pages"],
        rows,
        title=f"Ablation — §3.1 storage schema, 5NN (N={NUM_NODES})",
    )
    write_result("ablation_schema", table)
    # Merged records save the second touch per backtracking hop.
    assert pages["merged"] <= pages["separate"] * 1.1

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_compression_tradeoff(world, benchmark):
    """§5.3: storage down, decompression CPU visible but small."""
    network, dataset = world
    nodes = make_query_nodes(network, NUM_QUERIES, seed=2)
    compressed = SignatureIndex.build(
        network, dataset, "paper", backend="scipy", compress=True,
        query_engine="scalar",
    )
    plain = SignatureIndex.build(
        network, dataset, "paper", backend="scipy", compress=False,
        query_engine="scalar",
    )

    def run(index):
        index.reset_counters()
        start = time.perf_counter()
        for node in nodes:
            index.knn(node, 5)
        return time.perf_counter() - start

    time_compressed = run(compressed)
    time_plain = run(plain)
    report_c = compressed.storage_report()
    report_p = plain.storage_report()
    table = format_table(
        ["variant", "stored bits", "decompressions", "total s"],
        [
            [
                "compressed",
                report_c.compressed_paper_bits,
                compressed.decompressions,
                time_compressed,
            ],
            ["encoded only", report_p.encoded_bits, plain.decompressions, time_plain],
        ],
        title=f"Ablation — §5.3 compression (N={NUM_NODES})",
    )
    write_result("ablation_compression", table)
    assert report_c.compressed_paper_bits < report_p.encoded_bits
    assert compressed.decompressions > 0
    assert plain.decompressions == 0
    # Identical answers either way.
    for node in nodes[:10]:
        assert compressed.knn(node, 5) == plain.knn(node, 5)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_buffer_pool(world, benchmark):
    """Physical reads fall monotonically (within noise) as the pool grows."""
    network, dataset = world
    nodes = make_query_nodes(network, NUM_QUERIES, seed=3)
    rows = []
    physical = {}
    for capacity in (0, 8, 64, 100_000):
        index = SignatureIndex.build(
            network,
            dataset,
            backend="scipy",
            buffer_pool=LRUBufferPool(capacity),
            query_engine="scalar",
        )
        m = measure_queries(
            f"pool={capacity}",
            index,
            lambda n, i=index: i.knn(n, 5),
            nodes,
            cold_buffer_per_query=True,
        )
        physical[capacity] = m.pages
        rows.append([capacity, m.pages])
    table = format_table(
        ["pool pages", "physical reads/query"],
        rows,
        title=f"Ablation — buffer pool capacity, 5NN (N={NUM_NODES})",
    )
    write_result("ablation_buffer", table)
    assert physical[100_000] <= physical[0]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_cross_node_compression(world, benchmark):
    """§7 future work: chain budget vs storage ratio vs read cost."""
    network, dataset = world
    index = SignatureIndex.build(
        network, dataset, "paper", backend="scipy", query_engine="scalar"
    )
    rows = []
    ratios = {}
    for max_chain in (0, 1, 2, 4):
        plan = plan_cross_node_compression(
            network, index.table, max_chain=max_chain
        )
        ratios[max_chain] = plan.ratio
        rows.append(
            [
                max_chain,
                f"{plan.ratio:.3f}",
                f"{plan.flagged_ratio:.3f}",
                f"{plan.referenced_fraction:.2f}",
                f"{plan.mean_chain_length():.2f}",
            ]
        )
    table = format_table(
        ["max chain", "ratio (paper)", "ratio (flagged)", "referenced", "mean chain"],
        rows,
        title=f"Ablation — §7 cross-node compression (N={NUM_NODES})",
    )
    write_result("ablation_cross_node", table)
    # Chains buy storage (monotone non-increasing ratio) ...
    assert ratios[4] <= ratios[1] <= ratios[0] + 1e-9
    # ... and nearby-node similarity makes deltas pay at all.
    assert ratios[4] < 1.0

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
