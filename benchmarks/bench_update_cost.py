"""§5.4 ablation — update locality.

The paper claims (and relies on, but does not plot) that "a change on the
nodes or edges only causes a limited number of signatures to be updated",
because (1) exponential categories absorb small distance changes for
distant objects and (2) backtracking links are next-hop-local.  This bench
quantifies that claim: a stream of random edge re-weightings and
insertions is applied incrementally, and the touched fraction of the
signature table is reported — alongside the wall-clock comparison of an
incremental update versus a full rebuild.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import write_result
from repro.core import SignatureIndex
from repro.workloads import build_experiment_suite, format_table

NUM_NODES = 2000
NUM_UPDATES = 30


@pytest.fixture(scope="module")
def world():
    suite = build_experiment_suite(NUM_NODES, seed=54, labels=("0.01",))
    network = suite.network
    dataset = suite.datasets["0.01"]
    index = SignatureIndex.build(
        network, dataset, backend="scipy", keep_trees=True
    )
    return network, dataset, index


def test_update_locality(world, benchmark):
    network, dataset, index = world
    rng = np.random.default_rng(11)
    total_components = network.num_nodes * len(dataset)

    reports = []
    start = time.perf_counter()
    for _ in range(NUM_UPDATES):
        if rng.random() < 0.5:
            edges = list(network.edges())
            edge = edges[int(rng.integers(len(edges)))]
            report = index.apply_updates([(
                "set_weight", edge.u, edge.v, float(rng.integers(1, 11))
            )]).report
            kind = "reweight"
        else:
            while True:
                u = int(rng.integers(network.num_nodes))
                v = int(rng.integers(network.num_nodes))
                if u != v and not network.has_edge(u, v):
                    break
            report = index.apply_updates(
                [("add", u, v, float(rng.integers(1, 11)))]
            ).report
            kind = "insert"
        reports.append((kind, report))
    incremental_seconds = (time.perf_counter() - start) / NUM_UPDATES

    with_changes = [r for _, r in reports if r.changed_components]
    mean_changed = (
        sum(r.changed_components for _, r in reports) / len(reports)
    )
    mean_objects = sum(len(r.affected_objects) for _, r in reports) / len(reports)

    start = time.perf_counter()
    SignatureIndex.build(network, dataset, backend="scipy", keep_trees=True)
    rebuild_seconds = time.perf_counter() - start

    table = format_table(
        ["metric", "value"],
        [
            ["updates applied", NUM_UPDATES],
            ["mean components changed", mean_changed],
            ["mean changed fraction", mean_changed / total_components],
            ["mean objects affected", mean_objects],
            ["updates with any change", len(with_changes)],
            ["incremental s/update", incremental_seconds],
            ["full rebuild s", rebuild_seconds],
        ],
        title=f"§5.4 — update locality (N={NUM_NODES}, D={len(dataset)})",
    )
    write_result("update_locality", table)

    # The locality claim: an average update touches a small fraction of
    # the signature table.
    assert mean_changed / total_components < 0.10

    # Correctness after the whole stream.
    index.refresh_storage()
    index.verify(sample_nodes=10, seed=3)

    edges = list(network.edges())
    edge = edges[0]
    benchmark.pedantic(
        lambda: index.apply_updates(
            [("set_weight", edge.u, edge.v, edge.weight)]
        ),
        rounds=1,
        iterations=1,
    )


def test_update_scaling(benchmark):
    """Incremental maintenance's advantage over rebuild grows with N.

    The §5.4 machinery recomputes only the affected subtrees; a rebuild
    pays the full D-sweeps at every change.  Sweeping network size shows
    the speedup ratio improving — the claim that makes incremental
    updates worthwhile in the first place.
    """
    import numpy as np

    rows = []
    ratios = []
    for num_nodes in (800, 1600, 3200):
        suite = build_experiment_suite(num_nodes, seed=17, labels=("0.01",))
        network = suite.network
        dataset = suite.datasets["0.01"]
        index = SignatureIndex.build(
            network, dataset, backend="scipy", keep_trees=True
        )
        rng = np.random.default_rng(5)
        edges = list(network.edges())
        start = time.perf_counter()
        updates = 12
        for _ in range(updates):
            edge = edges[int(rng.integers(len(edges)))]
            index.apply_updates(
                [("set_weight", edge.u, edge.v, float(rng.integers(1, 11)))]
            )
        incremental = (time.perf_counter() - start) / updates
        start = time.perf_counter()
        SignatureIndex.build(network, dataset, backend="scipy", keep_trees=True)
        rebuild = time.perf_counter() - start
        ratio = rebuild / max(incremental, 1e-9)
        ratios.append(ratio)
        rows.append([num_nodes, len(dataset), incremental, rebuild, ratio])
    table = format_table(
        ["N", "D", "incremental s/update", "rebuild s", "speedup"],
        rows,
        title="§5.4 — incremental update speedup vs network size",
    )
    write_result("update_scaling", table)
    # The speedup at the largest size beats the smallest.
    assert ratios[-1] > ratios[0]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
