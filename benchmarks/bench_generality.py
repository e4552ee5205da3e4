"""The §1 generality claim — one index, every query class.

Not a numbered figure, but the paper's central pitch: a "general-purpose
index ... which may be considered a counterpart of R-tree in SNDB",
contrasted with solution-based indexes that "do not support distance
computation or query types other than what they are built for".  This
bench drives a mixed workload — exact distances, range, kNN, aggregation —
through one signature index and tabulates per-class cost; the class
coverage of each competitor is printed alongside (the full index answers
distance/range/kNN from its records; VN³ answers kNN and range; neither
answers the rest without new precomputation).
"""

from __future__ import annotations

import time
from collections import defaultdict

import pytest

from benchmarks.conftest import write_result
from repro.core import SignatureIndex
from repro.workloads import build_experiment_suite, format_table
from repro.workloads.queries import QUERY_KINDS, execute_query, make_mixed_workload

NUM_NODES = 2500
NUM_QUERIES = 200


@pytest.fixture(scope="module")
def world():
    suite = build_experiment_suite(NUM_NODES, seed=99, labels=("0.01",))
    network = suite.network
    dataset = suite.datasets["0.01"]
    index = SignatureIndex.build(
        network, dataset, backend="scipy", query_engine="scalar"
    )
    specs = make_mixed_workload(
        network,
        NUM_QUERIES,
        seed=7,
        num_objects=len(dataset),
        radii=(10.0, 40.0, 120.0),
        ks=(1, 5, 10),
    )
    return index, specs


def test_generality_mixed_workload(world, benchmark):
    index, specs = world
    pages = defaultdict(float)
    seconds = defaultdict(float)
    counts = defaultdict(int)
    for spec in specs:
        index.reset_counters()
        start = time.perf_counter()
        execute_query(index, spec)
        seconds[spec.kind] += time.perf_counter() - start
        pages[spec.kind] += index.counter.logical_reads
        counts[spec.kind] += 1

    coverage = {
        "distance": ("yes", "yes", "no"),
        "range": ("yes", "yes", "yes (§6 addition)"),
        "knn": ("yes", "yes", "yes"),
        "aggregate": ("yes", "no", "no"),
    }
    rows = []
    for kind in QUERY_KINDS:
        if counts[kind] == 0:
            continue
        sig, full, nvd = coverage[kind]
        rows.append(
            [
                kind,
                counts[kind],
                pages[kind] / counts[kind],
                seconds[kind] / counts[kind] * 1e3,
                full,
                nvd,
            ]
        )
    table = format_table(
        ["query class", "queries", "sig pages", "sig ms", "full index?", "NVD?"],
        rows,
        title=(
            f"§1 generality — mixed workload on one signature index "
            f"(N={NUM_NODES}, {NUM_QUERIES} queries)"
        ),
    )
    write_result("generality_mixed", table)

    # Every class answered; workload covered completely.
    assert sum(counts.values()) == NUM_QUERIES
    assert set(counts) == set(QUERY_KINDS)

    benchmark.pedantic(
        lambda: [execute_query(index, spec) for spec in specs[:20]],
        rounds=1,
        iterations=1,
    )
