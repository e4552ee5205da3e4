"""Fig 6.5 — range search: page accesses (a) and clock time (b).

Paper setup (§6.2): workloads of random range queries with radius R swept
over four orders of magnitude, on the p=0.01 and p=0.01(nu) datasets;
compare full indexing, NVD, and the signature index.

Expected shape:

* full index flat in R and best overall *except* at the smallest R, where
  the signature wins (its record is a fraction of the full record);
* NVD climbs sharply once R outgrows the query node's own NVP;
* signature grows sublinearly in R thanks to guided backtracking.

The paper's absolute radii (10..10000) target its 183 k-node network; here
the four sweep points are geometric steps from 10 up to ~the network
diameter, preserving "tiny / local / regional / global" semantics.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import NUM_QUERIES, QUERY_NODES, write_result
from repro.baselines import FullIndex, VN3Index
from repro.core import SignatureIndex
from repro.workloads import format_table, make_query_nodes, measure_queries


@pytest.fixture(scope="module")
def worlds(query_suite):
    """Indexes for the two Fig 6.5 datasets, plus the radius sweep.

    Every index gets a buffer pool so the measured page accesses are the
    *distinct* pages a query touches (see
    :func:`repro.workloads.measure_queries`).  The signature partition is
    sized to the workload per §5.1: its spreading bound ``SP`` is the
    largest radius in the sweep (the paper's T=10 partition likewise
    covers its largest R).
    """
    import numpy as np

    from repro.core import optimal_partition
    from repro.storage.buffer import LRUBufferPool

    network = query_suite.network
    out = {}
    full_indexes = {
        label: FullIndex.build(
            network,
            query_suite.datasets[label],
            backend="scipy",
            buffer_pool=LRUBufferPool(100_000),
        )
        for label in ("0.01", "0.01(nu)")
    }
    # Radii: four geometric steps from 10 to ~80% of the farthest
    # node-to-object distance (the paper's 10 → 10⁴ at its scale).
    distances = full_indexes["0.01"].distances
    max_distance = float(distances[np.isfinite(distances)].max())
    ratio = (0.8 * max_distance / 10.0) ** (1.0 / 3.0)
    radii = [round(10.0 * ratio**i, 1) for i in range(4)]
    partition = optimal_partition(radii[-1], max_distance=radii[-1])

    for label in ("0.01", "0.01(nu)"):
        dataset = query_suite.datasets[label]
        out[label] = {
            "signature": SignatureIndex.build(
                network,
                dataset,
                partition,
                backend="scipy",
                buffer_pool=LRUBufferPool(100_000),
                query_engine="scalar",
            ),
            "full": full_indexes[label],
            "nvd": VN3Index.build(
                network, dataset, buffer_pool=LRUBufferPool(100_000)
            ),
        }
    return out, radii


def _run_panel(worlds, label, nodes):
    indexes, radii = worlds
    rows = []
    measurements = {}
    for radius in radii:
        cells = [radius]
        for name in ("full", "nvd", "signature"):
            index = indexes[label][name]
            if name == "signature":
                run = lambda n, i=index, r=radius: i.range_query(n, r)
            else:
                run = lambda n, i=index, r=radius: i.range_query(n, r)
            m = measure_queries(name, index, run, nodes)
            measurements[(radius, name)] = m
            cells.extend([m.pages, m.seconds * 1e3])
        rows.append(cells)
    table = format_table(
        [
            "R",
            "Full pages",
            "Full ms",
            "NVD pages",
            "NVD ms",
            "Sig pages",
            "Sig ms",
        ],
        rows,
        title=(
            f"Fig 6.5 — range search, dataset {label} "
            f"(N={QUERY_NODES}, {NUM_QUERIES} queries)"
        ),
    )
    return table, measurements, radii


@pytest.mark.parametrize("label", ["0.01", "0.01(nu)"])
def test_fig6_5_range_search(worlds, query_suite, benchmark, label):
    nodes = make_query_nodes(query_suite.network, NUM_QUERIES, seed=65)
    table, measurements, radii = _run_panel(worlds, label, nodes)
    write_result(f"fig6_5_range_{label.replace('(', '_').replace(')', '')}", table)

    smallest, largest = radii[0], radii[-1]
    # Full index is flat in R.
    assert measurements[(smallest, "full")].pages == pytest.approx(
        measurements[(largest, "full")].pages
    )
    # Signature is competitive with full at the smallest radius.  The
    # paper sees a strict win at R=10 because its D=1832 makes a full
    # record span multiple 4K pages while a signature record does not; at
    # bench scale (D≈60) both fit one page, so the signature's few
    # boundary-refinement touches put it within a small constant instead.
    # The record-level size advantage itself is asserted in the test
    # suite (tests/test_index.py::TestStorageReport).
    assert (
        measurements[(smallest, "signature")].pages
        <= measurements[(smallest, "full")].pages + 4.0
    )
    # NVD cost climbs with R.
    assert (
        measurements[(largest, "nvd")].pages
        > measurements[(smallest, "nvd")].pages
    )
    # Signature cost grows sublinearly in R (the paper's observation):
    # the worst radius in the sweep costs far less than a linear scan of
    # the radius growth would imply.
    worst_sig = max(measurements[(r, "signature")].pages for r in radii)
    base_sig = max(measurements[(smallest, "signature")].pages, 1.0)
    assert worst_sig / base_sig < largest / smallest

    index = worlds[0][label]["signature"]
    benchmark.pedantic(
        lambda: [index.range_query(n, radii[1]) for n in nodes[:10]],
        rounds=1,
        iterations=1,
    )
