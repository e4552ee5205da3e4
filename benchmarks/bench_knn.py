"""kNN head-to-head: lower-bound-pruned refinement vs the legacy path.

Not a paper figure — the regression harness for the kNN refinement core
(:mod:`repro.core.knn_refine`).  One kNN workload runs twice per engine
configuration over the same network, dataset, partition, and signature
tables: once with ``knn_refine="pruned"`` (the default: vectorized §3.2
observer-embedding bounds, best-k heap pruning, shared backtracking
frontier) and once with ``knn_refine="legacy"`` (the original
bucket-and-sort path).  The bench asserts the answers are *bit-identical*
before reporting a single number, then reports the pages/query reduction
and the qps change for two configurations:

* **scalar** — per-query :func:`repro.core.queries.knn_query`;
* **vectorized** — one :meth:`knn_batch` call on the default columnar
  engine (the shared frontier also amortizes across queries here).

Writes machine-readable ``BENCH_knn.json`` at the repo root.  The quick
mode doubles as the CI smoke: pruned-path pages/query must stay under
the checked-in ``QUICK_PAGE_BUDGET`` so a pruning regression fails CI.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

#: ``--quick`` (the CI smoke mode) shrinks every scale knob.  Must be set
#: before ``benchmarks.conftest`` is imported (it reads the environment
#: at import time).
QUICK = "--quick" in sys.argv
if QUICK:
    os.environ.setdefault("REPRO_BENCH_NODES", "800")
    os.environ.setdefault("REPRO_BENCH_QUERY_NODES", "1200")
    os.environ.setdefault("REPRO_BENCH_QUERIES", "25")

_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

import pytest  # noqa: E402

from benchmarks.conftest import (  # noqa: E402
    NUM_QUERIES,
    QUERY_NODES,
    RESULTS_DIR,
    write_result,
)
from repro.core import SignatureIndex  # noqa: E402
from repro.workloads import (  # noqa: E402
    format_table,
    make_query_nodes,
    measure_batch_queries,
    measure_queries,
)

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_knn.json"

DENSITY_LABEL = "0.01"
KNN_K = 5
#: k values the bit-identity check sweeps (beyond the measured KNN_K):
#: k=1 exercises the single-winner tie-break, the largest exceeds the
#: quick-mode object count so the k >= D degenerate path is covered too.
IDENTITY_KS = (1, 5, 25)

#: The acceptance bar at bench scale (N=6000): the pruned path must read
#: ≥10× fewer pages per kNN query than legacy on the monolith engines.
#: The quick smoke runs a far smaller problem (≈12 objects, where the
#: boundary bucket is a large fraction of the dataset and bounds are
#: weak), so its bar is lower.
MIN_PAGE_REDUCTION = 5.0 if QUICK else 10.0

#: CI regression budget: quick-mode pruned-path pages/query per monolith
#: configuration.  Measured ≈95 (scalar) / ≈30 (batch engines) on the
#: 1200-node / 25-query smoke; the budget leaves ~50% headroom for
#: noise, not for regressions (legacy reads ≈1650 pages/query on the
#: same workload).
QUICK_PAGE_BUDGET = 140.0


@contextmanager
def _mode(index, mode: str):
    """Temporarily flip the ``knn_refine`` knob on ``index``."""
    previous = index.knn_refine
    index.knn_refine = mode
    try:
        yield
    finally:
        index.knn_refine = previous


@pytest.fixture(scope="module")
def knn_setup(query_suite):
    """Two configurations answering from identical data.

    The default (columnar-engine) index is built once and reported as
    ``vectorized``, after the batch algorithms it runs; the scalar index
    wraps the *same* tables.
    """
    network = query_suite.network
    dataset = query_suite.datasets[DENSITY_LABEL]
    vec = SignatureIndex.build(network, dataset, backend="scipy")
    scalar = SignatureIndex(
        network,
        dataset,
        vec.partition,
        vec.table,
        vec.object_table,
        stored_kind=vec.stored_kind,
        query_engine="scalar",
    )
    return scalar, vec


def _assert_identical(index, nodes, *, batch: bool = False) -> None:
    """Pruned and legacy answers must match bit-for-bit (ties included)."""
    for k in IDENTITY_KS:
        with _mode(index, "legacy"):
            legacy = [index.knn(node, k) for node in nodes]
        with _mode(index, "pruned"):
            pruned = [index.knn(node, k) for node in nodes]
        assert pruned == legacy, f"k={k}: pruned != legacy"
        if batch:
            with _mode(index, "legacy"):
                legacy_b = index.knn_batch(nodes, k)
            with _mode(index, "pruned"):
                pruned_b = index.knn_batch(nodes, k)
            assert pruned_b == legacy_b, f"k={k}: batch pruned != legacy"


def _measure_monolith(config: str, index, nodes, *, batch: bool) -> dict:
    """Legacy and pruned measurements for one monolith configuration."""
    out = {}
    for mode in ("legacy", "pruned"):
        with _mode(index, mode):
            # One un-timed pass so the timed one measures steady state.
            if batch:
                index.knn_batch(nodes, KNN_K)
                out[mode] = measure_batch_queries(
                    f"knn/{config}/{mode}",
                    index,
                    lambda ns: index.knn_batch(ns, KNN_K),
                    nodes,
                )
            else:
                for node in nodes:
                    index.knn(node, KNN_K)
                out[mode] = measure_queries(
                    f"knn/{config}/{mode}",
                    index,
                    lambda n: index.knn(n, KNN_K),
                    nodes,
                )
    return out


def _pruning_counters(index) -> dict:
    """Cumulative refinement counters from the index's registry."""
    metrics = index.metrics
    if not metrics.enabled:
        return {}
    return {
        "candidates_pruned": metrics.counter("knn_refine.pruned").value,
        "candidates_refined": metrics.counter("knn_refine.refined").value,
        "frontier_reuse_hits": metrics.counter(
            "knn_refine.frontier_hits"
        ).value,
    }


def _config_entry(pair: dict) -> dict:
    legacy, pruned = pair["legacy"], pair["pruned"]
    return {
        "legacy_pages": legacy.pages,
        "pruned_pages": pruned.pages,
        "page_reduction": (
            legacy.pages / pruned.pages if pruned.pages else float("inf")
        ),
        "legacy_qps": legacy.qps,
        "pruned_qps": pruned.qps,
        "speedup": pruned.qps / legacy.qps if legacy.qps else float("inf"),
    }


def test_knn_head_to_head(knn_setup, query_suite):
    scalar, vec = knn_setup
    nodes = make_query_nodes(query_suite.network, NUM_QUERIES, seed=406)
    identity_nodes = nodes[: min(len(nodes), 40)]

    # -- bit-identity first: a fast wrong answer is not a result -------
    _assert_identical(scalar, identity_nodes)
    _assert_identical(vec, identity_nodes, batch=True)

    # -- head-to-head measurements -------------------------------------
    pairs = {
        "scalar": _measure_monolith("scalar", scalar, nodes, batch=False),
        "vectorized": _measure_monolith("vectorized", vec, nodes, batch=True),
    }

    payload = {
        "config": {
            "num_nodes": QUERY_NODES,
            "density": float(DENSITY_LABEL),
            "num_objects": len(scalar.dataset),
            "num_queries": NUM_QUERIES,
            "knn_k": KNN_K,
            "identity_ks": list(IDENTITY_KS),
            "quick": QUICK,
        },
        "configs": {
            name: _config_entry(pair) for name, pair in pairs.items()
        },
        "pruning_counters": _pruning_counters(scalar),
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            name,
            entry["legacy_pages"],
            entry["pruned_pages"],
            entry["page_reduction"],
            entry["legacy_qps"],
            entry["pruned_qps"],
            entry["speedup"],
        ]
        for name, entry in payload["configs"].items()
    ]
    RESULTS_DIR.mkdir(exist_ok=True)
    write_result(
        "knn",
        format_table(
            [
                "config",
                "legacy pages",
                "pruned pages",
                "reduction",
                "legacy q/s",
                "pruned q/s",
                "speedup",
            ],
            rows,
            title=(
                f"kNN refinement — pruned vs legacy "
                f"(N={QUERY_NODES}, p={DENSITY_LABEL}, k={KNN_K}, "
                f"{NUM_QUERIES} queries)"
            ),
        ),
    )
    print(f"[written to {JSON_PATH}]")

    # -- acceptance ----------------------------------------------------
    for name in ("scalar", "vectorized"):
        entry = payload["configs"][name]
        assert entry["page_reduction"] >= MIN_PAGE_REDUCTION, (name, entry)
        if QUICK:
            assert entry["pruned_pages"] <= QUICK_PAGE_BUDGET, (name, entry)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-x", "-q", "-p", "no:cacheprovider"]))
