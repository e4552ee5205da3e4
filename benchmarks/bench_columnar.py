"""The columnar store's performance claims, measured.

* **cold start** — loading a persisted index: v1 replays the §5.2 bit
  stream component by component and runs one Dijkstra per object to
  rebuild the object distance table; v2 is ``np.memmap`` on raw arrays.
  The claim: ≥ 5× faster (in practice orders of magnitude — the work is
  O(1) in index size).
* **batch throughput** — the default columnar engine reads query blocks
  with one fancy index, no row decode and no cache; recorded (and gated
  by ``bench_history`` against same-host history), not asserted.

Served throughput is measured by ``bench_serve.py``.

Writes ``BENCH_columnar.json`` at the repo root and appends a one-line
summary to ``benchmarks/results/throughput.txt``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

#: ``--quick`` (the CI smoke mode) shrinks every scale knob.  Applied
#: before any benchmarks import, matching the other bench modules.
QUICK = "--quick" in sys.argv
if QUICK:
    os.environ.setdefault("REPRO_BENCH_COLUMNAR_NODES", "1200")
    os.environ.setdefault("REPRO_BENCH_COLUMNAR_SWEEP_S", "0.5")

_REPO_ROOT_PATH = Path(__file__).resolve().parent.parent
_REPO_ROOT = str(_REPO_ROOT_PATH)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

import pytest  # noqa: E402

from benchmarks.conftest import RESULTS_DIR  # noqa: E402
from repro.core import SignatureIndex, load_index, save_index  # noqa: E402
from repro.network.datasets import uniform_dataset  # noqa: E402
from repro.network.generators import random_planar_network  # noqa: E402

JSON_PATH = _REPO_ROOT_PATH / "BENCH_columnar.json"

NODES = int(os.environ.get("REPRO_BENCH_COLUMNAR_NODES", "6000"))
SWEEP_S = float(os.environ.get("REPRO_BENCH_COLUMNAR_SWEEP_S", "1.5"))
DENSITY = 0.01
SEED = 1959
BATCH = 256

MIN_COLD_START_SPEEDUP = 2.0 if QUICK else 5.0


def _build_index():
    network = random_planar_network(NODES, seed=SEED)
    dataset = uniform_dataset(network, density=DENSITY, seed=SEED)
    return SignatureIndex.build(network, dataset, backend="scipy")


# ----------------------------------------------------------------------
# cold start: deserialize vs mmap
# ----------------------------------------------------------------------
def _bench_cold_start(index, workdir: Path) -> dict:
    v1_dir, v2_dir = workdir / "v1", workdir / "v2"
    t0 = time.perf_counter()
    save_index(index, v1_dir, format=1)
    v1_save_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    save_index(index, v2_dir, format=2)
    v2_save_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    from_v1 = load_index(v1_dir)
    v1_load_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    from_v2 = load_index(v2_dir)
    v2_load_s = time.perf_counter() - t0

    # Loads must be equivalent, not merely fast.
    probe = list(range(0, index.network.num_nodes, 97))
    assert from_v1.range_query_batch(probe, 25.0) == (
        from_v2.range_query_batch(probe, 25.0)
    )
    return {
        "v1_save_s": round(v1_save_s, 4),
        "v2_save_s": round(v2_save_s, 4),
        "v1_load_s": round(v1_load_s, 4),
        "v2_load_s": round(v2_load_s, 4),
        "speedup": round(v1_load_s / max(v2_load_s, 1e-9), 1),
    }


# ----------------------------------------------------------------------
# batch throughput
# ----------------------------------------------------------------------
def _sweep_qps(index, nodes, radius: float) -> float:
    """Warm once, then count full-batch sweeps for ``SWEEP_S`` seconds."""
    index.range_query_batch(nodes, radius)
    deadline = time.perf_counter() + SWEEP_S
    queries = 0
    while time.perf_counter() < deadline:
        index.range_query_batch(nodes, radius)
        queries += len(nodes)
    elapsed = time.perf_counter() - deadline + SWEEP_S
    return queries / max(elapsed, 1e-9)


def _bench_batch_throughput(index) -> dict:
    rng_nodes = list(range(0, index.network.num_nodes, 3))[:BATCH]
    radius = 0.9 * index.partition.boundaries[0]
    columnar_qps = _sweep_qps(index, rng_nodes, radius)
    return {
        "batch": len(rng_nodes),
        "radius": round(radius, 3),
        "columnar_qps": round(columnar_qps, 1),
    }


def _summary_line(payload: dict) -> str:
    cold = payload["cold_start"]
    batch = payload["batch_throughput"]
    return (
        f"columnar: mmap load {cold['speedup']:.0f}x faster than v1 "
        f"({cold['v1_load_s']:.2f}s -> {cold['v2_load_s']*1000:.1f}ms); "
        f"batch {batch['columnar_qps']:.0f} q/s"
    )


def test_columnar_store():
    index = _build_index()
    with tempfile.TemporaryDirectory(prefix="bench-columnar-") as workdir:
        cold = _bench_cold_start(index, Path(workdir))
    batch = _bench_batch_throughput(index)

    payload = {
        "config": {
            "num_nodes": NODES,
            "density": DENSITY,
            "seed": SEED,
            "sweep_s": SWEEP_S,
            "quick": QUICK,
        },
        "cold_start": cold,
        "batch_throughput": batch,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    line = _summary_line(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    with (RESULTS_DIR / "throughput.txt").open("a") as handle:
        handle.write(line + "\n")
    print(f"\n{line}\n[appended to {RESULTS_DIR / 'throughput.txt'}]")
    print(f"[written to {JSON_PATH}]")

    assert cold["speedup"] >= MIN_COLD_START_SPEEDUP, cold


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-x", "-q", "-p", "no:cacheprovider"]))
