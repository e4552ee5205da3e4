"""§5.4 maintenance head-to-head: incremental repair vs rebuild-on-update.

The hierarchy backends historically answered every edge mutation with a
full rebuild; the changeset pipeline gave them genuinely incremental
maintenance (witness-replay repair for the contraction hierarchy,
affected-region redistillation for hub labels).  This bench measures
what that buys, on traffic-shaped single-edge reweights from
:class:`~repro.workloads.traffic.TrafficSimulator`:

* **Correctness before timing.**  For each hierarchy backend, a short
  update stream is applied incrementally and, after *every* step, the
  index's distances are asserted bit-identical to a fresh rebuild on
  the mutated network over a sampled (node, object) set.  Only then is
  anything timed.
* **incremental_updates_per_s vs rebuild_updates_per_s** — the same
  stream applied through ``apply_updates`` on a repair-recording index
  versus on an index whose zero damage threshold makes every update
  rebuild (``baseline_update_rebuilt`` must equal ``rebuilds_timed``);
  the ratio is the headline
  ``incremental_vs_rebuild`` speedup (gated ≥5x at full size,
  direction-only in ``--quick``), with the
  ``backend.<name>.update.{repaired,rebuilt}`` counters recorded to
  prove the incremental path actually ran.  The two sides' applies are
  interleaved, spread evenly over one timed phase, so host-speed drift
  during the run lands on both sides of the ratio alike.  Each row also
  carries the median and p90 single-write time and the mean
  ``damaged_nodes`` (and, for hub, ``relabeled_nodes``) per write.
* **Scaling** — the median single-edge hub repair at two network sizes
  5x apart (2000 and 10,000 nodes; 1000 and 5000 in ``--quick``) and
  their ratio: a repair whose cost follows the damage, not the node
  count, keeps it near 1.
* **Signature-family throughput** — the signature index under both
  query engines (scalar + columnar) driven through the same
  ``apply_updates`` entry point.
* **Live traffic** — an in-process server on default settings under a
  mixed 90/10 read/write closed loop: served write throughput, the
  final update epoch, and how many write batches the coordinator
  coalesced.

Writes machine-readable ``BENCH_updates.json`` at the repo root and a
summary table to ``benchmarks/results/updates.txt``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from pathlib import Path

QUICK = "--quick" in sys.argv
if QUICK:
    os.environ.setdefault("REPRO_BENCH_UPDATE_NODES", "2000")
    os.environ.setdefault("REPRO_BENCH_UPDATE_COUNT", "8")
    os.environ.setdefault("REPRO_BENCH_UPDATE_REBUILDS", "3")
    os.environ.setdefault("REPRO_BENCH_UPDATE_PAIRS", "250")
    os.environ.setdefault("REPRO_BENCH_UPDATE_SERVE_S", "1.5")

_REPO_ROOT_PATH = Path(__file__).resolve().parent.parent
_REPO_ROOT = str(_REPO_ROOT_PATH)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

import numpy as np  # noqa: E402

from benchmarks.conftest import write_result  # noqa: E402
from repro.backends import BACKENDS  # noqa: E402
from repro.core import SignatureIndex  # noqa: E402
from repro.network import (  # noqa: E402
    random_planar_network,
    uniform_dataset,
)
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.serve import (  # noqa: E402
    QueryServer,
    ServeConfig,
    closed_loop,
    mixed_workload,
)
from repro.serve.loadgen import fetch_edge_sample  # noqa: E402
from repro.workloads import TrafficSimulator  # noqa: E402

JSON_PATH = _REPO_ROOT_PATH / "BENCH_updates.json"

NUM_NODES = int(os.environ.get("REPRO_BENCH_UPDATE_NODES", "6000"))
NUM_UPDATES = int(os.environ.get("REPRO_BENCH_UPDATE_COUNT", "12"))
NUM_REBUILD_UPDATES = int(os.environ.get("REPRO_BENCH_UPDATE_REBUILDS", "4"))
NUM_PAIRS = int(os.environ.get("REPRO_BENCH_UPDATE_PAIRS", "500"))
SERVE_DURATION_S = float(os.environ.get("REPRO_BENCH_UPDATE_SERVE_S", "3.0"))
CORRECTNESS_STEPS = 2
DENSITY = 0.01
SEED = 1959
WRITE_RATIO = 0.1  # the mixed 90/10 read/write serving workload
SERVE_CLIENTS = 8 if QUICK else 16
#: Network sizes (5x apart) and timed writes of the hub scaling block.
SCALING_NODES = (1000, 5000) if QUICK else (2000, 10000)
SCALING_WRITES = 20

#: The acceptance bar: hierarchy-backend incremental repair over
#: rebuild-on-update on single-edge reweights.  The full-size run
#: clears 5x comfortably; the quick smoke (2000 nodes, less rebuild
#: work to amortize) only checks the direction.
MIN_INCREMENTAL_SPEEDUP = 1.5 if QUICK else 5.0


def _sample_pairs(network, dataset, rng) -> list[tuple[int, int]]:
    nodes = rng.integers(0, network.num_nodes, size=NUM_PAIRS)
    objects = rng.choice(list(dataset), size=NUM_PAIRS)
    return list(zip((int(n) for n in nodes), (int(o) for o in objects)))


def bench_hierarchy(name: str, network, dataset) -> dict:
    """Correctness pass, then incremental-vs-rebuild timing, for one
    hierarchy backend."""
    build = BACKENDS[name]
    registry = MetricsRegistry()
    start = time.perf_counter()
    index = build(network.copy(), dataset, metrics=registry)
    build_s = time.perf_counter() - start
    rng = np.random.default_rng(SEED)
    pairs = _sample_pairs(network, dataset, rng)

    # -- bit-identical to a fresh rebuild, asserted BEFORE timing -------
    sim = TrafficSimulator(index.network, seed=SEED + 1)
    mismatches = 0
    for _ in range(CORRECTNESS_STEPS):
        index.apply_updates(sim.changeset(1))
        fresh = build(index.network.copy(), dataset)
        for node, obj in pairs:
            if index.distance(node, obj) != fresh.distance(node, obj):
                mismatches += 1
                print(f"MISMATCH {name} d({node},{obj}) after update")
    if mismatches:
        raise SystemExit(
            f"{name}: {mismatches} post-update distance mismatches vs "
            f"fresh rebuild"
        )
    print(
        f"{name}: {CORRECTNESS_STEPS} incremental updates bit-identical "
        f"to fresh rebuilds over {len(pairs)} pairs"
    )

    # -- timed incremental vs rebuild-on-update, interleaved -------------
    # The baseline is the same entry point on an index whose repair
    # damage limit is zero: a changed edge always damages at least its
    # two endpoints' own contractions, so every update falls back to
    # rebuild-from-network (and the rebuild's recording never lets a
    # later update repair).
    rebuild_registry = MetricsRegistry()
    baseline = build(network.copy(), dataset, metrics=rebuild_registry)
    baseline.repair_threshold = 0.0
    baseline_sim = TrafficSimulator(baseline.network, seed=SEED + 1)
    repaired_before = registry.counter(
        f"backend.{name}.update.repaired"
    ).value
    rebuilt_before = registry.counter(f"backend.{name}.update.rebuilt").value
    sides = {
        "incremental": (index, sim.stream(NUM_UPDATES, 1)),
        "rebuild": (baseline, baseline_sim.stream(NUM_REBUILD_UPDATES, 1)),
    }
    # Each apply sits at the midpoint of its own slot in [0, 1), so both
    # sides are spread evenly over the same timed phase.
    schedule = sorted(
        [((i + 0.5) / NUM_UPDATES, "incremental") for i in range(NUM_UPDATES)]
        + [
            ((i + 0.5) / NUM_REBUILD_UPDATES, "rebuild")
            for i in range(NUM_REBUILD_UPDATES)
        ]
    )
    elapsed = {"incremental": 0.0, "rebuild": 0.0}
    write_ms: list[float] = []
    damaged = relabeled = 0
    for _, side in schedule:
        target, stream = sides[side]
        changeset = next(stream)
        start = time.perf_counter()
        result = target.apply_updates(changeset)
        seconds = time.perf_counter() - start
        elapsed[side] += seconds
        if side == "incremental":
            write_ms.append(seconds * 1e3)
            damaged += result.counters.get("damaged_nodes", 0)
            relabeled += result.counters.get("relabeled_nodes", 0)
    incremental_s = elapsed["incremental"] / NUM_UPDATES
    rebuild_s = elapsed["rebuild"] / NUM_REBUILD_UPDATES
    repaired = (
        registry.counter(f"backend.{name}.update.repaired").value
        - repaired_before
    )
    rebuilt = (
        registry.counter(f"backend.{name}.update.rebuilt").value
        - rebuilt_before
    )
    baseline_rebuilt = rebuild_registry.counter(
        f"backend.{name}.update.rebuilt"
    ).value

    row = {
        "build_s": round(build_s, 3),
        "incremental_update_s": round(incremental_s, 6),
        "rebuild_update_s": round(rebuild_s, 6),
        "incremental_updates_per_s": round(1.0 / incremental_s, 2),
        "rebuild_updates_per_s": round(1.0 / rebuild_s, 2),
        "incremental_vs_rebuild": round(rebuild_s / incremental_s, 2),
        "updates_timed": NUM_UPDATES,
        "rebuilds_timed": NUM_REBUILD_UPDATES,
        "update_repaired": int(repaired),
        "update_rebuilt": int(rebuilt),
        "baseline_update_rebuilt": int(baseline_rebuilt),
        "bit_identical_to_rebuild": True,
        "incremental_update_p50_ms": round(float(np.median(write_ms)), 2),
        "incremental_update_p90_ms": round(
            float(np.percentile(write_ms, 90)), 2
        ),
        "mean_damaged_nodes": round(damaged / NUM_UPDATES, 1),
    }
    if name == "hub":
        row["mean_relabeled_nodes"] = round(relabeled / NUM_UPDATES, 1)
    print(
        f"{name}: incremental {row['incremental_update_s'] * 1e3:.1f} ms "
        f"vs rebuild {row['rebuild_update_s'] * 1e3:.1f} ms per update "
        f"({row['incremental_vs_rebuild']:g}x), repaired={repaired} "
        f"rebuilt={rebuilt}"
    )
    return row


def bench_scaling() -> dict:
    """Median single-edge hub repair at two network sizes, 5x apart.

    A repair whose cost follows the damage rather than the node count
    keeps the ratio near the ratio of the damage (the bar is 2x); the
    mean damaged and relabeled nodes per write are reported beside it.  Each size gets its own
    planar network and :class:`TrafficSimulator` stream (same seeds);
    one untimed write first derives the lazily built repair state, then
    ``SCALING_WRITES`` single-edge writes are timed one by one.
    """
    sizes = {}
    for nodes in SCALING_NODES:
        network = random_planar_network(nodes, seed=SEED)
        dataset = uniform_dataset(network, density=DENSITY, seed=SEED)
        index = BACKENDS["hub"](network, dataset)
        stream = TrafficSimulator(index.network, seed=SEED + 1).stream(
            SCALING_WRITES + 1, 1
        )
        index.apply_updates(next(stream))
        write_ms = []
        damaged = relabeled = 0
        for changeset in stream:
            start = time.perf_counter()
            result = index.apply_updates(changeset)
            write_ms.append((time.perf_counter() - start) * 1e3)
            assert "rebuilt" not in result.counters, result.counters
            damaged += result.counters["damaged_nodes"]
            relabeled += result.counters["relabeled_nodes"]
        sizes[str(nodes)] = {
            "median_ms": round(float(np.median(write_ms)), 2),
            "p90_ms": round(float(np.percentile(write_ms, 90)), 2),
            "mean_damaged_nodes": round(damaged / SCALING_WRITES, 1),
            "mean_relabeled_nodes": round(relabeled / SCALING_WRITES, 1),
        }
        print(
            f"scaling: hub at {nodes} nodes, median "
            f"{sizes[str(nodes)]['median_ms']:g} ms per write"
        )
    small, large = (sizes[str(nodes)]["median_ms"] for nodes in SCALING_NODES)
    return {
        "backend": "hub",
        "writes": SCALING_WRITES,
        "sizes": sizes,
        "median_ratio": round(large / small, 2),
    }


def bench_signature_family(network, dataset) -> dict[str, dict]:
    """Single-edge ``apply_updates`` throughput for the §5.4 natives."""
    rows: dict[str, dict] = {}
    variants = {
        "signature": lambda: SignatureIndex.build(
            network.copy(), dataset, keep_trees=True, query_engine="scalar"
        ),
        "columnar": lambda: SignatureIndex.build(
            network.copy(),
            dataset,
            keep_trees=True,
            query_engine="columnar",
        ),
    }
    for name, builder in variants.items():
        start = time.perf_counter()
        index = builder()
        build_s = time.perf_counter() - start
        sim = TrafficSimulator(network, seed=SEED + 1)
        applied = touched = 0
        start = time.perf_counter()
        for changeset in sim.stream(NUM_UPDATES, 1):
            result = index.apply_updates(changeset)
            applied += result.applied
            touched += result.report.touched_nodes
        elapsed = time.perf_counter() - start
        rows[name] = {
            "build_s": round(build_s, 3),
            "updates_applied": applied,
            "updates_per_s": round(applied / elapsed, 2),
            "mean_touched_nodes": round(touched / max(applied, 1), 1),
        }
        print(
            f"{name}: {rows[name]['updates_per_s']:g} updates/s "
            f"(mean {rows[name]['mean_touched_nodes']:g} touched nodes)"
        )
    return rows


async def _live_traffic(network, dataset) -> dict:
    index = SignatureIndex.build(network.copy(), dataset, keep_trees=True)
    server = QueryServer(index, ServeConfig(port=0))
    await server.start()
    try:
        edges = await fetch_edge_sample(
            server.host, server.port, limit=256, seed=SEED
        )
        workload = mixed_workload(
            network.num_nodes,
            seed=SEED,
            write_ratio=WRITE_RATIO,
            edges=edges,
        )
        stats = await closed_loop(
            server.host,
            server.port,
            clients=SERVE_CLIENTS,
            duration_s=SERVE_DURATION_S,
            workload=workload,
        )
        coordinator = server.coordinator
        registry = server._registry
        summary = stats.summary()
        return {
            "workload": {
                "write_ratio": WRITE_RATIO,
                "clients": SERVE_CLIENTS,
                "duration_s": SERVE_DURATION_S,
            },
            "throughput_rps": summary["throughput_rps"],
            "writes": stats.writes,
            "write_throughput_rps": round(
                stats.writes / stats.duration_s, 2
            ),
            "errors": stats.errors,
            "latency_ms": summary["latency_ms"],
            "final_epoch": coordinator.epoch,
            "update_batches": registry.counter("serve.update_batches").value,
        }
    finally:
        await server.shutdown()


def main() -> int:
    network = random_planar_network(NUM_NODES, seed=SEED)
    dataset = uniform_dataset(network, density=DENSITY, seed=SEED)
    print(
        f"bench network: {network.num_nodes} nodes, {network.num_edges} "
        f"edges, {len(dataset)} objects"
    )

    hierarchy = {
        name: bench_hierarchy(name, network, dataset)
        for name in ("ch", "hub")
    }
    scaling = bench_scaling()
    signature = bench_signature_family(network, dataset)
    serve = asyncio.run(_live_traffic(network, dataset))
    print(
        f"serve: {serve['throughput_rps']:g} rps mixed "
        f"({serve['writes']} writes, final epoch {serve['final_epoch']}, "
        f"{serve['update_batches']} coalesced write batches)"
    )

    speedups = {
        f"{name}_incremental_vs_rebuild": row["incremental_vs_rebuild"]
        for name, row in hierarchy.items()
    }
    payload = {
        "config": {
            "nodes": network.num_nodes,
            "edges": network.num_edges,
            "objects": len(dataset),
            "updates": NUM_UPDATES,
            "rebuild_updates": NUM_REBUILD_UPDATES,
            "pairs": NUM_PAIRS,
            "correctness_steps": CORRECTNESS_STEPS,
            "seed": SEED,
            "quick": QUICK,
        },
        "hierarchy": hierarchy,
        "scaling": scaling,
        "signature_family": signature,
        "serve": serve,
        "speedups": speedups,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {JSON_PATH}")

    lines = [
        f"§5.4 maintenance ({network.num_nodes} nodes, "
        f"{len(dataset)} objects, {NUM_UPDATES} single-edge updates)",
        f"{'backend':<10}  {'inc ms':>8}  {'p50 ms':>8}  {'p90 ms':>8}  "
        f"{'rebuild ms':>10}  {'speedup':>8}  {'repaired':>8}  "
        f"{'rebuilt':>7}  {'damaged':>7}",
    ]
    for name, row in hierarchy.items():
        lines.append(
            f"{name:<10}  {row['incremental_update_s'] * 1e3:>8.1f}  "
            f"{row['incremental_update_p50_ms']:>8.1f}  "
            f"{row['incremental_update_p90_ms']:>8.1f}  "
            f"{row['rebuild_update_s'] * 1e3:>10.1f}  "
            f"{row['incremental_vs_rebuild']:>8.2f}  "
            f"{row['update_repaired']:>8}  {row['update_rebuilt']:>7}  "
            f"{row['mean_damaged_nodes']:>7g}"
        )
    small, large = (str(nodes) for nodes in SCALING_NODES)
    lines.append(
        f"hub scaling: median {scaling['sizes'][small]['median_ms']:g} ms "
        f"at {small} nodes, {scaling['sizes'][large]['median_ms']:g} ms at "
        f"{large} ({scaling['median_ratio']:g}x)"
    )
    for name, row in signature.items():
        lines.append(
            f"{name:<10}  {row['updates_per_s']:>8.1f} updates/s "
            f"(mean {row['mean_touched_nodes']:g} touched nodes)"
        )
    lines.append(
        f"serve mixed {int((1 - WRITE_RATIO) * 100)}/"
        f"{int(WRITE_RATIO * 100)}: {serve['throughput_rps']:g} rps, "
        f"{serve['write_throughput_rps']:g} writes/s, final epoch "
        f"{serve['final_epoch']}, {serve['update_batches']} coalesced "
        f"write batches"
    )
    write_result("updates", "\n".join(lines))

    failures = []
    for name, row in hierarchy.items():
        if row["incremental_vs_rebuild"] < MIN_INCREMENTAL_SPEEDUP:
            failures.append(
                f"{name}: incremental repair only "
                f"{row['incremental_vs_rebuild']:g}x rebuild-on-update "
                f"(bar: {MIN_INCREMENTAL_SPEEDUP:g}x)"
            )
        if row["update_repaired"] == 0:
            failures.append(
                f"{name}: update.repaired counter is 0 — the incremental "
                f"path never ran"
            )
        if row["baseline_update_rebuilt"] != row["rebuilds_timed"]:
            failures.append(
                f"{name}: the rebuild baseline rebuilt "
                f"{row['baseline_update_rebuilt']} of "
                f"{row['rebuilds_timed']} timed updates"
            )
    if serve["errors"]:
        failures.append(f"serve: {serve['errors']} failed requests")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
