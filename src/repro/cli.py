"""Command-line interface: generate, build, persist, and query indexes.

Usage (also via ``python -m repro``):

```
repro generate-network net.txt --nodes 2000 --seed 7
repro generate-dataset net.txt objects.txt --density 0.01 --seed 1
repro build net.txt objects.txt index_dir --partition optimal
repro build usa.gr objects.txt index_dir --backend hub
repro info index_dir
repro query index_dir knn --node 42 --k 5
repro query index_dir range --node 42 --radius 50
repro query index_dir distance --node 42 --object 137
repro stats index_dir --queries 50 --format table
repro trace index_dir range --node 42 --radius 50
repro serve index_dir --port 8080
repro loadgen --port 8080 --clients 64 --duration 5
repro top --port 8080
repro compact index_dir
```

``-v`` / ``-vv`` (before the subcommand) raises the log level of the
``repro`` logger hierarchy to INFO / DEBUG.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import KnnType, SignatureIndex
from repro.core.persistence import load_index, save_index
from repro.errors import ReproError
from repro.obs.logconfig import configure_logging
from repro.network.datasets import clustered_dataset, uniform_dataset
from repro.network.generators import random_planar_network
from repro.network.io import (
    load_dataset,
    load_network,
    save_dataset,
    save_network,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distance-signature indexing on road networks "
            "(VLDB 2006 reproduction)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v: INFO, -vv: DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen_net = sub.add_parser(
        "generate-network", help="generate a synthetic road network"
    )
    gen_net.add_argument("output", help="network file to write")
    gen_net.add_argument("--nodes", type=int, default=2000)
    gen_net.add_argument("--seed", type=int, default=0)
    gen_net.add_argument("--mean-degree", type=float, default=4.0)

    gen_ds = sub.add_parser(
        "generate-dataset", help="place objects on a network"
    )
    gen_ds.add_argument("network", help="network file to read")
    gen_ds.add_argument("output", help="dataset file to write")
    gen_ds.add_argument("--density", type=float, default=0.01)
    gen_ds.add_argument("--seed", type=int, default=0)
    gen_ds.add_argument(
        "--clusters",
        type=int,
        default=0,
        help="cluster count for a non-uniform dataset (0 = uniform)",
    )

    build = sub.add_parser("build", help="build and persist a distance index")
    build.add_argument("network", help="network file")
    build.add_argument("dataset", help="dataset file")
    build.add_argument("index_dir", help="directory to write the index to")
    build.add_argument(
        "--backend",
        choices=("signature", "hub"),
        default="signature",
        help=(
            "index family: the paper's distance signatures (default) or "
            "hub labels (docs/BACKENDS.md)"
        ),
    )
    build.add_argument(
        "--partition",
        choices=("optimal", "paper", "empirical"),
        default="optimal",
        help=(
            "category partition policy: §5.1 optimal, §6.1 evaluation, or "
            "the empirical optimizer tuned to --spreadings"
        ),
    )
    build.add_argument(
        "--spreadings",
        default=None,
        help=(
            "comma-separated workload spreadings (radii / k-th NN "
            "distances) for --partition empirical"
        ),
    )
    build.add_argument(
        "--no-compress",
        action="store_true",
        help="skip §5.3 signature compression",
    )
    build.add_argument(
        "--settle-cap",
        type=int,
        default=None,
        dest="settle_cap",
        help=(
            "hub only: max settled nodes per witness search (default "
            "60); lower builds faster with more redundant shortcuts"
        ),
    )
    info = sub.add_parser("info", help="describe a persisted index")
    info.add_argument("index_dir")

    net_info = sub.add_parser(
        "network-info", help="structural statistics of a network file"
    )
    net_info.add_argument("network")
    net_info.add_argument(
        "--dataset",
        default=None,
        help="optional dataset file: adds sampled distance statistics",
    )

    query = sub.add_parser("query", help="query a persisted index")
    query.add_argument("index_dir")
    query_sub = query.add_subparsers(dest="query_type", required=True)

    knn = query_sub.add_parser("knn", help="k nearest neighbors")
    knn.add_argument("--node", type=int, required=True)
    knn.add_argument("--k", type=int, default=1)

    rng = query_sub.add_parser("range", help="objects within a radius")
    rng.add_argument("--node", type=int, required=True)
    rng.add_argument("--radius", type=float, required=True)

    dist = query_sub.add_parser("distance", help="exact network distance")
    dist.add_argument("--node", type=int, required=True)
    dist.add_argument("--object", type=int, required=True, dest="object_node")

    stats = sub.add_parser(
        "stats",
        help="run a sample workload and print the metrics registry",
    )
    stats.add_argument("index_dir")
    stats.add_argument(
        "--queries",
        type=int,
        default=20,
        help="number of sampled range+kNN queries to run",
    )
    stats.add_argument("--radius", type=float, default=100.0)
    stats.add_argument("--k", type=int, default=5)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--format",
        choices=("table", "json", "prometheus"),
        default="table",
        dest="out_format",
        help="export format for the metrics snapshot",
    )

    serve = sub.add_parser(
        "serve",
        help="serve an index over JSON/HTTP (see docs/SERVING.md)",
    )
    serve.add_argument(
        "index_dir",
        nargs="?",
        default=None,
        help="persisted index to serve (omit with --demo-nodes)",
    )
    serve.add_argument(
        "--demo-nodes",
        type=int,
        default=0,
        help=(
            "skip index_dir: build and serve an in-memory index over a "
            "random planar network of this many nodes"
        ),
    )
    serve.add_argument("--demo-seed", type=int, default=0)
    serve.add_argument(
        "--demo-density",
        type=float,
        default=0.02,
        help="object density of the --demo-nodes dataset",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--max-wait-ms", type=float, default=2.0)
    serve.add_argument("--max-pending", type=int, default=256)
    serve.add_argument("--deadline-ms", type=float, default=1000.0)
    serve.add_argument("--shed-latency-ms", type=float, default=500.0)
    serve.add_argument("--degrade-latency-ms", type=float, default=250.0)
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="dispatch every request alone (sets max_batch to 1)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=250.0,
        help=(
            "capture requests slower than this (stage breakdown, batch "
            "membership, span trees) into the /v1/debug ring; 0 disables"
        ),
    )
    serve.add_argument(
        "--slow-query-log",
        default=None,
        metavar="PATH",
        help="append captured slow-query records to PATH as JSON lines",
    )

    compact = sub.add_parser(
        "compact",
        help=(
            "rewrite a persisted index in the zero-copy columnar format "
            "(v2) in place"
        ),
    )
    compact.add_argument("index_dir")
    compact.add_argument(
        "--engine",
        choices=("scalar", "columnar"),
        default=None,
        help="also switch the saved query engine (default: keep)",
    )

    loadgen = sub.add_parser(
        "loadgen", help="drive a running server with synthetic load"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8080)
    loadgen.add_argument(
        "--mode", choices=("closed", "open"), default="closed"
    )
    loadgen.add_argument(
        "--clients", type=int, default=16, help="closed-loop user count"
    )
    loadgen.add_argument(
        "--rate", type=float, default=500.0, help="open-loop arrivals/sec"
    )
    loadgen.add_argument("--duration", type=float, default=5.0)
    loadgen.add_argument("--radius", type=float, default=100.0)
    loadgen.add_argument("--k", type=int, default=5)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--write-ratio",
        type=float,
        default=0.0,
        help=(
            "fraction of requests that become POST /v1/edges set_weight "
            "mutations over a sampled edge set (live-traffic mode)"
        ),
    )
    loadgen.add_argument(
        "--fail-on-error",
        action="store_true",
        help="exit 1 if any request errored (CI smoke gating)",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard polling a running server's /metrics",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8080)
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between /metrics scrapes",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after this many frames (0 = run until interrupted)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of redrawing (logs, tests, pipes)",
    )

    trace = sub.add_parser(
        "trace", help="run one query under tracing and print the span tree"
    )
    trace.add_argument("index_dir")
    trace_sub = trace.add_subparsers(dest="query_type", required=True)
    tknn = trace_sub.add_parser("knn")
    tknn.add_argument("--node", type=int, required=True)
    tknn.add_argument("--k", type=int, default=1)
    trng = trace_sub.add_parser("range")
    trng.add_argument("--node", type=int, required=True)
    trng.add_argument("--radius", type=float, required=True)
    for sp in (tknn, trng):
        sp.add_argument(
            "--format",
            choices=("tree", "json"),
            default="tree",
            dest="out_format",
            help="span tree rendering",
        )

    return parser


def _cmd_generate_network(args) -> int:
    network = random_planar_network(
        args.nodes, seed=args.seed, mean_degree=args.mean_degree
    )
    save_network(network, args.output)
    print(
        f"wrote {args.output}: {network.num_nodes} nodes, "
        f"{network.num_edges} edges"
    )
    return 0


def _cmd_generate_dataset(args) -> int:
    network = load_network(args.network)
    if args.clusters > 0:
        dataset = clustered_dataset(
            network, args.density, seed=args.seed, num_clusters=args.clusters
        )
    else:
        dataset = uniform_dataset(network, args.density, seed=args.seed)
    save_dataset(dataset, args.output)
    print(f"wrote {args.output}: {len(dataset)} objects")
    return 0


def _load_build_network(path: str):
    """Load a network file for ``repro build``, sniffing DIMACS ``.gr``."""
    if path.endswith((".gr", ".gr.gz")):
        from repro.network.dimacs import load_dimacs

        return load_dimacs(path)
    return load_network(path)


def _cmd_build(args) -> int:
    network = _load_build_network(args.network)
    dataset = load_dataset(args.dataset)
    if args.backend != "signature":
        from repro.backends import build_backend

        build_kwargs = {}
        if args.settle_cap is not None:
            build_kwargs["settle_cap"] = args.settle_cap
        index = build_backend(
            args.backend, network, dataset, **build_kwargs
        )
        save_index(index, args.index_dir)
        stats = index.stats()
        print(
            f"built {args.backend} index in {args.index_dir}: "
            f"{stats['nodes']} nodes, {stats['objects']} objects, "
            f"{stats['label_entries']} label entries, "
            f"{stats['index_bytes']} index bytes "
            f"(settle_cap={stats['settle_cap']})"
        )
        return 0
    if args.settle_cap is not None:
        from repro.errors import QueryError

        raise QueryError(
            "--settle-cap is a hub build parameter; the signature "
            "backend has no witness searches"
        )
    partition = args.partition
    if partition == "empirical":
        from repro.analysis.empirical import optimize_partition
        from repro.errors import QueryError

        if not args.spreadings:
            raise QueryError(
                "--partition empirical needs --spreadings, e.g. "
                "--spreadings 10,50,200"
            )
        spreadings = [float(tok) for tok in args.spreadings.split(",")]
        partition, _ = optimize_partition(network, dataset, spreadings)
        print(
            f"empirical optimizer: c={partition.c:g}, "
            f"T={partition.first_boundary:g}"
        )
    index = SignatureIndex.build(
        network,
        dataset,
        partition,
        compress=not args.no_compress,
    )
    save_index(index, args.index_dir)
    report = index.storage_report()
    print(
        f"built index in {args.index_dir}: "
        f"{index.partition.num_categories} categories, "
        f"{report.signature_pages} signature pages, "
        f"encoding ratio {report.encoded_ratio:.2f}"
    )
    return 0


def _cmd_info(args) -> int:
    from repro.backends import BACKENDS, backend_of

    index = load_index(args.index_dir)
    stats = index.stats()
    print(f"backend:             {backend_of(index)}")
    if stats["type"] in BACKENDS:
        print(f"nodes:               {stats['nodes']}")
        print(f"edges:               {stats['edges']}")
        print(f"objects:             {stats['objects']}")
        print(f"categories:          {stats['categories']}")
        print(f"bucket entries:      {stats['bucket_entries']}")
        print(f"index bytes:         {stats['index_bytes']}")
        print(f"object table bytes:  {stats['object_table_bytes']}")
        print(f"label entries:       {stats['label_entries']}")
        print(f"mean label size:     {stats['mean_label_size']:.1f}")
        return 0
    report = index.storage_report()
    print(f"nodes:               {index.network.num_nodes}")
    print(f"edges:               {index.network.num_edges}")
    print(f"objects:             {len(index.dataset)}")
    print(f"categories:          {index.partition.num_categories}")
    print(f"stored encoding:     {index.stored_kind}")
    print(f"signature pages:     {report.signature_pages}")
    print(f"adjacency pages:     {report.adjacency_pages}")
    print(f"raw bits:            {report.raw_bits}")
    print(f"encoded bits:        {report.encoded_bits}")
    print(f"compressed bits:     {report.compressed_bits}")
    return 0


def _cmd_network_info(args) -> int:
    from repro.network.stats import network_stats, sample_distance_stats

    network = load_network(args.network)
    print(network_stats(network).describe())
    if args.dataset:
        dataset = load_dataset(args.dataset)
        print(f"objects:      {len(dataset)} "
              f"(density {dataset.density(network):.4f})")
        stats = sample_distance_stats(network, dataset)
        print(
            "distance sample: "
            f"mean {stats['mean']:.1f}, median {stats['median']:.1f}, "
            f"p90 {stats['p90']:.1f}, max {stats['max']:.1f}"
        )
    return 0


def _cmd_query(args) -> int:
    index = load_index(args.index_dir)
    if args.query_type == "knn":
        results = index.knn(
            args.node, args.k, knn_type=KnnType.EXACT_DISTANCES
        )
        for object_node, distance in results:
            print(f"{object_node}\t{distance:g}")
    elif args.query_type == "range":
        results = index.range_query(
            args.node, args.radius, with_distances=True
        )
        for object_node, distance in results:
            print(f"{object_node}\t{distance:g}")
    else:  # distance
        print(f"{index.distance(args.node, args.object_node):g}")
    print(
        f"# page accesses: {index.counter.logical_reads}", file=sys.stderr
    )
    return 0


def _cmd_stats(args) -> int:
    from repro.obs import (
        metrics_summary_table,
        metrics_to_json_lines,
        metrics_to_prometheus,
    )

    index = load_index(args.index_dir)
    rng = np.random.default_rng(args.seed)
    nodes = rng.integers(0, index.network.num_nodes, size=args.queries)
    index.range_query_batch([int(n) for n in nodes], args.radius)
    for node in nodes:
        index.knn(int(node), args.k)
    if args.out_format == "json":
        print(metrics_to_json_lines(index.metrics))
    elif args.out_format == "prometheus":
        print(metrics_to_prometheus(index.metrics))
    else:
        from repro.backends import backend_of

        print(metrics_summary_table(index.metrics, title=args.index_dir))
        print(f"# backend: {backend_of(index)}", file=sys.stderr)
        print(
            f"# page accesses: {index.counter.logical_reads}",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import json

    from repro.serve import QueryServer, ServeConfig

    if args.demo_nodes > 0:
        network = random_planar_network(args.demo_nodes, seed=args.demo_seed)
        dataset = uniform_dataset(
            network, density=args.demo_density, seed=args.demo_seed
        )
        print(
            f"demo index: {network.num_nodes} nodes, {len(dataset)} objects",
            file=sys.stderr,
        )
        index = SignatureIndex.build(network, dataset, keep_trees=True)
    elif args.index_dir:
        index = load_index(args.index_dir)
    else:
        print(
            "error: serve needs an index_dir or --demo-nodes", file=sys.stderr
        )
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=1 if args.no_coalesce else args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_pending=args.max_pending,
        deadline_ms=args.deadline_ms,
        shed_latency_ms=args.shed_latency_ms,
        degrade_latency_ms=args.degrade_latency_ms,
        slow_query_ms=args.slow_query_ms,
        slow_query_log=args.slow_query_log,
    )
    server = QueryServer(index, config)

    async def _run() -> None:
        await server.serve_forever()

    print(
        f"serving on http://{config.host}:{config.port} "
        f"(max_batch={config.max_batch}, max_wait_ms={config.max_wait_ms:g})",
        flush=True,
    )
    asyncio.run(_run())
    snapshot = index.metrics.snapshot()
    served = snapshot["counters"].get("serve.requests", 0)
    print(
        json.dumps({"served_requests": served, "drained": True}), flush=True
    )
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio
    import json

    from repro.serve import ServeClient, closed_loop, mixed_workload, open_loop
    from repro.serve.loadgen import fetch_edge_sample

    async def _run():
        async with ServeClient(args.host, args.port) as probe:
            health = await probe.healthz()
            num_nodes = health.payload["nodes"]
        edges = None
        if args.write_ratio > 0:
            edges = await fetch_edge_sample(
                args.host, args.port, seed=args.seed
            )
        workload = mixed_workload(
            num_nodes,
            radius=args.radius,
            k=args.k,
            seed=args.seed,
            write_ratio=args.write_ratio,
            edges=edges,
        )
        if args.mode == "closed":
            return await closed_loop(
                args.host,
                args.port,
                clients=args.clients,
                duration_s=args.duration,
                workload=workload,
            )
        return await open_loop(
            args.host,
            args.port,
            rate_rps=args.rate,
            duration_s=args.duration,
            workload=workload,
        )

    stats = asyncio.run(_run())
    print(json.dumps(stats.summary(), indent=2))
    if args.fail_on_error and stats.errors:
        print(f"error: {stats.errors} failed requests", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args) -> int:
    import asyncio

    from repro.serve import run_top

    try:
        asyncio.run(
            run_top(
                args.host,
                args.port,
                interval_s=args.interval,
                iterations=args.iterations,
                clear=not args.no_clear,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_compact(args) -> int:
    from pathlib import Path

    index_dir = Path(args.index_dir)
    before = (index_dir / "meta.txt").read_text().splitlines()[0]
    index = load_index(index_dir)
    if args.engine is not None:
        index.query_engine = args.engine
    save_index(index, index_dir, format=2)
    store = index.columnar
    print(
        f"compacted {index_dir}: {before.split()[-1] if before else '?'} -> 2, "
        f"{store.num_nodes} nodes x {store.num_objects} objects, "
        f"{store.nbytes} array bytes, engine {index.query_engine}"
    )
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import render_trace, trace_to_json_lines

    index = load_index(args.index_dir)
    with index.trace() as tracer:
        if args.query_type == "knn":
            index.knn(args.node, args.k, knn_type=KnnType.EXACT_DISTANCES)
        else:
            index.range_query(args.node, args.radius, with_distances=True)
    if args.out_format == "json":
        print(trace_to_json_lines(tracer))
    else:
        print(render_trace(tracer))
    return 0


_COMMANDS = {
    "generate-network": _cmd_generate_network,
    "generate-dataset": _cmd_generate_dataset,
    "build": _cmd_build,
    "info": _cmd_info,
    "network-info": _cmd_network_info,
    "query": _cmd_query,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "top": _cmd_top,
    "compact": _cmd_compact,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging(args.verbose)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
