"""Build one workload's index and serve it over HTTP until SIGTERM.

Run by the benchmark as a subprocess, so the index lives in a process of
its own whose memory and CPU time can be read from ``/proc``::

    python3 perfbench/server.py --kind hub --nodes 2000

The server runs with ``ServeConfig`` defaults apart from the listening
port.  Once it accepts connections it prints one JSON line (port, build
time, index size).  With ``--spans PATH`` it wraps the index's public
batch and update methods in span recorders that record between SIGUSR1
and SIGUSR2; the spans are written to PATH after shutdown.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
from pathlib import Path
from time import perf_counter

import common

#: Index methods the server calls per coalesced batch or write.
TRACED_METHODS = ("distance_batch", "knn_batch", "range_query_batch",
                  "apply_updates")


async def serve(args) -> None:
    from repro.serve import QueryServer, ServeConfig

    network, dataset = common.make_inputs(args.nodes)
    started = perf_counter()
    index = common.build_index(args.kind, network, dataset)
    build_s = perf_counter() - started

    recorder = common.SpanRecorder(prefix="s")
    if args.spans:
        for name in TRACED_METHODS:
            method = getattr(index, name)
            setattr(index, name,
                    common.timed_method(recorder, f"index.{name}", method))

    server = QueryServer(index, ServeConfig(port=0))
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    loop.add_signal_handler(signal.SIGUSR1,
                            lambda: setattr(recorder, "enabled", True))
    loop.add_signal_handler(signal.SIGUSR2,
                            lambda: setattr(recorder, "enabled", False))
    print(json.dumps({
        "port": server.port,
        "build_s": build_s,
        "index_bytes": common.index_bytes(index),
    }), flush=True)
    await stop.wait()
    await server.shutdown()
    if args.spans:
        recorder.dump(Path(args.spans))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("sig", "hub"), required=True)
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    common.import_repro()
    asyncio.run(serve(args))


if __name__ == "__main__":
    main()
