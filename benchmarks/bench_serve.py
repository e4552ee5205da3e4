"""Served throughput: coalescing vs per-request dispatch over HTTP.

Not a paper figure — the serving trajectory of the north star.  A
``repro serve`` process (the real CLI, demo index, columnar engine) is
driven by an in-process asyncio load generator; server and loadgen live
in *separate processes* because sharing one event loop makes the
measuring side steal cycles from the measured side and flattens every
ratio.

Three capacity runs against a range-only workload whose radius sits
inside the first category band (no refinement noise, same regime as
``bench_throughput``):

* **single-request** — 1 closed-loop client against a ``--no-coalesce``
  server: strictly one request in the index at a time.  The baseline the
  ISSUE's ≥3× criterion is measured against.
* **uncoalesced** — the same server at full concurrency: event-loop
  overlap without batching.
* **coalesced** — full concurrency against the default micro-batching
  config; the coalescer amortizes the fixed per-call engine cost across
  each batch.

A fourth run overloads a deliberately tight admission config with
open-loop arrivals and checks the failure mode is shedding (429/503,
bounded latency), not collapse.

Writes machine-readable ``BENCH_serve.json`` at the repo root and
appends a one-line summary to ``benchmarks/results/throughput.txt``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

#: ``--quick`` (the CI smoke mode) shrinks every scale knob.  Applied
#: before any benchmarks import, matching the other bench modules.
QUICK = "--quick" in sys.argv
if QUICK:
    os.environ.setdefault("REPRO_BENCH_SERVE_NODES", "1200")
    os.environ.setdefault("REPRO_BENCH_SERVE_CLIENTS", "16")
    os.environ.setdefault("REPRO_BENCH_SERVE_DURATION", "1.5")

_REPO_ROOT_PATH = Path(__file__).resolve().parent.parent
_REPO_ROOT = str(_REPO_ROOT_PATH)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

import pytest  # noqa: E402

from benchmarks.conftest import RESULTS_DIR  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    closed_loop,
    mixed_workload,
    open_loop,
)

JSON_PATH = _REPO_ROOT_PATH / "BENCH_serve.json"
SRC_DIR = _REPO_ROOT_PATH / "src"

SERVE_NODES = int(os.environ.get("REPRO_BENCH_SERVE_NODES", "6000"))
CLIENTS = int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "64"))
DURATION_S = float(os.environ.get("REPRO_BENCH_SERVE_DURATION", "4.0"))
DENSITY = 0.01
SEED = 1959

#: The acceptance bar: coalesced served throughput at full concurrency
#: ≥ 3× the single-request baseline.  The quick smoke runs a smaller
#: index at lower concurrency where there is less fixed cost to
#: amortize; it only checks the direction.
MIN_COALESCING_SPEEDUP = 1.2 if QUICK else 3.0

#: Generous admission knobs for the capacity runs — nothing may shed.
_OPEN_ADMISSION = (
    "--max-pending", "100000",
    "--deadline-ms", "60000",
    "--shed-latency-ms", "1000000",
    "--degrade-latency-ms", "1000000",
)

#: Deliberately tight knobs for the overload run: a short pending queue
#: and latency ceilings far below what saturation produces.  The load
#: generator keeps more connections in flight than ``max-pending`` so
#: the queue-full 429 path is guaranteed to engage.
_OVERLOAD_CONNECTIONS = 128
_TIGHT_ADMISSION = (
    "--max-pending", "32",
    "--deadline-ms", "250",
    "--shed-latency-ms", "50",
    "--degrade-latency-ms", "20",
)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerProcess:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, *flags: str) -> None:
        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--demo-nodes", str(SERVE_NODES),
                "--demo-seed", str(SEED),
                "--demo-density", str(DENSITY),
                "--host", "127.0.0.1",
                "--port", str(self.port),
                *flags,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.health: dict = {}

    async def wait_ready(self, timeout_s: float = 180.0) -> dict:
        """Poll ``/healthz`` until the demo index is built and serving."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited early (rc={self.proc.returncode})"
                )
            try:
                async with ServeClient("127.0.0.1", self.port) as client:
                    response = await client.healthz()
                if response.status == 200:
                    self.health = response.payload
                    return self.health
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                pass
            await asyncio.sleep(0.25)
        raise RuntimeError("server did not become ready in time")

    async def metrics_text(self) -> str:
        async with ServeClient("127.0.0.1", self.port) as client:
            return await client.metrics_text()

    def stop(self) -> None:
        """SIGTERM (graceful drain), escalating to SIGKILL if ignored."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _range_workload(health: dict, seed: int = 3):
    """Range-only requests with a radius inside the first category band.

    Staying strictly under the first partition boundary keeps refinement
    out of the picture (same reasoning as ``bench_throughput._radii``):
    refinement work is per-object and identical for every dispatch
    shape, so it would only dilute the batching signal being measured.
    """
    boundaries = health["partition_boundaries"]
    radius = 0.9 * boundaries[0]
    return mixed_workload(
        health["nodes"], radius=radius, range_fraction=1.0, seed=seed
    ), radius


def _parse_batch_metrics(text: str) -> dict:
    """Batch-size stats out of the Prometheus exposition text."""
    stats: dict = {}
    sum_match = re.search(r"^repro_serve_batch_size_sum (\S+)", text, re.M)
    count_match = re.search(r"^repro_serve_batch_size_count (\S+)", text, re.M)
    if sum_match and count_match and float(count_match.group(1)) > 0:
        total, count = float(sum_match.group(1)), int(count_match.group(1))
        stats["batches"] = count
        stats["mean_batch_size"] = round(total / count, 3)
    for quantile, label in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
        match = re.search(
            rf'^repro_serve_batch_size{{quantile="{quantile}"}} (\S+)',
            text,
            re.M,
        )
        if match:
            stats[label] = float(match.group(1))
    return stats


async def _capacity_run(server: ServerProcess, workload, clients: int):
    """A warmed closed-loop measurement against ``server``."""
    await closed_loop(
        "127.0.0.1",
        server.port,
        clients=min(clients, 16),
        duration_s=min(1.0, DURATION_S / 2),
        workload=workload,
    )
    return await closed_loop(
        "127.0.0.1",
        server.port,
        clients=clients,
        duration_s=DURATION_S,
        workload=workload,
    )


async def _run_bench() -> dict:
    runs: dict = {}

    # -- single-request + uncoalesced: one --no-coalesce server --------
    with ServerProcess("--no-coalesce", *_OPEN_ADMISSION) as server:
        health = await server.wait_ready()
        workload, radius = _range_workload(health)
        single = await _capacity_run(server, workload, clients=1)
        uncoalesced = await _capacity_run(server, workload, clients=CLIENTS)
    runs["single_request"] = {
        **single.summary(), "clients": 1, "max_batch": 1,
    }
    runs["uncoalesced"] = {
        **uncoalesced.summary(), "clients": CLIENTS, "max_batch": 1,
    }

    # -- coalesced: default micro-batching config ----------------------
    max_batch = max(CLIENTS, 2)
    with ServerProcess(
        "--max-batch", str(max_batch), "--max-wait-ms", "2.0",
        *_OPEN_ADMISSION,
    ) as server:
        health = await server.wait_ready()
        workload, _ = _range_workload(health)
        coalesced = await _capacity_run(server, workload, clients=CLIENTS)
        metrics_text = await server.metrics_text()
    runs["coalesced"] = {
        **coalesced.summary(),
        "clients": CLIENTS,
        "max_batch": max_batch,
        "max_wait_ms": 2.0,
    }
    batching = _parse_batch_metrics(metrics_text)

    # The equivalence contract: capacity runs never shed, never error,
    # never degrade to approximate answers.
    for name in ("single_request", "uncoalesced", "coalesced"):
        assert runs[name]["errors"] == 0, (name, runs[name])
        assert runs[name]["shed"] == 0, (name, runs[name])
        assert runs[name]["approximate"] == 0, (name, runs[name])

    # The serving claim of the metrics satellite: the exporter names the
    # batch-size histogram and the shed counters (what the CI smoke job
    # greps for).
    assert "repro_serve_batch_size" in metrics_text
    assert "repro_serve_shed_429_total" in metrics_text
    assert "repro_serve_shed_503_total" in metrics_text
    assert batching.get("mean_batch_size", 0) > 1.0, batching

    # -- overload: open-loop arrivals vs tight admission ---------------
    coalesced_rps = runs["coalesced"]["throughput_rps"]
    overload_rate = max(2.5 * coalesced_rps, 500.0)
    with ServerProcess(
        "--max-batch", str(max_batch), "--max-wait-ms", "2.0",
        *_TIGHT_ADMISSION,
    ) as server:
        health = await server.wait_ready()
        workload, _ = _range_workload(health, seed=7)
        overload = await open_loop(
            "127.0.0.1",
            server.port,
            rate_rps=overload_rate,
            duration_s=DURATION_S,
            workload=workload,
            connections=_OVERLOAD_CONNECTIONS,
        )
    runs["overload"] = {
        **overload.summary(),
        "rate_rps": round(overload_rate, 1),
        "connections": _OVERLOAD_CONNECTIONS,
    }

    return {
        "config": {
            "num_nodes": SERVE_NODES,
            "density": DENSITY,
            "seed": SEED,
            "clients": CLIENTS,
            "duration_s": DURATION_S,
            "range_radius": round(radius, 3),
            "quick": QUICK,
        },
        "runs": runs,
        "batching": batching,
        "speedups": {
            "coalesced_vs_single_request": round(
                coalesced.throughput_rps / max(single.throughput_rps, 1e-9), 3
            ),
            "coalesced_vs_uncoalesced": round(
                coalesced.throughput_rps
                / max(uncoalesced.throughput_rps, 1e-9),
                3,
            ),
        },
    }


def _summary_line(payload: dict) -> str:
    runs, speedups = payload["runs"], payload["speedups"]
    overload = runs["overload"]
    return (
        f"serve: coalesced {runs['coalesced']['throughput_rps']:.0f} rps "
        f"@{payload['config']['clients']} clients = "
        f"{speedups['coalesced_vs_single_request']:.2f}x single-request "
        f"({runs['single_request']['throughput_rps']:.0f} rps), "
        f"{speedups['coalesced_vs_uncoalesced']:.2f}x uncoalesced "
        f"({runs['uncoalesced']['throughput_rps']:.0f} rps); "
        f"overload shed_rate={overload['shed_rate']:.2f} "
        f"p99={overload['latency_ms'].get('p99', 0.0):.0f}ms"
    )


def test_served_throughput():
    payload = asyncio.run(_run_bench())
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    line = _summary_line(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    with (RESULTS_DIR / "throughput.txt").open("a") as handle:
        handle.write(line + "\n")
    print(f"\n{line}\n[appended to {RESULTS_DIR / 'throughput.txt'}]")
    print(f"[written to {JSON_PATH}]")

    # The tentpole claim: coalescing beats single-request dispatch by
    # the ISSUE's margin, and beats plain concurrency too.
    speedups = payload["speedups"]
    assert speedups["coalesced_vs_single_request"] >= MIN_COALESCING_SPEEDUP
    assert speedups["coalesced_vs_uncoalesced"] > 1.0

    # Overload degrades by shedding, not by error or unbounded latency:
    # every response is an answer or an explicit 429/503, and tail
    # latency stays within an order of magnitude of the deadline.
    overload = payload["runs"]["overload"]
    assert overload["errors"] == 0, overload
    assert overload["shed"] > 0, overload
    assert set(overload["status_counts"]) <= {"200", "429", "503"}, overload
    assert overload["latency_ms"]["p99"] < 2000.0, overload


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-x", "-q", "-p", "no:cacheprovider"]))
