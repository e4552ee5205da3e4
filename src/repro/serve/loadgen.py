"""Closed- and open-loop load generators for the query service.

Two arrival models, because they answer different questions (the
distinction the distance-oracle benchmarking literature leans on):

* **closed loop** — N simulated users, each issuing its next request the
  moment the previous answer lands.  Measures *capacity*: the served
  throughput at a given concurrency.
* **open loop** — requests arrive at a fixed rate regardless of
  completions (the "millions of independent users" model).  Measures
  *behavior under overload*: with admission control working, latency
  stays bounded and the excess is shed with 429/503 instead of queueing
  forever.

Both return a :class:`LoadStats` with throughput, a latency histogram
(p50/p95/p99 via the PR-2 streaming quantiles), per-status counts, and
the shed/approximate tallies the serving benchmark records.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.obs.metrics import Histogram
from repro.serve.client import ServeClient

__all__ = [
    "LoadStats",
    "mixed_workload",
    "fetch_edge_sample",
    "closed_loop",
    "open_loop",
]


@dataclass
class LoadStats:
    """Aggregated outcome of one load-generation run."""

    duration_s: float = 0.0
    sent: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    approximate: int = 0
    writes: int = 0
    status_counts: dict[int, int] = field(default_factory=dict)
    latency: Histogram = field(
        default_factory=lambda: Histogram("loadgen.latency_seconds")
    )

    def record(self, status: int, seconds: float, payload) -> None:
        self.sent += 1
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        self.latency.observe(seconds)
        if 200 <= status < 300:
            self.ok += 1
            if isinstance(payload, dict) and payload.get("approximate"):
                self.approximate += 1
        elif status in (429, 503):
            self.shed += 1
        else:
            self.errors += 1

    def merge(self, other: "LoadStats") -> None:
        """Fold another run's tallies in (the per-user → total reduce).

        The latency histogram merges exactly
        (:meth:`~repro.obs.metrics.Histogram.merge_state`), so the
        merged p50/p95/p99 are what one shared histogram would have
        reported.
        """
        self.sent += other.sent
        self.ok += other.ok
        self.shed += other.shed
        self.errors += other.errors
        self.approximate += other.approximate
        self.writes += other.writes
        for status, count in other.status_counts.items():
            self.status_counts[status] = (
                self.status_counts.get(status, 0) + count
            )
        self.latency.merge_state(other.latency.state())

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.duration_s if self.duration_s else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.sent if self.sent else 0.0

    def summary(self) -> dict:
        """Plain-data export (benchmark JSON / CLI printing)."""
        latency = self.latency.summary()
        return {
            "duration_s": round(self.duration_s, 3),
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "approximate": self.approximate,
            "writes": self.writes,
            "throughput_rps": round(self.throughput_rps, 1),
            "shed_rate": round(self.shed_rate, 4),
            "status_counts": {
                str(code): count
                for code, count in sorted(self.status_counts.items())
            },
            "latency_ms": {
                key: round(latency[key] * 1_000.0, 3)
                for key in ("mean", "p50", "p95", "p99")
                if key in latency
            },
        }


def mixed_workload(
    num_nodes: int,
    *,
    radius: float = 100.0,
    k: int = 5,
    range_fraction: float = 0.5,
    seed: int = 0,
    write_ratio: float = 0.0,
    edges: list[tuple[int, int, float]] | None = None,
) -> Callable[[], tuple[str, dict]]:
    """A request factory: random query nodes, range/kNN mixed.

    Returns ``next_request() -> (path, payload)``; deterministic for a
    given ``seed`` so benchmark runs are repeatable.

    ``write_ratio`` turns the read workload into live traffic: that
    fraction of requests become ``POST /v1/edges`` ``set_weight``
    mutations over ``edges`` (a ``(u, v, weight)`` sample, normally
    from :func:`fetch_edge_sample`).  New weights are traffic-shaped —
    a clamped log-normal factor around the sampled base weight,
    quantized to the same dyadic grid
    :class:`~repro.workloads.traffic.TrafficSimulator` uses — so a
    long run churns shortest paths without drifting the network.
    """
    if not 0.0 <= write_ratio <= 1.0:
        raise ValueError(
            f"write_ratio must be in [0, 1], got {write_ratio}"
        )
    if write_ratio > 0 and not edges:
        raise ValueError(
            "a write workload needs an edge sample; fetch one with "
            "fetch_edge_sample (GET /v1/edges)"
        )
    rng = random.Random(seed)

    def next_write() -> tuple[str, dict]:
        u, v, base = edges[rng.randrange(len(edges))]
        factor = min(max(math.exp(0.3 * rng.gauss(0.0, 1.0)), 0.25), 4.0)
        weight = max(1.0, round(base * factor * 1024.0)) / 1024.0
        return "/v1/edges", {
            "op": "set_weight",
            "u": u,
            "v": v,
            "weight": weight,
        }

    def next_request() -> tuple[str, dict]:
        if write_ratio > 0 and rng.random() < write_ratio:
            return next_write()
        node = rng.randrange(num_nodes)
        if rng.random() < range_fraction:
            return "/v1/range", {"node": node, "radius": radius}
        return "/v1/knn", {"node": node, "k": k}

    return next_request


async def fetch_edge_sample(
    host: str, port: int, *, limit: int = 256, seed: int = 0
) -> list[tuple[int, int, float]]:
    """Pull a deterministic edge sample from ``GET /v1/edges``."""
    async with ServeClient(host, port) as client:
        response = await client.request(
            "GET", f"/v1/edges?limit={limit}&seed={seed}", None
        )
    if response.status != 200:
        raise RuntimeError(
            f"edge sample failed: HTTP {response.status} {response.payload}"
        )
    return [
        (int(u), int(v), float(w))
        for u, v, w in response.payload["edges"]
    ]


async def _timed_request(
    client: ServeClient, path: str, payload: dict, stats: LoadStats
) -> None:
    if path == "/v1/edges":
        stats.writes += 1
    start = time.perf_counter()
    try:
        response = await client.request("POST", path, payload)
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        stats.record(-1, time.perf_counter() - start, None)
        return
    stats.record(
        response.status, time.perf_counter() - start, response.payload
    )


async def closed_loop(
    host: str,
    port: int,
    *,
    clients: int = 64,
    duration_s: float = 5.0,
    workload: Callable[[], tuple[str, dict]] | None = None,
    num_nodes: int | None = None,
) -> LoadStats:
    """N users in lock-step with their own answers, for ``duration_s``."""
    if workload is None:
        if num_nodes is None:
            raise ValueError("closed_loop needs a workload or num_nodes")
        workload = mixed_workload(num_nodes)
    stats = LoadStats()
    deadline = time.perf_counter() + duration_s

    async def user() -> LoadStats:
        # Each user tallies privately and the results merge at the end —
        # the same delta-then-fold shape the serving tier uses across
        # processes, exercised here across coroutines.
        mine = LoadStats()
        async with ServeClient(host, port) as client:
            while time.perf_counter() < deadline:
                path, payload = workload()
                await _timed_request(client, path, payload, mine)
        return mine

    start = time.perf_counter()
    per_user = await asyncio.gather(*(user() for _ in range(clients)))
    stats.duration_s = time.perf_counter() - start
    for mine in per_user:
        stats.merge(mine)
    return stats


async def open_loop(
    host: str,
    port: int,
    *,
    rate_rps: float = 500.0,
    duration_s: float = 5.0,
    workload: Callable[[], tuple[str, dict]] | None = None,
    num_nodes: int | None = None,
    connections: int = 32,
) -> LoadStats:
    """Fixed-rate arrivals, independent of completions.

    Arrivals are paced on a fixed schedule (rate_rps) and issued over a
    pool of ``connections`` keep-alive connections; when every
    connection is busy, the arrival still *happens* (it queues on the
    pool), which is exactly the unbounded-client pressure admission
    control exists to shed.
    """
    if workload is None:
        if num_nodes is None:
            raise ValueError("open_loop needs a workload or num_nodes")
        workload = mixed_workload(num_nodes)
    stats = LoadStats()
    pool: asyncio.Queue[ServeClient] = asyncio.Queue()
    for _ in range(connections):
        client = ServeClient(host, port)
        await client.connect()
        pool.put_nowait(client)

    interval = 1.0 / rate_rps
    tasks: list[asyncio.Task] = []
    start = time.perf_counter()

    async def issue(path: str, payload: dict) -> None:
        client = await pool.get()
        try:
            await _timed_request(client, path, payload, stats)
        finally:
            pool.put_nowait(client)

    arrival = start
    while arrival < start + duration_s:
        now = time.perf_counter()
        if now < arrival:
            await asyncio.sleep(arrival - now)
        path, payload = workload()
        tasks.append(asyncio.ensure_future(issue(path, payload)))
        arrival += interval
    await asyncio.gather(*tasks)
    stats.duration_s = time.perf_counter() - start
    for _ in range(connections):
        client = pool.get_nowait()
        await client.close()
    return stats
