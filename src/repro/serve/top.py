"""``repro top`` — a live terminal dashboard over ``GET /metrics``.

Scrapes a serving process's Prometheus exposition on an interval and
renders the serving tier's vital signs the way ``top(1)`` renders a
host's: request/batch rates (derived from counter deltas between
scrapes), queue depth and latency EWMA (gauges, read directly), the
coalesce batch-size distribution, and served latency quantiles.

The scrape side is :func:`repro.obs.export.parse_prometheus_text`; no
server-side support beyond ``/metrics`` is needed, so the dashboard
works against any serving process, local or remote.  Rendering is pure
(samples in, text out) for testability; the polling loop is a thin
asyncio shell around it.
"""

from __future__ import annotations

import asyncio
import time

from repro.obs.export import parse_prometheus_text
from repro.serve.client import ServeClient

__all__ = ["TopSnapshot", "render_dashboard", "run_top"]


class TopSnapshot:
    """One scrape: parsed samples plus the wall-clock instant taken."""

    __slots__ = ("samples", "taken_at")

    def __init__(
        self, samples: dict[str, float], taken_at: float | None = None
    ) -> None:
        self.samples = samples
        self.taken_at = taken_at if taken_at is not None else time.monotonic()

    def value(self, name: str, default: float = 0.0) -> float:
        return self.samples.get(name, default)


def _rate(
    current: TopSnapshot, previous: TopSnapshot | None, name: str
) -> float:
    """Per-second rate of a cumulative counter between two scrapes."""
    if previous is None:
        return 0.0
    dt = current.taken_at - previous.taken_at
    if dt <= 0:
        return 0.0
    return max(current.value(name) - previous.value(name), 0.0) / dt


def render_dashboard(
    current: TopSnapshot,
    previous: TopSnapshot | None,
    *,
    target: str = "",
) -> str:
    """The dashboard frame for one scrape pair.

    Rates need two scrapes; the first frame shows them as 0.0 and the
    second onward shows true deltas.
    """
    lines: list[str] = []
    stamp = time.strftime("%H:%M:%S")
    lines.append(f"repro top — {target or 'server'} — {stamp}")
    lines.append("")

    requests_s = _rate(current, previous, "repro_serve_requests_total")
    batches_s = _rate(current, previous, "repro_serve_batches_total")
    coalesced_s = _rate(
        current, previous, "repro_serve_coalesced_requests_total"
    )
    shed_s = _rate(
        current, previous, "repro_serve_shed_429_total"
    ) + _rate(current, previous, "repro_serve_shed_503_total")
    lines.append(
        f"  requests/s {requests_s:9.1f}    batches/s {batches_s:9.1f}    "
        f"coalesced/s {coalesced_s:9.1f}    shed/s {shed_s:7.1f}"
    )

    pending = current.value("repro_serve_pending")
    ewma = current.value("repro_serve_latency_ewma_ms")
    batch_count = current.value("repro_serve_batch_size_count")
    batch_sum = current.value("repro_serve_batch_size_sum")
    batch_mean = batch_sum / batch_count if batch_count else 0.0
    batch_p95 = current.value('repro_serve_batch_size{quantile="0.95"}')
    lines.append(
        f"  pending {pending:12.0f}    latency ewma {ewma:6.2f} ms    "
        f"batch mean {batch_mean:6.2f}    batch p95 {batch_p95:6.1f}"
    )
    lat_p50 = current.value('repro_serve_latency_seconds{quantile="0.5"}')
    lat_p99 = current.value('repro_serve_latency_seconds{quantile="0.99"}')
    lines.append(
        f"  latency p50 {lat_p50 * 1e3:8.2f} ms    "
        f"latency p99 {lat_p99 * 1e3:8.2f} ms"
    )
    return "\n".join(lines)


async def run_top(
    host: str,
    port: int,
    *,
    interval_s: float = 1.0,
    iterations: int = 0,
    clear: bool = True,
    write=print,
) -> int:
    """Poll ``/metrics`` and render frames until stopped.

    ``iterations=0`` runs until interrupted (the CLI's default);
    a positive count stops after that many frames (tests, one-shot
    inspection).  Returns the number of frames rendered.
    """
    previous: TopSnapshot | None = None
    frames = 0
    target = f"{host}:{port}"
    client = ServeClient(host, port)
    try:
        while iterations <= 0 or frames < iterations:
            try:
                text = await client.metrics_text()
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                write(f"repro top — {target} — unreachable")
                await asyncio.sleep(interval_s)
                continue
            current = TopSnapshot(parse_prometheus_text(text))
            frame = render_dashboard(current, previous, target=target)
            if clear:
                write("\x1b[2J\x1b[H" + frame)
            else:
                write(frame)
            previous = current
            frames += 1
            if iterations > 0 and frames >= iterations:
                break
            await asyncio.sleep(interval_s)
    finally:
        await client.close()
    return frames
