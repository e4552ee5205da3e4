"""Request identity, stage timing, slow queries, and the top dashboard.

End-to-end checks of the observability layer: request ids round-trip
through headers and payloads, the ``Server-Timing`` stage breakdown
telescopes to the measured wall time, and slow queries land in the
debug ring (and the JSON-lines file).
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import pytest

from repro.obs.export import metrics_to_prometheus, parse_prometheus_text
from repro.serve import (
    LoadStats,
    QueryServer,
    RequestContext,
    ServeClient,
    ServeConfig,
    SlowQueryLog,
    new_request_id,
    render_dashboard,
)
from repro.serve.top import TopSnapshot

QUERY_NODES = [0, 17, 42, 128, 250, 299]


@contextlib.asynccontextmanager
async def serving(index, **overrides):
    config = ServeConfig(port=0).replace(**overrides)
    server = QueryServer(index, config)
    await server.start()
    client = ServeClient(server.host, server.port)
    try:
        yield server, client
    finally:
        await client.close()
        await server.shutdown()


class TestRequestContext:
    def test_stages_telescope_to_elapsed(self):
        ctx = RequestContext("/v1/range")
        ctx.mark_submit()
        ctx.mark_dispatch()
        ctx.mark_execute()
        ctx.mark_done()
        stages = ctx.stages()
        assert set(stages) == {"queue", "coalesce", "execute", "stitch"}
        assert sum(stages.values()) == pytest.approx(ctx.elapsed_s)

    def test_missing_marks_collapse_not_break(self):
        """A request shed in admission never reaches dispatch — the
        telescoping-sum property must survive the partial lifecycle."""
        ctx = RequestContext("/v1/range")
        ctx.mark_submit()  # dies here
        stages = ctx.stages()
        assert stages["coalesce"] == 0.0
        assert stages["execute"] == 0.0
        assert sum(stages.values()) == pytest.approx(ctx.elapsed_s)

    def test_marks_are_idempotent(self):
        ctx = RequestContext("/v1/knn")
        ctx.mark_submit()
        first = ctx.t_submit
        ctx.mark_submit()
        assert ctx.t_submit == first

    def test_client_id_wins_over_minted(self):
        assert RequestContext("/", request_id="mine").request_id == "mine"
        minted = RequestContext("/").request_id
        assert minted and minted != "mine"

    def test_ids_are_unique_and_ordered(self):
        a, b = new_request_id(), new_request_id()
        assert a != b
        assert a.split("-")[0] == b.split("-")[0]  # same process prefix

    def test_server_timing_header_sums_to_total(self):
        ctx = RequestContext("/v1/range")
        ctx.mark_submit()
        ctx.mark_dispatch()
        ctx.mark_execute()
        header = ctx.server_timing_header()
        durations = {}
        for part in header.split(","):
            name, _, duration = part.strip().partition(";dur=")
            durations[name] = float(duration)
        stage_sum = sum(
            v for k, v in durations.items() if k != "total"
        )
        # Printed at 3 decimals; 4 stages → ≤2µs rounding slack.
        assert stage_sum == pytest.approx(durations["total"], abs=0.002)


class TestSlowQueryLog:
    def test_threshold_gates_capture(self):
        log = SlowQueryLog(threshold_ms=10_000.0)
        ctx = RequestContext("/v1/range")
        assert log.maybe_record(ctx, status=200) is None
        assert log.recent() == []

    def test_disabled_when_threshold_nonpositive(self):
        log = SlowQueryLog(threshold_ms=0.0)
        assert not log.enabled
        assert log.maybe_record(RequestContext("/"), status=200) is None

    def test_ring_bounded_and_file_sink(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(threshold_ms=1e-6, path=str(path), capacity=3)
        for i in range(5):
            ctx = RequestContext("/v1/range", request_id=f"r{i}")
            ctx.attach_batch(2, [f"r{i}", "other"])
            log.maybe_record(ctx, status=200, params={"node": i})
        log.close()
        assert log.recorded == 5
        ring = log.recent()
        assert [r["request_id"] for r in ring] == ["r2", "r3", "r4"]
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert len(lines) == 5  # the file keeps everything the ring drops
        record = lines[0]
        assert record["request_id"] == "r0"
        assert record["path"] == "/v1/range"
        assert record["params"] == {"node": 0}
        assert record["batch"]["size"] == 2
        assert set(record["stages_ms"]) == {
            "queue",
            "coalesce",
            "execute",
            "stitch",
        }

    def test_batch_spans_serialize_only_for_slow_requests(self):
        class CountingTracer:
            calls = 0

            def to_dicts(self):
                CountingTracer.calls += 1
                return [{"name": "query.range_batch", "children": []}]

        tracer = CountingTracer()
        fast, slow = RequestContext("/v1/range"), RequestContext("/v1/knn")
        for ctx in (fast, slow):
            ctx.attach_execution(tracer=tracer, epoch=0)
        assert CountingTracer.calls == 0  # attaching serializes nothing
        assert SlowQueryLog(threshold_ms=10_000.0).maybe_record(
            fast, status=200
        ) is None
        assert CountingTracer.calls == 0
        record = SlowQueryLog(threshold_ms=1e-6).maybe_record(
            slow, status=200
        )
        assert CountingTracer.calls == 1
        assert record["spans"] == [
            {"name": "query.range_batch", "children": []}
        ]

    def test_unwritable_file_disables_sink_not_requests(self, tmp_path):
        log = SlowQueryLog(
            threshold_ms=1e-6, path=str(tmp_path / "no" / "dir" / "x.jsonl")
        )
        record = log.maybe_record(RequestContext("/v1/knn"), status=200)
        assert record is not None  # the ring still captured it
        assert log.path is None  # the sink turned itself off


class TestRequestIdEndToEnd:
    def test_server_mints_header_and_payload(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                response = await client.range(0, 60.0)
                assert response.status == 200
                assert response.request_id
                assert response.payload["request_id"] == response.request_id

        asyncio.run(main())

    def test_client_supplied_id_round_trips(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                response = await client.request(
                    "POST",
                    "/v1/knn",
                    {"node": 5, "k": 3},
                    request_id="trace-me-7",
                )
                assert response.status == 200
                assert response.request_id == "trace-me-7"
                assert response.payload["request_id"] == "trace-me-7"

        asyncio.run(main())

    def test_server_timing_telescopes_and_bounds_client(self, sig_index):
        from time import perf_counter

        async def main():
            async with serving(sig_index) as (server, client):
                start = perf_counter()
                response = await client.range(17, 80.0)
                client_ms = (perf_counter() - start) * 1e3
                timing = response.server_timing()
                assert set(timing) >= {
                    "queue",
                    "coalesce",
                    "execute",
                    "stitch",
                    "total",
                }
                stage_sum = sum(
                    v for k, v in timing.items() if k != "total"
                )
                assert stage_sum == pytest.approx(
                    timing["total"], abs=0.002 * 4
                )
                # Server wall time is inside the client's measurement.
                assert timing["total"] <= client_ms

        asyncio.run(main())

    def test_errors_still_carry_request_id(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                response = await client.request(
                    "POST", "/v1/range", {"node": -1, "radius": 10.0}
                )
                assert response.status == 400
                assert response.request_id

        asyncio.run(main())


class TestStageHistograms:
    def test_stage_means_reconcile_with_served_request_time(
        self, updatable_index
    ):
        """``/metrics`` alone splits the served latency into its stages:
        the four stage-histogram means sum to the mean request time the
        server reported per request (``Server-Timing`` total)."""
        index = updatable_index  # fresh metrics registry per test
        target = int(index.dataset[0])

        async def one_client(server, offset):
            async with ServeClient(server.host, server.port) as client:
                totals = []
                for step in range(12):
                    node = QUERY_NODES[(offset + step) % len(QUERY_NODES)]
                    kind = step % 3
                    if kind == 0:
                        response = await client.range(node, 80.0)
                    elif kind == 1:
                        response = await client.knn(node, 3)
                    else:
                        response = await client.distance(node, target)
                    assert response.status == 200
                    totals.append(response.server_timing()["total"])
                return totals

        async def main():
            async with serving(index) as (server, client):
                per_client = await asyncio.gather(
                    *(one_client(server, offset) for offset in range(4))
                )
                scrape = await client.request("GET", "/metrics")
                return [t for totals in per_client for t in totals], scrape

        totals, scrape = asyncio.run(main())
        samples = parse_prometheus_text(scrape.text)
        stage_mean_ms = 0.0
        for stage in ("queue", "coalesce", "execute", "stitch"):
            metric = f"repro_serve_stage_{stage}_seconds"
            # One observation per /v1/ request; the scrape is not one.
            assert samples[f"{metric}_count"] == len(totals)
            stage_mean_ms += samples[f"{metric}_sum"] / len(totals) * 1e3
        served_mean_ms = sum(totals) / len(totals)
        assert stage_mean_ms == pytest.approx(served_mean_ms, rel=0.05)


class TestDebugSurfaces:
    def test_slow_log_ring_and_debug_endpoint(self, sig_index, tmp_path):
        path = tmp_path / "slow.jsonl"

        async def main():
            # Threshold ~0: every request is "slow", so the ring fills.
            async with serving(
                sig_index, slow_query_ms=1e-6, slow_query_log=str(path)
            ) as (server, client):
                response = await client.range(
                    42, 70.0
                )
                debug = await client.request("GET", "/v1/debug")
                assert debug.status == 200
                payload = debug.payload
                assert payload["slow_query_threshold_ms"] == 1e-6
                assert payload["slow_queries_recorded"] >= 1
                ids = [
                    r["request_id"] for r in payload["slow_queries"]
                ]
                assert response.request_id in ids
                record = next(
                    r
                    for r in payload["slow_queries"]
                    if r["request_id"] == response.request_id
                )
                assert record["path"] == "/v1/range"
                assert record["status"] == 200
                assert record["batch"]["pages_logical"] >= 0
                assert record["epoch"] == 0
                # The batch's spans are serialized for the slow record.
                assert record["spans"]
                assert all("name" in span for span in record["spans"])

        asyncio.run(main())
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        assert lines and all("request_id" in r for r in lines)

    def test_healthz_reports_epoch(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                health = await client.healthz()
                assert health.payload["epoch"] == 0

        asyncio.run(main())


class TestClientAndLoadStats:
    def test_client_latency_histogram_records(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                for node in QUERY_NODES[:3]:
                    await client.range(node, 50.0)
                assert client.latency.count == 3
                assert client.latency.p50 > 0.0

        asyncio.run(main())

    def test_loadstats_merge_sums_and_merges_latency(self):
        a, b = LoadStats(), LoadStats()
        a.sent, a.ok, a.shed = 10, 8, 2
        b.sent, b.ok, b.errors = 5, 4, 1
        a.status_counts[200] = 8
        b.status_counts[200] = 4
        b.status_counts[429] = 1
        for value in (0.01, 0.02, 0.03):
            a.latency.observe(value)
        for value in (0.04, 0.05):
            b.latency.observe(value)
        a.merge(b)
        assert (a.sent, a.ok, a.shed, a.errors) == (15, 12, 2, 1)
        assert a.status_counts == {200: 12, 429: 1}
        assert a.latency.count == 5
        assert a.latency.total == pytest.approx(0.15)


class TestTopDashboard:
    def _exposition(self, **counters):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for name, value in counters.items():
            registry.counter(name.replace("__", ".")).inc(value)
        return metrics_to_prometheus(registry)

    def test_parse_round_trips_labelled_counters(self):
        text = self._exposition(
            serve__requests=12, pages__logical__pool0=34
        )
        samples = parse_prometheus_text(text)
        assert samples["repro_serve_requests_total"] == 12
        assert samples["repro_pages_logical_pool0_total"] == 34

    def test_render_dashboard_rates(self):
        first = TopSnapshot(
            {
                "repro_serve_requests_total": 100.0,
                "repro_serve_batches_total": 10.0,
            },
            taken_at=10.0,
        )
        second = TopSnapshot(
            {
                "repro_serve_requests_total": 150.0,
                "repro_serve_batches_total": 50.0,
            },
            taken_at=12.0,
        )
        frame = render_dashboard(second, first, target="unit:0")
        assert "unit:0" in frame
        assert "requests/s      25.0" in frame
        assert "batches/s      20.0" in frame

    def test_first_frame_has_zero_rates(self):
        frame = render_dashboard(
            TopSnapshot({"repro_serve_requests_total": 5.0}), None
        )
        assert "requests/s       0.0" in frame

    def test_live_scrape_renders(self, sig_index):
        """One real scrape through ServeClient: the exposition parses
        and renders without a second snapshot."""

        async def main():
            async with serving(sig_index) as (server, client):
                await client.range(0, 40.0)
                text = await client.metrics_text()
                samples = parse_prometheus_text(text)
                assert samples["repro_serve_requests_total"] >= 1
                frame = render_dashboard(TopSnapshot(samples), None)
                assert "requests/s" in frame

        asyncio.run(main())
