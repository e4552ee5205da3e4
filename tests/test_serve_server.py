"""End-to-end tests of the asyncio query service.

Each test runs one real server on an ephemeral port inside
``asyncio.run`` and talks HTTP to it — no mocked transport.  The central
property: **served answers are bit-identical to direct
:class:`SignatureIndex` calls** unless flagged ``"approximate": true``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import pytest

from repro.core import KnnType
from repro.serve import QueryServer, ServeClient, ServeConfig

QUERY_NODES = [0, 17, 42, 128, 250, 299]


@contextlib.asynccontextmanager
async def serving(index, **overrides):
    """A started server (ephemeral port) + connected client, torn down."""
    config = ServeConfig(port=0).replace(**overrides)
    server = QueryServer(index, config)
    await server.start()
    client = ServeClient(server.host, server.port)
    try:
        yield server, client
    finally:
        await client.close()
        await server.shutdown()


class TestEquivalence:
    def test_range_matches_direct_calls(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                for node in QUERY_NODES:
                    for radius in (0.0, 60.0, 200.0):
                        response = await client.range(node, radius)
                        assert response.status == 200
                        assert response.payload["approximate"] is False
                        assert response.payload["objects"] == (
                            sig_index.range_query(node, radius)
                        )

        asyncio.run(main())

    def test_range_with_distances_matches(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                for node in QUERY_NODES:
                    response = await client.range(
                        node, 150.0, with_distances=True
                    )
                    assert response.status == 200
                    direct = sig_index.range_query(
                        node, 150.0, with_distances=True
                    )
                    assert response.payload["objects"] == [
                        [obj, dist] for obj, dist in direct
                    ]

        asyncio.run(main())

    def test_knn_matches_direct_calls(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                for node in QUERY_NODES:
                    for k in (1, 3, 8):
                        response = await client.knn(node, k)
                        assert response.status == 200
                        assert sorted(response.payload["objects"]) == sorted(
                            sig_index.knn(node, k)
                        )
                    exact = await client.knn(node, 4, with_distances=True)
                    direct = sig_index.knn(
                        node, 4, knn_type=KnnType.EXACT_DISTANCES
                    )
                    assert exact.payload["objects"] == [
                        [obj, dist] for obj, dist in direct
                    ]

        asyncio.run(main())

    def test_distance_and_aggregate_match(self, sig_index):
        objects = [int(obj) for obj in sig_index.dataset]

        async def main():
            async with serving(sig_index) as (server, client):
                for node in QUERY_NODES[:3]:
                    for obj in objects[:4]:
                        response = await client.distance(node, obj)
                        assert response.status == 200
                        assert response.payload["distance"] == (
                            pytest.approx(sig_index.distance(node, obj))
                        )
                    for aggregate in ("count", "min", "mean"):
                        response = await client.aggregate(
                            node, 180.0, aggregate
                        )
                        assert response.status == 200
                        assert response.payload["value"] == pytest.approx(
                            sig_index.aggregate_range(node, 180.0, aggregate)
                        )

        asyncio.run(main())


class TestCoalescing:
    def test_concurrent_requests_share_batches(self, updatable_index):
        index = updatable_index  # fresh metrics registry per test
        expected = {
            node: index.range_query(node, 100.0) for node in range(16)
        }

        async def main():
            async with serving(
                index, max_batch=16, max_wait_ms=50.0
            ) as (server, client):
                clients = [ServeClient(server.host, server.port) for _ in range(16)]
                try:
                    responses = await asyncio.gather(
                        *(c.range(node, 100.0) for node, c in enumerate(clients))
                    )
                finally:
                    for c in clients:
                        await c.close()
                for node, response in enumerate(responses):
                    assert response.status == 200
                    assert response.payload["objects"] == expected[node]

        asyncio.run(main())
        snapshot = index.metrics.snapshot()
        # 16 concurrent requests shared far fewer vectorized sweeps.
        assert snapshot["counters"]["serve.coalesced_requests"] == 16
        assert snapshot["counters"]["serve.batches"] <= 4
        assert snapshot["histograms"]["serve.batch_size"]["max"] >= 4


class TestDistanceCoalescing:
    """/v1/distance rides the coalescer; disconnected pairs keep their
    per-backend scalar semantics (signature: 400, hierarchy: null)."""

    @staticmethod
    def _two_component_network():
        from repro.network.graph import RoadNetwork

        net = RoadNetwork([(0, 0), (1, 0), (9, 9), (10, 9)])
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        return net

    def test_concurrent_distances_share_batches_and_match(
        self, updatable_index
    ):
        index = updatable_index  # fresh metrics registry per test
        objects = [int(obj) for obj in index.dataset]
        pairs = [(node, objects[node % len(objects)]) for node in range(16)]
        expected = [index.distance(node, obj) for node, obj in pairs]

        async def main():
            async with serving(
                index, max_batch=16, max_wait_ms=50.0
            ) as (server, client):
                clients = [
                    ServeClient(server.host, server.port) for _ in pairs
                ]
                try:
                    responses = await asyncio.gather(
                        *(
                            c.distance(node, obj)
                            for (node, obj), c in zip(pairs, clients)
                        )
                    )
                finally:
                    for c in clients:
                        await c.close()
                for want, response in zip(expected, responses):
                    assert response.status == 200
                    assert response.payload["distance"] == pytest.approx(want)

        asyncio.run(main())
        snapshot = index.metrics.snapshot()
        assert snapshot["counters"]["serve.coalesced_requests"] == 16
        assert snapshot["counters"]["serve.batches"] <= 4
        # count=len(pairs) per batch: all 16 pairs went through the
        # batch entry point, not 16 scalar calls.
        assert snapshot["counters"]["query.distance_batch.count"] == 16

    def test_hub_backend_batches_hit_the_label_kernel(
        self, small_net, small_objs
    ):
        from repro.backends.hub_labels import HubLabelIndex

        index = HubLabelIndex.build(small_net.copy(), small_objs)
        objects = [int(obj) for obj in index.dataset]
        pairs = [(node, objects[node % len(objects)]) for node in range(12)]
        expected = [index.distance(node, obj) for node, obj in pairs]

        async def main():
            async with serving(
                index, max_batch=12, max_wait_ms=50.0
            ) as (server, client):
                clients = [
                    ServeClient(server.host, server.port) for _ in pairs
                ]
                try:
                    responses = await asyncio.gather(
                        *(
                            c.distance(node, obj)
                            for (node, obj), c in zip(pairs, clients)
                        )
                    )
                finally:
                    for c in clients:
                        await c.close()
                for want, response in zip(expected, responses):
                    assert response.status == 200
                    assert response.payload["distance"] == pytest.approx(want)

        asyncio.run(main())
        snapshot = index.metrics.snapshot()
        assert snapshot["counters"]["query.distance_batch.kernel_pairs"] == 12
        assert "query.distance_batch.scalar_pairs" not in snapshot["counters"]

    def test_disconnected_pair_is_400_for_signature(self):
        from repro.core import SignatureIndex
        from repro.network.datasets import ObjectDataset

        index = SignatureIndex.build(
            self._two_component_network(), ObjectDataset([0]),
            backend="python",
        )

        async def main():
            async with serving(index) as (server, client):
                reachable = await client.distance(1, 0)
                assert reachable.status == 200
                assert reachable.payload["distance"] == pytest.approx(1.0)
                unreachable = await client.distance(2, 0)
                assert unreachable.status == 400
                assert "error" in unreachable.payload

        asyncio.run(main())

    def test_disconnected_pair_is_null_for_hub(self):
        from repro.backends.hub_labels import HubLabelIndex
        from repro.network.datasets import ObjectDataset

        index = HubLabelIndex.build(
            self._two_component_network(), ObjectDataset([0])
        )

        async def main():
            async with serving(index) as (server, client):
                reachable = await client.distance(1, 0)
                assert reachable.status == 200
                assert reachable.payload["distance"] == pytest.approx(1.0)
                unreachable = await client.distance(2, 0)
                assert unreachable.status == 200
                assert unreachable.payload["distance"] is None

        asyncio.run(main())


class TestValidation:
    def test_bad_requests_get_400(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                cases = [
                    ("/v1/range", {"radius": 10.0}),  # missing node
                    ("/v1/range", {"node": 0, "radius": -1.0}),
                    ("/v1/range", {"node": 10**6, "radius": 1.0}),
                    ("/v1/range", {"node": "zero", "radius": 1.0}),
                    ("/v1/knn", {"node": 0, "k": 0}),
                    ("/v1/knn", {"node": 0, "k": 2.5}),
                    ("/v1/aggregate", {"node": 0, "radius": 5.0,
                                       "aggregate": "median"}),
                    ("/v1/edges", {"op": "swap", "u": 0, "v": 1}),
                ]
                for path, payload in cases:
                    response = await client.request("POST", path, payload)
                    assert response.status == 400, (path, payload)
                    assert "error" in response.payload

        asyncio.run(main())

    def test_unknown_path_404_and_wrong_method_405(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                assert (
                    await client.request("POST", "/v1/nope", {})
                ).status == 404
                assert (
                    await client.request("PUT", "/v1/edges", {})
                ).status == 405

        asyncio.run(main())

    def test_get_with_query_string_params(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                response = await client.request(
                    "GET", "/v1/range?node=42&radius=150.0", None
                )
                assert response.status == 200
                assert response.payload["objects"] == (
                    sig_index.range_query(42, 150.0)
                )

        asyncio.run(main())


class TestOperations:
    def test_healthz_and_metrics(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                health = await client.healthz()
                assert health.status == 200
                assert health.payload["status"] == "ok"
                assert health.payload["nodes"] == 300
                assert health.payload["objects"] == len(sig_index.dataset)
                await client.range(0, 50.0)  # populate serve metrics
                text = await client.metrics_text()
                assert "repro_serve_batch_size" in text
                assert "repro_serve_shed_429_total" in text
                assert "repro_serve_requests_total" in text

        asyncio.run(main())

    def test_edge_update_then_query_reflects_it(self, updatable_index):
        index = updatable_index
        edge = next(iter(index.network.edges()))

        async def main():
            async with serving(index) as (server, client):
                before = await client.distance(edge.u, int(index.dataset[0]))
                response = await client.update_edge(
                    "set_weight", edge.u, edge.v, weight=edge.weight * 0.25
                )
                assert response.status == 200
                assert response.payload["op"] == "set_weight"
                assert "touched_nodes" in response.payload
                after = await client.distance(edge.u, int(index.dataset[0]))
                assert after.payload["distance"] == pytest.approx(
                    index.distance(edge.u, int(index.dataset[0]))
                )
                return before.status, after.status

        assert asyncio.run(main()) == (200, 200)

    def test_update_then_query_never_stale(self, small_net, small_objs):
        """Dijkstra-oracle stress: interleave edge updates and range
        queries over HTTP; every acknowledged update must be visible to
        every later query."""
        from repro.core import SignatureIndex
        from repro.network.dijkstra import shortest_path_tree

        network = small_net.copy()
        index = SignatureIndex.build(
            network, small_objs, backend="scipy", keep_trees=True
        )
        objects = list(small_objs)

        def oracle_range(node, radius):
            tree = shortest_path_tree(network, node)
            return sorted(
                obj for obj in objects if tree.distance[obj] <= radius
            )

        async def main():
            async with serving(index, max_wait_ms=0.5) as (server, client):
                edges = []
                for u in range(0, 30, 3):
                    for v, w in network.neighbors(u):
                        edges.append((u, v, w))
                        break
                for step, (u, v, w) in enumerate(edges):
                    response = await client.update_edge(
                        "set_weight", u, v, weight=w * (2.0 + step % 3)
                    )
                    assert response.status == 200
                    for node in (u, 42, 250):
                        served = await client.range(node, 45.0)
                        assert served.status == 200
                        assert sorted(served.payload["objects"]) == (
                            oracle_range(node, 45.0)
                        ), f"stale answer after update {step} at node {node}"

        asyncio.run(main())


class TestDegradedMode:
    def test_overloaded_server_answers_approximately(self, updatable_index):
        index = updatable_index

        async def main():
            async with serving(
                index,
                degrade_latency_ms=0.5,
                shed_latency_ms=10_000.0,
                ewma_alpha=0.001,  # the seeded EWMA barely moves
            ) as (server, client):
                server.admission.ewma_ms = 5.0  # simulate sustained load
                ranged = await client.range(7, 120.0)
                assert ranged.status == 200
                assert ranged.payload["approximate"] is True
                assert ranged.payload["objects"] == index.approximate_range(
                    7, 120.0
                )
                knned = await client.knn(7, 3)
                assert knned.status == 200
                assert knned.payload["approximate"] is True
                # /v1/distance has no approximate path: stays exact.
                dist = await client.distance(7, int(index.dataset[0]))
                assert dist.payload["approximate"] is False

        asyncio.run(main())

    def test_approximate_range_is_a_superset_heuristic(self, sig_index):
        """§3.2: category-only answers err only in the boundary category,
        so they contain every exactly-qualifying object."""
        for node in QUERY_NODES:
            exact = set(sig_index.range_query(node, 130.0))
            approx = set(sig_index.approximate_range(node, 130.0))
            assert exact <= approx


class TestShedding:
    def test_queue_full_sheds_429(self, updatable_index):
        index = updatable_index

        async def main():
            async with serving(
                index, max_pending=1, max_batch=64, max_wait_ms=300.0
            ) as (server, client):
                clients = [
                    ServeClient(server.host, server.port) for _ in range(6)
                ]
                try:
                    responses = await asyncio.gather(
                        *(c.range(node, 80.0) for node, c in enumerate(clients))
                    )
                finally:
                    for c in clients:
                        await c.close()
                return sorted(r.status for r in responses)

        statuses = asyncio.run(main())
        assert statuses.count(200) >= 1
        assert statuses.count(429) >= 1
        assert set(statuses) <= {200, 429}
        snapshot = index.metrics.snapshot()
        assert snapshot["counters"]["serve.shed.429"] >= 1

    def test_shed_responses_carry_retry_after(self, updatable_index):
        index = updatable_index

        async def main():
            async with serving(
                index, shed_latency_ms=1.0, ewma_alpha=0.001
            ) as (server, client):
                server.admission.ewma_ms = 50.0
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                body = json.dumps({"node": 0, "radius": 10.0}).encode()
                writer.write(
                    b"POST /v1/range HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Length: %d\r\n"
                    b"Content-Type: application/json\r\n\r\n%s"
                    % (len(body), body)
                )
                await writer.drain()
                status_line = await reader.readline()
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                writer.close()
                await writer.wait_closed()
                return status_line, headers

        status_line, headers = asyncio.run(main())
        assert b"503" in status_line
        assert headers.get("retry-after") == "1"

    def test_deadline_exceeded_returns_503(self, updatable_index):
        index = updatable_index

        async def main():
            # A writer holds the index: the request's batch waits at the
            # read gate far longer than the deadline allows.
            async with serving(
                index, deadline_ms=10.0, max_wait_ms=500.0, max_batch=64
            ) as (server, client):
                async with server.coordinator.write():
                    response = await client.range(0, 50.0)
                return response.status

        assert asyncio.run(main()) == 503
        snapshot = index.metrics.snapshot()
        assert snapshot["counters"]["serve.deadline_timeouts"] >= 1


class TestLifecycle:
    def test_graceful_shutdown_drains_buffered_requests(self, updatable_index):
        index = updatable_index

        async def main():
            config = ServeConfig(port=0).replace(
                max_batch=64, max_wait_ms=5_000.0
            )
            server = QueryServer(index, config)
            await server.start()
            # A writer holds the read gate, so a first request's batch
            # stays in flight and the next four buffer behind it.
            held, release = asyncio.Event(), asyncio.Event()

            async def hold_write_gate():
                async with server.coordinator.write():
                    held.set()
                    await release.wait()

            writer = asyncio.ensure_future(hold_write_gate())
            await held.wait()
            clients = [
                ServeClient(server.host, server.port) for _ in range(5)
            ]
            try:
                first = asyncio.ensure_future(clients[0].range(99, 90.0))
                await asyncio.sleep(0.05)  # its batch waits at the gate
                tasks = [
                    asyncio.ensure_future(c.range(node, 90.0))
                    for node, c in enumerate(clients[1:])
                ]
                await asyncio.sleep(0.1)  # requests are buffered, not served
                assert server.coalescer.pending == 4
                shutdown = asyncio.ensure_future(server.shutdown())
                # Shutdown must flush them, not drop them; only then
                # does the writer let the batches run.
                while server.coalescer.pending:
                    await asyncio.sleep(0.001)
                release.set()
                await writer
                await shutdown
                responses = await asyncio.gather(*tasks)
                assert (await first).status == 200
            finally:
                for c in clients:
                    await c.close()
            return [r.status for r in responses]

        assert asyncio.run(main()) == [200, 200, 200, 200]

    def test_idle_keepalive_client_does_not_stall_shutdown(self, sig_index):
        async def main():
            config = ServeConfig(port=0).replace(max_wait_ms=60_000.0)
            server = QueryServer(sig_index, config)
            await server.start()
            # Python >= 3.12.1: Server.wait_closed() waits for every
            # connection handler to return.  Emulate that here so the
            # test means the same on every interpreter.
            real_wait_closed = server._server.wait_closed

            async def wait_closed_like_312():
                while server._connections:
                    await asyncio.sleep(0.005)
                await real_wait_closed()

            server._server.wait_closed = wait_closed_like_312
            client = ServeClient(server.host, server.port)
            try:
                assert (await client.range(3, 20.0)).status == 200
                # The connection stays open and idle (keep-alive).
                assert server._connections
                loop = asyncio.get_running_loop()
                started = loop.time()
                await asyncio.wait_for(server.shutdown(), timeout=1.0)
                return loop.time() - started
            finally:
                await client.close()

        assert asyncio.run(main()) < 1.0

    def test_draining_server_refuses_new_work(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                server._draining = True
                response = await client.range(0, 10.0)
                assert response.status == 503
                assert response.payload["error"] == "draining"
                health = await client.healthz()
                assert health.status == 503
                assert health.payload["status"] == "draining"
                server._draining = False  # let teardown shut down cleanly

        asyncio.run(main())

    def test_keep_alive_reuses_one_connection(self, sig_index):
        async def main():
            async with serving(sig_index) as (server, client):
                await client.connect()
                first_writer = client._writer
                for node in (1, 2, 3):
                    response = await client.range(node, 40.0)
                    assert response.status == 200
                assert client._writer is first_writer

        asyncio.run(main())
