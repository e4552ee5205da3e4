"""Multi-process serving: worker pool, epoch replay, and consistency.

The worker pool must be invisible to clients: answers through 2 worker
processes mmapping one snapshot equal direct index calls, and a §5.4
update acknowledged by the primary is never followed by a stale answer
— workers replay the coordinator's epoch log before every batch.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.core import KnnType, SignatureIndex, save_index
from repro.errors import QueryError
from repro.network.dijkstra import shortest_path_tree
from repro.serve import QueryServer, ServeClient, ServeConfig
from repro.serve import workers as worker_mod

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


def test_workers_config_validated():
    with pytest.raises(QueryError):
        ServeConfig(workers=0)
    assert ServeConfig(workers=4).workers == 4


class TestWorkerModule:
    """The worker entry points, exercised in-process (no fork needed)."""

    def test_uninitialized_worker_refuses(self):
        worker_mod._STATE["index"] = None
        with pytest.raises(RuntimeError, match="not initialized"):
            worker_mod.run_batch(0, (), "range", [0], (10.0, False))
        with pytest.raises(RuntimeError, match="not initialized"):
            worker_mod.warm()

    def test_init_run_and_catch_up(self, tmp_path, small_net, small_objs):
        index = SignatureIndex.build(
            small_net.copy(), small_objs, backend="scipy", keep_trees=True
        )
        save_index(index, tmp_path / "snap")
        worker_mod.init_worker(str(tmp_path / "snap"))
        try:
            assert worker_mod.warm() == 0
            got, telemetry = worker_mod.run_batch(
                0, (), "range", QUERY_NODES, (30.0, False)
            )
            assert got == index.range_query_batch(QUERY_NODES, 30.0)
            assert telemetry["epoch"] == 0
            assert telemetry["pages"]["logical"] > 0
            assert telemetry["metrics"]["counters"]

            # An epoch the log can satisfy: replay then answer.
            v, w = index.network.neighbors(0)[0]
            deltas = (("set_weight", 0, v, w * 3.0),)
            index.apply_updates(deltas)
            log = ((1, deltas),)
            got, telemetry = worker_mod.run_batch(
                1, log, "range", QUERY_NODES, (30.0, False)
            )
            assert got == index.range_query_batch(QUERY_NODES, 30.0)
            assert worker_mod._STATE["epoch"] == 1
            assert telemetry["epoch"] == 1

            # Replay is idempotent: already-applied entries are skipped.
            got, _ = worker_mod.run_batch(
                1, log, "knn", QUERY_NODES, (3, False)
            )
            assert got == index.knn_batch(QUERY_NODES, 3)

            # An epoch beyond the log is a hard error, not a stale answer.
            with pytest.raises(RuntimeError, match="truncated"):
                worker_mod.run_batch(5, log, "range", [0], (30.0, False))
        finally:
            worker_mod._STATE["index"] = None
            worker_mod._STATE["epoch"] = 0


class TestMultiProcessServing:
    def test_answers_match_direct_calls(self, sig_index):
        async def main():
            async with serving(sig_index, workers=2) as (server, client):
                health = await client.healthz()
                assert health.payload["workers"] == 2
                for node in QUERY_NODES:
                    response = await client.range(node, 60.0)
                    assert response.status == 200
                    assert response.payload["objects"] == (
                        sig_index.range_query(node, 60.0)
                    )
                    response = await client.knn(
                        node, 3, with_distances=True
                    )
                    assert response.status == 200
                    assert response.payload["objects"] == [
                        [obj, dist]
                        for obj, dist in sig_index.knn(
                            node, 3, knn_type=KnnType.EXACT_DISTANCES
                        )
                    ]

        asyncio.run(main())

    def test_update_then_query_never_stale(self, small_net, small_objs):
        """Dijkstra-oracle stress: interleave edge updates and range
        queries against a 2-worker pool; every acknowledged update must
        be visible to every later query."""
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
            async with serving(
                index, workers=2, max_wait_ms=0.5
            ) as (server, client):
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

    def test_snapshot_dir_knob(self, sig_index, tmp_path):
        async def main():
            snapshot = tmp_path / "serve-snapshot"
            async with serving(
                sig_index, workers=2, snapshot_dir=str(snapshot)
            ) as (server, client):
                assert (snapshot / "meta.txt").exists()
                assert (snapshot / "columnar").is_dir()
                response = await client.range(17, 60.0)
                assert response.status == 200

        asyncio.run(main())

    def test_concurrent_clients_coalesce_through_pool(self, sig_index):
        async def main():
            async with serving(
                sig_index, workers=2, max_wait_ms=2.0
            ) as (server, client):
                clients = [
                    ServeClient(server.host, server.port) for _ in range(8)
                ]
                try:
                    responses = await asyncio.gather(
                        *(
                            c.range(node, 60.0)
                            for c, node in zip(
                                clients, [0, 5, 17, 42, 99, 128, 250, 299]
                            )
                        )
                    )
                finally:
                    for c in clients:
                        await c.close()
                for node, response in zip(
                    [0, 5, 17, 42, 99, 128, 250, 299], responses
                ):
                    assert response.status == 200
                    assert response.payload["objects"] == (
                        sig_index.range_query(node, 60.0)
                    )

        asyncio.run(main())
