"""Serving through writes: prepare off the event loop, commit by swap.

A write is ``prepare_updates`` (reads the live index, writes only
private state; the coordinator runs it on its writer thread) followed by
``Patch.commit`` (publishes, on the event loop, under the write lock).
These tests pin what that split promises:

* **Interleavings (hypothesis)** — random reads and ``set_weight`` /
  ``add`` / ``remove`` writes driven through the coordinator on a hub
  index: no acknowledged write is lost or reordered, and every read
  equals Dijkstra at an epoch between its send and its receipt.
* **A held prepare** — while a prepare is parked on a
  :class:`threading.Event`, served reads and ``GET /v1/edges`` complete
  with the pre-write answers and epoch.
* **Shutdown and failure** — SIGTERM mid-prepare resolves the write and
  joins the writer thread; a prepare that raises publishes nothing, and
  the next write starts from state that matches the published index.
* **The patch protocol** itself, on every implementation.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import build_backend
from repro.backends.hub_labels import HubLabelIndex, build_labels
from repro.core import SignatureIndex
from repro.core.changeset import ChangeSet, apply_changeset_to_network
from repro.errors import IndexError_
from repro.network import random_planar_network, uniform_dataset
from repro.network.dijkstra import shortest_path_tree
from repro.obs.metrics import MetricsRegistry
from repro.serve import QueryServer, ServeClient, ServeConfig
from repro.serve.coordinator import UpdateCoordinator

NUM_NODES = 60


def _world(seed: int = 5):
    network = random_planar_network(NUM_NODES, seed=seed)
    dataset = uniform_dataset(network, density=0.1, seed=seed)
    return network, dataset


def _hub(network, dataset, *, repair_threshold=1.0, registry=None):
    index = HubLabelIndex.build(network.copy(), dataset, metrics=registry)
    index.repair_threshold = repair_threshold
    return index


def _labels(index):
    return (index.label_indptr, index.label_hubs, index.label_dists)


def _assert_same_arrays(got, want):
    for got_array, want_array in zip(got, want):
        assert got_array.dtype == want_array.dtype
        assert np.array_equal(got_array, want_array)


def _assert_equals_fresh_build(index):
    """Labels, buckets and object table equal a fresh build on the
    network the index reports."""
    fresh = HubLabelIndex.build(index.network.copy(), index.dataset)
    _assert_same_arrays(_labels(index), _labels(fresh))
    buckets, fresh_buckets = index.buckets, fresh.buckets
    _assert_same_arrays(
        (buckets.indptr, buckets.ranks, buckets.dists),
        (fresh_buckets.indptr, fresh_buckets.ranks, fresh_buckets.dists),
    )
    assert np.array_equal(
        np.asarray(index.object_table.matrix_view()),
        np.asarray(fresh.object_table.matrix_view()),
    )


def _all_pair_distances(index):
    nodes = [node for node in range(NUM_NODES) for _ in index.dataset]
    objects = [obj for _ in range(NUM_NODES) for obj in index.dataset]
    return index.distance_batch(nodes, objects)


def _an_edge(network, pick=0):
    edges = sorted(
        (min(e.u, e.v), max(e.u, e.v), e.weight) for e in network.edges()
    )
    return edges[pick % len(edges)]


def _hold_prepare(index):
    """Park every prepare after it computed its patch, until released.

    Returns ``(entered, release, threads)``: ``entered`` is set once a
    prepare has finished its work and is waiting to hand the patch back,
    and ``threads`` collects the threads the prepares ran on.
    """
    entered, release = threading.Event(), threading.Event()
    threads = []
    real = index.prepare_updates

    def held(changeset):
        patch = real(changeset)
        threads.append(threading.current_thread())
        entered.set()
        if not release.wait(timeout=60):
            raise RuntimeError("the held prepare was never released")
        return patch

    index.prepare_updates = held
    return entered, release, threads


async def _wait_for(event: threading.Event, timeout: float = 30.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not event.is_set():
        assert loop.time() < deadline, "timed out waiting for the writer"
        await asyncio.sleep(0.002)


# ----------------------------------------------------------------------
# random interleavings through the coordinator
# ----------------------------------------------------------------------
def _plan_writes(network, draws):
    """Valid ``(op, u, v, weight)`` writes, in submission order.

    Each draw picks a write against the network as every earlier write
    of the plan leaves it; weights sit on a dyadic grid so sums stay
    exact and the Dijkstra comparison is bit for bit.
    """
    model = network.copy()
    writes = []
    for kind, seed in draws:
        rng = np.random.default_rng(seed)
        edges = sorted((min(e.u, e.v), max(e.u, e.v)) for e in model.edges())
        weight = float(rng.integers(1, 4096)) / 256.0
        if kind == "add":
            for _ in range(50):
                u, v = (int(x) for x in rng.integers(NUM_NODES, size=2))
                if u != v and not model.has_edge(u, v):
                    break
            else:
                continue
            write = ("add", u, v, weight)
        else:
            u, v = edges[int(rng.integers(len(edges)))]
            write = (
                ("remove", u, v, None) if kind == "remove"
                else ("set_weight", u, v, weight)
            )
        apply_changeset_to_network(model, ChangeSet.build([write]))
        writes.append(write)
    return writes


OPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "read", "set_weight", "add", "remove"]),
        st.integers(0, 2**20),
        st.integers(0, 3),
    ),
    min_size=2,
    max_size=14,
)


class TestInterleavings:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=OPS)
    def test_reads_see_one_epoch_and_writes_land_in_order(self, ops):
        network, dataset = _world()
        index = _hub(network, dataset)
        writes = iter(_plan_writes(
            network, [(kind, seed) for kind, seed, _ in ops if kind != "read"]
        ))
        acked = []   # (submission order, write, result)
        reads = []   # (epoch at send, epoch inside, epoch at receipt, ...)

        async def read(coordinator, seed):
            rng = np.random.default_rng(seed)
            nodes = [int(n) for n in rng.integers(NUM_NODES, size=4)]
            objects = [int(dataset[int(r)])
                       for r in rng.integers(len(dataset), size=4)]
            sent = coordinator.epoch
            await asyncio.sleep(0)
            async with coordinator.read():
                inside = coordinator.epoch
                got = index.distance_batch(nodes, objects)
            await asyncio.sleep(0)
            reads.append((sent, inside, coordinator.epoch, nodes, objects,
                          got))

        async def write(coordinator, order, op):
            result = await coordinator.apply(*op)
            acked.append((order, op, result))

        async def main():
            coordinator = UpdateCoordinator(index)
            tasks = []
            order = 0
            for kind, seed, gap in ops:
                if kind == "read":
                    tasks.append(asyncio.ensure_future(
                        read(coordinator, seed)))
                else:
                    op = next(writes, None)
                    if op is None:
                        continue
                    tasks.append(asyncio.ensure_future(
                        write(coordinator, order, op)))
                    order += 1
                # Gaps let the writer thread run between submissions, so
                # batches form and prepares overlap reads.
                for _ in range(gap):
                    await asyncio.sleep(0.002)
            await asyncio.gather(*tasks)
            await coordinator.close()
            return coordinator.epoch

        # A short switch interval makes the writer thread and the loop
        # interleave far more often than the default 5 ms.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            final_epoch = asyncio.run(asyncio.wait_for(main(), 120))
        finally:
            sys.setswitchinterval(interval)
        # Every write was acknowledged, and epochs follow submission
        # order: a later write never commits before an earlier one.
        acked.sort()
        epochs = [result.epoch for _, _, result in acked]
        assert epochs == sorted(epochs)
        assert all(1 <= epoch <= final_epoch for epoch in epochs)
        # The network at every epoch, from the acknowledgements alone.
        networks = [network.copy()]
        for epoch in range(1, final_epoch + 1):
            batch = [op for _, op, result in acked if result.epoch == epoch]
            assert batch, f"epoch {epoch} committed no acknowledged write"
            current = networks[-1].copy()
            apply_changeset_to_network(current, ChangeSet.build(batch))
            networks.append(current)
        final = networks[-1]
        assert sorted(index.network.edges(), key=lambda e: (e.u, e.v)) == (
            sorted(final.edges(), key=lambda e: (e.u, e.v))
        )
        for sent, inside, received, nodes, objects, got in reads:
            assert sent <= inside <= received
            trees = {obj: shortest_path_tree(networks[inside], obj)
                     for obj in set(objects)}
            want = [float(trees[obj].distance[node])
                    for node, obj in zip(nodes, objects)]
            assert got == want, f"read at epoch {inside} is torn"
        # After the last write the index equals a Dijkstra oracle.
        for obj in dataset:
            tree = shortest_path_tree(final, obj)
            for node in range(0, NUM_NODES, 3):
                assert index.distance(node, obj) == float(
                    tree.distance[node]
                )


# ----------------------------------------------------------------------
# a prepare held open
# ----------------------------------------------------------------------
class TestHeldPrepare:
    def test_reads_and_edge_samples_answer_the_pre_write_state(self):
        network, dataset = _world()
        index = _hub(network, dataset)
        u, v, weight = _an_edge(network, pick=7)
        obj = int(dataset[0])
        before = [index.distance(node, obj) for node in range(NUM_NODES)]
        range_before = index.range_query(u, 30.0, with_distances=True)
        entered, release, threads = _hold_prepare(index)

        async def main():
            server = QueryServer(index, ServeConfig(port=0))
            await server.start()
            writer = ServeClient(server.host, server.port)
            reader = ServeClient(server.host, server.port)
            try:
                write = asyncio.ensure_future(
                    writer.update_edge("set_weight", u, v, weight * 8)
                )
                await _wait_for(entered)
                # The writer has computed everything and holds its
                # patch; the event loop keeps serving the old epoch.
                for node in range(NUM_NODES):
                    response = await reader.distance(node, obj)
                    assert response.status == 200
                    assert response.payload["distance"] == before[node]
                response = await reader.range(u, 30.0, with_distances=True)
                assert response.payload["objects"] == [
                    [o, d] for o, d in range_before
                ]
                sample = await reader.request(
                    "GET", "/v1/edges", {"limit": 100000}
                )
                assert sample.status == 200
                assert sample.payload["epoch"] == 0
                assert [u, v, weight] in sample.payload["edges"]
                assert (await reader.healthz()).payload["epoch"] == 0
                assert not write.done()
                release.set()
                acked = await asyncio.wait_for(write, 30)
                assert acked.status == 200
                assert acked.payload["epoch"] == 1
                sample = await reader.request(
                    "GET", "/v1/edges", {"limit": 100000}
                )
                assert [u, v, weight * 8] in sample.payload["edges"]
            finally:
                release.set()
                await writer.close()
                await reader.close()
                await server.shutdown()

        asyncio.run(main())
        assert threads and threads[0] is not threading.main_thread()
        oracle = network.copy()
        oracle.set_edge_weight(u, v, weight * 8)
        tree = shortest_path_tree(oracle, obj)
        assert [index.distance(node, obj) for node in range(NUM_NODES)] == [
            float(d) for d in tree.distance
        ]


# ----------------------------------------------------------------------
# shutdown and failure
# ----------------------------------------------------------------------
class TestShutdownAndFailure:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGTERM") or os.name != "posix",
        reason="needs POSIX signals",
    )
    @pytest.mark.parametrize("repair_threshold", [0.0, 1.0],
                             ids=["rebuild", "repair"])
    def test_sigterm_mid_prepare_commits_and_joins_the_writer(
        self, repair_threshold
    ):
        network, dataset = _world()
        index = _hub(network, dataset, repair_threshold=repair_threshold)
        u, v, weight = _an_edge(network, pick=11)
        entered, release, threads = _hold_prepare(index)

        async def main():
            server = QueryServer(index, ServeConfig(port=0))
            serving = asyncio.ensure_future(server.serve_forever())
            while server._server is None:
                await asyncio.sleep(0.002)
            client = ServeClient(server.host, server.port)
            try:
                write = asyncio.ensure_future(
                    client.update_edge("set_weight", u, v, weight * 4)
                )
                await _wait_for(entered)
                os.kill(os.getpid(), signal.SIGTERM)
                # Shutdown must wait for the parked prepare, not abandon
                # it: release it only once the drain has begun.
                while not server._draining:
                    await asyncio.sleep(0.002)
                release.set()
                acked = await asyncio.wait_for(write, 30)
                await asyncio.wait_for(serving, 30)
            finally:
                release.set()
                await client.close()
            return acked

        acked = asyncio.run(main())
        assert acked.status == 200
        assert acked.payload["epoch"] == 1
        # The prepare ran on the coordinator's writer thread, which
        # shutdown joined.
        assert threads and not threads[0].is_alive()
        assert index.network.edge_weight(u, v) == weight * 4
        if repair_threshold == 0.0:
            _assert_equals_fresh_build(index)
        else:
            assert acked.payload["counters"].get("repaired") == 1
            _assert_same_arrays(_labels(index), build_labels(index.hierarchy))
            fresh = HubLabelIndex.build(index.network.copy(), dataset)
            assert _all_pair_distances(index) == _all_pair_distances(fresh)

    def test_a_prepare_that_raises_publishes_nothing(self):
        network, dataset = _world()
        index = _hub(network, dataset)
        u, v, weight = _an_edge(network, pick=3)
        obj = int(dataset[1])
        before = [index.distance(node, obj) for node in range(NUM_NODES)]
        labels_before = _labels(index)

        def broken(*args, **kwargs):
            raise RuntimeError("injected failure mid-prepare")

        # Fails after the hierarchy repair already ran: the writer's
        # state is ahead of the published labels from here on.
        index.hierarchy.patch_search_spaces = broken

        async def main():
            coordinator = UpdateCoordinator(index)
            with pytest.raises(RuntimeError, match="injected"):
                await coordinator.apply("set_weight", u, v, weight * 3)
            assert coordinator.epoch == 0
            async with coordinator.read():
                after = [index.distance(node, obj)
                         for node in range(NUM_NODES)]
            assert after == before
            assert all(
                got is want
                for got, want in zip(_labels(index), labels_before)
            )
            assert index.network.edge_weight(u, v) == weight
            # The next write rebuilds from the published state.
            x, y, w = _an_edge(index.network, pick=20)
            result = await coordinator.apply("set_weight", x, y, w * 2)
            await coordinator.close()
            return result

        result = asyncio.run(main())
        assert result.epoch == 1
        assert result.counters == {"rebuilt": 1}
        assert index.network.edge_weight(u, v) == weight
        _assert_equals_fresh_build(index)


# ----------------------------------------------------------------------
# the patch protocol
# ----------------------------------------------------------------------
def _implementations(network, dataset):
    return {
        "signature": SignatureIndex.build(
            network.copy(), dataset, keep_trees=True, query_engine="scalar"
        ),
        "columnar": SignatureIndex.build(
            network.copy(), dataset, keep_trees=True
        ),
        "ch": build_backend("ch", network.copy(), dataset),
        "hub": build_backend("hub", network.copy(), dataset),
    }


class TestPatchProtocol:
    @pytest.mark.parametrize("name", ["signature", "columnar", "ch", "hub"])
    def test_prepare_publishes_nothing_until_commit(self, name):
        network, dataset = _world()
        index = _implementations(network, dataset)[name]
        u, v, weight = _an_edge(network, pick=9)
        obj = int(dataset[0])
        before = [index.distance(node, obj) for node in range(NUM_NODES)]
        patch = index.prepare_updates([("set_weight", u, v, weight * 5)])
        assert index.network.edge_weight(u, v) == weight
        assert [index.distance(n, obj) for n in range(NUM_NODES)] == before
        result = patch.commit()
        assert result.applied == 1
        assert patch.prepare_seconds >= 0 and patch.commit_seconds >= 0
        assert index.network.edge_weight(u, v) == weight * 5
        with pytest.raises(IndexError_, match="already been committed"):
            patch.commit()

    @pytest.mark.parametrize("name", ["signature", "ch", "hub"])
    def test_a_patch_prepared_before_another_commit_is_stale(self, name):
        network, dataset = _world()
        index = _implementations(network, dataset)[name]
        (u, v, w), (x, y, z) = _an_edge(network, 1), _an_edge(network, 2)
        stale = index.prepare_updates([("set_weight", u, v, w * 2)])
        index.apply_updates([("set_weight", x, y, z * 2)])
        with pytest.raises(IndexError_, match="stale patch"):
            stale.commit()
        assert index.network.edge_weight(u, v) == w

    def test_a_dropped_hub_patch_makes_the_next_write_rebuild(self):
        network, dataset = _world()
        index = _hub(network, dataset)
        (u, v, w), (x, y, z) = _an_edge(network, 4), _an_edge(network, 5)
        index.prepare_updates([("set_weight", u, v, w * 2)])  # dropped
        result = index.apply_updates([("set_weight", x, y, z * 2)])
        assert result.counters == {"rebuilt": 1}
        assert index.network.edge_weight(u, v) == w
        _assert_equals_fresh_build(index)

    def test_threaded_prepare_equals_the_in_loop_path(self):
        """Labels, buckets and object table after every write are the
        same whether the prepare ran on a writer thread or inline."""
        network, dataset = _world(seed=9)
        inline_registry, served_registry = MetricsRegistry(), MetricsRegistry()
        inline = _hub(network, dataset, registry=inline_registry)
        served = _hub(network, dataset, registry=served_registry)
        rng = np.random.default_rng(3)
        writes = []
        for _ in range(6):
            u, v, w = _an_edge(network, int(rng.integers(1000)))
            writes.append(("set_weight", u, v,
                           float(rng.integers(1, 512)) / 32.0))

        async def main():
            coordinator = UpdateCoordinator(served)
            for op in writes:
                await coordinator.apply(*op)
                inline.apply_updates([op])
                _assert_same_arrays(_labels(served), _labels(inline))
                _assert_same_arrays(
                    (served.buckets.indptr, served.buckets.ranks,
                     served.buckets.dists),
                    (inline.buckets.indptr, inline.buckets.ranks,
                     inline.buckets.dists),
                )
                assert np.array_equal(
                    np.asarray(served.object_table.matrix_view()),
                    np.asarray(inline.object_table.matrix_view()),
                )
            await coordinator.close()

        asyncio.run(main())
        for name in ("repaired", "rebuilt", "damaged_nodes",
                     "relabeled_nodes", "join_entries"):
            counter = f"backend.hub.update.{name}"
            assert served_registry.counter(counter).value == (
                inline_registry.counter(counter).value
            ), counter
        assert served_registry.counter("backend.hub.update.repaired").value


class TestCoordinatorMetrics:
    def test_gate_wait_and_per_backend_apply_split(self):
        network, dataset = _world()
        registry = MetricsRegistry()
        index = _hub(network, dataset, registry=registry)
        u, v, weight = _an_edge(network, pick=6)

        async def main():
            coordinator = UpdateCoordinator(index, registry=registry)
            async with coordinator.read():
                pass
            await coordinator.apply("set_weight", u, v, weight * 2)
            await coordinator.close()

        asyncio.run(main())
        snapshot = registry.snapshot()["histograms"]
        assert snapshot["serve.read_gate_wait_seconds"]["count"] == 1
        for phase in ("prepare", "commit"):
            name = f"serve.update_apply_seconds.hub.{phase}"
            assert snapshot[name]["count"] == 1
