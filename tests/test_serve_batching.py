"""Unit tests for the micro-batching coalescer."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs import MetricsRegistry
from repro.serve import BatchKey, Coalescer


def run(coro):
    return asyncio.run(coro)


def make_coalescer(calls, **kwargs):
    """A coalescer whose dispatch doubles nodes and logs each batch."""

    def dispatch(key, nodes, batch):
        calls.append((key, list(nodes)))
        return [node * 2 for node in nodes]

    return Coalescer(dispatch, **kwargs)


class HeldGate:
    """A gate factory whose first entry blocks until :meth:`release`.

    Keeps the first batch in flight (dispatched, waiting for the gate)
    so the tests can submit behind it; later entries pass straight
    through.
    """

    def __init__(self):
        self.entries = 0
        self._released = asyncio.Event()

    def release(self):
        self._released.set()

    def __call__(self):
        return self

    async def __aenter__(self):
        self.entries += 1
        if self.entries == 1:
            await self._released.wait()

    async def __aexit__(self, *exc):
        return None


def test_batch_key_equality_and_hash():
    a = BatchKey("range", (50.0, False))
    b = BatchKey("range", (50.0, False))
    c = BatchKey("range", (60.0, False))
    d = BatchKey("knn", (50.0, False))
    assert a == b and hash(a) == hash(b)
    assert a != c and a != d and a != ("range", (50.0, False))


def test_flush_on_max_batch():
    calls = []

    async def main():
        coalescer = make_coalescer(calls, max_batch=3, max_wait_ms=10_000)
        key = BatchKey("range", (1.0, False))
        results = await asyncio.gather(
            *(coalescer.submit(key, n) for n in (1, 2, 3))
        )
        assert results == [2, 4, 6]

    run(main())
    # One batch, dispatched by size before its next-turn flush came due.
    assert calls == [(BatchKey("range", (1.0, False)), [1, 2, 3])]


def test_flush_on_linger_timer():
    """Behind an in-flight batch, ``max_wait_ms`` caps the wait."""
    calls = []

    async def main():
        gate = HeldGate()
        coalescer = make_coalescer(
            calls, max_batch=100, max_wait_ms=5.0, gate=gate
        )
        key = BatchKey("range", (1.0, False))
        first = asyncio.ensure_future(coalescer.submit(key, 1))
        await asyncio.sleep(0.01)  # first batch dispatched, held at the gate
        assert coalescer.pending == 0 and not first.done()
        # The in-flight batch never finishes on its own; the linger timer
        # must dispatch the request that queued behind it.
        result = await asyncio.wait_for(coalescer.submit(key, 7), timeout=2.0)
        assert result == 14
        assert not first.done()
        gate.release()
        assert await asyncio.wait_for(first, timeout=1.0) == 2

    run(main())
    assert calls == [
        (BatchKey("range", (1.0, False)), [7]),
        (BatchKey("range", (1.0, False)), [1]),
    ]


def test_lone_request_dispatches_without_waiting_out_the_linger():
    calls = []

    async def main():
        coalescer = make_coalescer(calls, max_batch=100, max_wait_ms=60_000)
        key = BatchKey("range", (1.0, False))
        result = await asyncio.wait_for(coalescer.submit(key, 7), timeout=1.0)
        assert result == 14

    run(main())
    assert calls == [(BatchKey("range", (1.0, False)), [7])]


def test_zero_max_wait_still_dispatches_a_lone_request():
    """``max_wait_ms=0`` with ``max_batch > 1`` must not strand a request."""
    calls = []

    async def main():
        coalescer = make_coalescer(calls, max_batch=64, max_wait_ms=0)
        key = BatchKey("knn", (3, False))
        lone = coalescer.submit(key, 5)
        assert await asyncio.wait_for(lone, timeout=1.0) == 10
        # And behind an in-flight batch, 0 means no wait either.
        gate = HeldGate()
        coalescer = make_coalescer(
            calls, max_batch=64, max_wait_ms=0, gate=gate
        )
        first = asyncio.ensure_future(coalescer.submit(key, 1))
        await asyncio.sleep(0.01)
        behind = coalescer.submit(key, 2)
        assert await asyncio.wait_for(behind, timeout=1.0) == 4
        gate.release()
        assert await asyncio.wait_for(first, timeout=1.0) == 2

    run(main())


def test_requests_behind_an_inflight_batch_coalesce_into_one_batch():
    calls = []

    async def main():
        gate = HeldGate()
        coalescer = make_coalescer(
            calls, max_batch=100, max_wait_ms=60_000, gate=gate
        )
        key = BatchKey("range", (1.0, False))
        first = asyncio.ensure_future(coalescer.submit(key, 1))
        await asyncio.sleep(0.01)  # the first batch is in flight
        behind = []
        for node in (2, 3, 4):
            behind.append(asyncio.ensure_future(coalescer.submit(key, node)))
            await asyncio.sleep(0.005)  # separate event-loop turns
        assert coalescer.pending == 3
        # Another key is not held back by this key's in-flight batch.
        other = BatchKey("knn", (2, False))
        unrelated = coalescer.submit(other, 9)
        assert await asyncio.wait_for(unrelated, timeout=1.0) == 18
        gate.release()
        # The in-flight batch finishing dispatches the filled bucket at
        # once, not after the 60 s cap.
        results = await asyncio.wait_for(
            asyncio.gather(first, *behind), timeout=1.0
        )
        assert results == [2, 4, 6, 8]

    run(main())
    assert [nodes for key, nodes in calls if key.kind == "range"] == [
        [1],
        [2, 3, 4],
    ]


def test_incompatible_keys_do_not_share_batches():
    calls = []

    async def main():
        coalescer = make_coalescer(calls, max_batch=2, max_wait_ms=10_000)
        near, far = BatchKey("range", (1.0, False)), BatchKey("range", (9.0, False))
        results = await asyncio.gather(
            coalescer.submit(near, 1),
            coalescer.submit(far, 2),
            coalescer.submit(near, 3),
            coalescer.submit(far, 4),
        )
        assert results == [2, 4, 6, 8]

    run(main())
    batches = {(key.params, tuple(nodes)) for key, nodes in calls}
    assert batches == {((1.0, False), (1, 3)), ((9.0, False), (2, 4))}


def test_max_batch_one_dispatches_immediately():
    calls = []

    async def main():
        coalescer = make_coalescer(calls, max_batch=1, max_wait_ms=10_000)
        key = BatchKey("knn", (5, False))
        assert await coalescer.submit(key, 3) == 6
        assert await coalescer.submit(key, 4) == 8

    run(main())
    assert [nodes for _, nodes in calls] == [[3], [4]]


def test_dispatch_error_propagates_to_every_waiter():
    def dispatch(key, nodes, batch):
        raise RuntimeError("boom")

    async def main():
        coalescer = Coalescer(dispatch, max_batch=2, max_wait_ms=10_000)
        key = BatchKey("range", (1.0, False))
        results = await asyncio.gather(
            coalescer.submit(key, 1),
            coalescer.submit(key, 2),
            return_exceptions=True,
        )
        assert all(isinstance(r, RuntimeError) for r in results)

    run(main())


def test_misaligned_dispatch_is_an_error():
    async def main():
        coalescer = Coalescer(
            lambda key, nodes, batch: [0], max_batch=2, max_wait_ms=10_000
        )
        key = BatchKey("range", (1.0, False))
        results = await asyncio.gather(
            coalescer.submit(key, 1),
            coalescer.submit(key, 2),
            return_exceptions=True,
        )
        assert all(isinstance(r, RuntimeError) for r in results)

    run(main())


def test_drain_flushes_buffered_requests():
    calls = []

    async def main():
        coalescer = make_coalescer(calls, max_batch=100, max_wait_ms=60_000)
        key = BatchKey("range", (1.0, False))
        tasks = [
            asyncio.ensure_future(coalescer.submit(key, n)) for n in (1, 2)
        ]
        await asyncio.sleep(0)  # let submits buffer
        assert coalescer.pending == 2
        await coalescer.drain()
        assert coalescer.pending == 0
        assert await asyncio.gather(*tasks) == [2, 4]

    run(main())


def test_gate_is_held_around_dispatch():
    events = []

    class Gate:
        async def __aenter__(self):
            events.append("enter")

        async def __aexit__(self, *exc):
            events.append("exit")

    def dispatch(key, nodes, batch):
        events.append("dispatch")
        return list(nodes)

    async def main():
        coalescer = Coalescer(
            dispatch, max_batch=1, max_wait_ms=0, gate=Gate
        )
        await coalescer.submit(BatchKey("range", (1.0, False)), 5)

    run(main())
    assert events == ["enter", "dispatch", "exit"]


def test_metrics_record_batch_sizes():
    registry = MetricsRegistry()
    calls = []

    async def main():
        coalescer = make_coalescer(
            calls, max_batch=2, max_wait_ms=10_000, registry=registry
        )
        key = BatchKey("range", (1.0, False))
        await asyncio.gather(
            coalescer.submit(key, 1), coalescer.submit(key, 2)
        )

    run(main())
    snapshot = registry.snapshot()
    assert snapshot["counters"]["serve.batches"] == 1
    assert snapshot["counters"]["serve.coalesced_requests"] == 2
    assert snapshot["histograms"]["serve.batch_size"]["max"] == 2.0


def test_deadline_abandoned_future_does_not_break_the_batch():
    async def main():
        def dispatch(key, nodes, batch):
            return [node * 2 for node in nodes]

        coalescer = Coalescer(dispatch, max_batch=2, max_wait_ms=10_000)
        key = BatchKey("range", (1.0, False))
        doomed = asyncio.ensure_future(coalescer.submit(key, 1))
        await asyncio.sleep(0)
        doomed.cancel()
        # The surviving waiter still gets its answer from the shared batch.
        assert await coalescer.submit(key, 2) == 4
        with pytest.raises(asyncio.CancelledError):
            await doomed

    run(main())
