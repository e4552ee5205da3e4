"""Group-commit request coalescer.

Concurrent clients each ask one question about one node; the vectorized
engine answers B questions in one ``(B, D)`` sweep for barely more
than the cost of one.  The coalescer is the adapter between the two
shapes: single-node requests that share *compatible parameters* (same
query kind, same radius / k / flags) land in one bucket, the bucket is
dispatched through ``range_query_batch`` / ``knn_batch`` /
``distance_batch``, and each caller gets exactly the slice of the
batched answer that is theirs.

Buckets dispatch by *group commit*, never by a fixed linger:

* a request that opens a bucket while no batch of its key is in flight
  dispatches on the next event-loop turn, together with every
  same-key request parsed in the current turn — a lone request does not
  wait for company;
* while a batch of that key is in flight (waiting for the gate,
  executing, or handing its results back), new requests fill the next
  bucket, which dispatches when the in-flight batch finishes, when it
  holds ``max_batch`` requests, or after ``max_wait_ms``, whichever
  comes first.

``max_wait_ms`` is therefore the longest a request waits behind an
in-flight batch of its kind; a lone request dispatches at once.

The dispatch callable runs synchronously on the event loop — see the
"Concurrency" section of :class:`~repro.core.index.SignatureIndex`: the
facade is single-thread-only, and running batches inline means queries
never interleave mid-sweep.  Fairness comes from the batching itself:
while one sweep runs, newly arriving requests accumulate into the next
bucket instead of queueing head-of-line.  A ``gate`` (the
:meth:`~repro.serve.coordinator.UpdateCoordinator.read` side of the
readers-writer lock) is acquired around each dispatch so §5.4 updates
never land mid-batch.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections.abc import Callable, Hashable, Sequence
from typing import Any

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

__all__ = ["BatchKey", "Coalescer"]

#: Event-loop turns a finished batch stays in flight after resolving its
#: futures.  The sweep runs synchronously, so requests that arrive while
#: it holds the loop wait in socket buffers: one turn hands their bytes
#: to the stream readers, the next runs the handlers that parse and
#: submit them.  Holding the batch in flight through both lets them fill
#: the bucket behind it instead of opening small fresh buckets (64
#: closed-loop clients, 6000-node demo index, 2-vCPU KVM guest: mean
#: batch 21 with one turn, 30 with two, 32 with three).  An idle loop
#: turns in microseconds.
_SETTLE_TURNS = 2


class BatchKey:
    """Identity of a coalescable request family.

    Two requests may share a batch iff their keys are equal: same
    ``kind`` (``"range"`` / ``"knn"`` / ``"distance"``) and same
    parameter tuple (radius and flags, or k; empty for distance, whose
    members are ``(node, object)`` pairs).  Hashable, so it indexes the
    coalescer's buckets.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[Hashable, ...]) -> None:
        self.kind = kind
        self.params = params

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BatchKey)
            and self.kind == other.kind
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.params))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchKey({self.kind!r}, {self.params!r})"


class _Bucket:
    """One in-formation batch: nodes, futures, contexts, its flush handle.

    ``contexts`` holds each member's
    :class:`~repro.serve.telemetry.RequestContext` (or ``None`` for
    callers that do not trace) aligned with ``nodes`` — a dispatched
    batch knows exactly which request identities it carries, and the
    dispatch callable can attach execution telemetry (pages, spans,
    epoch) back onto them.  ``flush_handle`` is the scheduled flush:
    next turn when no batch of the key is in flight, the ``max_wait_ms``
    cap when one is.
    """

    __slots__ = ("key", "nodes", "futures", "contexts", "flush_handle")

    def __init__(self, key: BatchKey) -> None:
        self.key = key
        self.nodes: list[int] = []
        self.futures: list[asyncio.Future] = []
        self.contexts: list = []
        self.flush_handle: asyncio.Handle | None = None

    @property
    def request_ids(self) -> list[str]:
        """Member request ids, in arrival order (untraced members skip)."""
        return [
            ctx.request_id for ctx in self.contexts if ctx is not None
        ]

    def attach_execution(self, **kwargs) -> None:
        """Fan batch-level execution telemetry onto every member context."""
        for ctx in self.contexts:
            if ctx is not None:
                ctx.attach_execution(**kwargs)


class Coalescer:
    """Group-commits single-node requests into parameter-compatible batches.

    ``dispatch(key, nodes, batch)`` must return a list aligned with
    ``nodes`` (exactly the contract of
    :meth:`~repro.core.index.SignatureIndex.range_query_batch`); ``batch``
    is the bucket being dispatched, onto which the callable may attach
    execution telemetry for the member requests.  It is invoked
    synchronously on the event loop, under ``gate()`` when one is
    provided, so §5.4 updates cannot land mid-batch; if it raises, every
    waiter of that batch receives the exception.

    A bucket whose key has no batch in flight dispatches on the next
    event-loop turn.  Behind an in-flight batch of the same key, a bucket
    fills until that batch finishes, ``max_batch`` requests join, or
    ``max_wait_ms`` passes — ``max_wait_ms`` is the longest a request
    waits behind an in-flight batch of its kind; a lone request
    dispatches at once.  With ``max_batch=1`` every request dispatches
    immediately — the uncoalesced baseline the serving benchmark
    compares against.
    """

    def __init__(
        self,
        dispatch: Callable[[BatchKey, Sequence[int], _Bucket], list],
        *,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        gate: Callable[[], Any] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._dispatch = dispatch
        self._gate = gate
        self.max_batch = max(int(max_batch), 1)
        self.max_wait = max(float(max_wait_ms), 0.0) / 1_000.0
        self._buckets: dict[BatchKey, _Bucket] = {}
        #: Dispatched, unfinished batches per key (gate wait included).
        self._running: dict[BatchKey, int] = {}
        self._inflight: set[asyncio.Task] = set()
        registry = registry if registry is not None else NULL_REGISTRY
        self.bind_metrics(registry)

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Point the coalescer's instruments at ``registry``."""
        self._metric_batches = registry.counter("serve.batches")
        self._metric_coalesced = registry.counter("serve.coalesced_requests")
        self._metric_batch_size = registry.histogram("serve.batch_size")

    # ------------------------------------------------------------------
    async def submit(self, key: BatchKey, node: int, ctx=None) -> Any:
        """Enqueue one request; resolves to this node's slice of the batch.

        ``ctx`` (optional) is the request's
        :class:`~repro.serve.telemetry.RequestContext`: its coalesce/
        execute stage marks are recorded as the bucket moves through its
        life, and batch membership (size + member request ids) is
        attached at dispatch.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(key)
        bucket.nodes.append(node)
        bucket.futures.append(future)
        bucket.contexts.append(ctx)
        if ctx is not None:
            ctx.mark_submit()
        if len(bucket.nodes) >= self.max_batch:
            self.flush(key)
        elif bucket.flush_handle is None:
            if key in self._running:
                bucket.flush_handle = loop.call_later(
                    self.max_wait, self.flush, key
                )
            else:
                bucket.flush_handle = loop.call_soon(self.flush, key)
        return await future

    def flush(self, key: BatchKey) -> None:
        """Start dispatching ``key``'s bucket now (no-op if empty)."""
        bucket = self._buckets.pop(key, None)
        if bucket is None:
            return
        if bucket.flush_handle is not None:
            bucket.flush_handle.cancel()
            bucket.flush_handle = None
        self._metric_batches.inc()
        self._metric_coalesced.inc(len(bucket.nodes))
        self._metric_batch_size.observe(len(bucket.nodes))
        self._running[key] = self._running.get(key, 0) + 1
        task = asyncio.ensure_future(self._run(bucket))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run(self, bucket: _Bucket) -> None:
        """Dispatch under the gate, resolve the futures, flush what queued."""
        try:
            await self._execute(bucket)
            for _ in range(_SETTLE_TURNS):
                await asyncio.sleep(0)
        finally:
            key = bucket.key
            running = self._running[key] - 1
            if running:
                self._running[key] = running
            else:
                del self._running[key]
            # Group commit: the bucket that filled behind this batch goes now.
            self.flush(key)

    async def _execute(self, bucket: _Bucket) -> None:
        """Acquire the gate, dispatch, and resolve the bucket's futures."""
        gate = self._gate() if self._gate is not None else contextlib.nullcontext()
        request_ids = bucket.request_ids
        for ctx in bucket.contexts:
            if ctx is not None:
                ctx.attach_batch(len(bucket.nodes), request_ids)
        try:
            async with gate:
                for ctx in bucket.contexts:
                    if ctx is not None:
                        ctx.mark_dispatch()
                results = self._dispatch(bucket.key, bucket.nodes, bucket)
            for ctx in bucket.contexts:
                if ctx is not None:
                    ctx.mark_execute()
            if len(results) != len(bucket.nodes):
                raise RuntimeError(
                    f"batch dispatch returned {len(results)} results for "
                    f"{len(bucket.nodes)} requests"
                )
        except BaseException as exc:
            for future in bucket.futures:
                if not future.done():
                    future.set_exception(exc)
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return
        for future, result in zip(bucket.futures, results):
            if not future.done():  # a waiter may have hit its deadline
                future.set_result(result)

    async def drain(self) -> None:
        """Dispatch every buffered bucket and wait for in-flight batches."""
        for key in list(self._buckets):
            self.flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    @property
    def pending(self) -> int:
        """Requests currently buffered and not yet dispatched."""
        return sum(len(b.nodes) for b in self._buckets.values())
