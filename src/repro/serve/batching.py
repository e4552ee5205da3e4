"""Micro-batching request coalescer.

Concurrent clients each ask one question about one node; the vectorized
engine (PR 1) answers B questions in one ``(B, D)`` sweep for barely more
than the cost of one.  The coalescer is the adapter between the two
shapes: single-node requests that share *compatible parameters* (same
query kind, same radius / k / flags) land in one bucket, the bucket is
dispatched through ``range_query_batch`` / ``knn_batch`` /
``distance_batch`` when it fills
(``max_batch``) or after a short linger (``max_wait_ms``), and each
caller gets exactly the slice of the batched answer that is theirs.

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
import inspect
from collections.abc import Callable, Hashable, Sequence
from typing import Any

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

__all__ = ["BatchKey", "Coalescer"]


def _wants_batch(dispatch: Callable) -> bool:
    """Whether ``dispatch`` accepts the bucket as a third positional arg.

    The richer ``dispatch(key, nodes, batch)`` contract carries request
    identities and telemetry hooks; the classic two-argument form stays
    supported so engine-only dispatchers (and existing tests) need not
    care about serving telemetry.
    """
    try:
        parameters = inspect.signature(dispatch).parameters.values()
    except (TypeError, ValueError):  # builtins / C callables
        return False
    positional = 0
    for parameter in parameters:
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            return True
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
    return positional >= 3


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
    """One in-formation batch: nodes, futures, contexts, a linger timer.

    ``contexts`` holds each member's
    :class:`~repro.serve.telemetry.RequestContext` (or ``None`` for
    callers that do not trace) aligned with ``nodes`` — a dispatched
    batch knows exactly which request identities it carries, and the
    dispatch callable can attach execution telemetry (pages, spans,
    epoch) back onto them.
    """

    __slots__ = ("key", "nodes", "futures", "contexts", "timer")

    def __init__(self, key: BatchKey) -> None:
        self.key = key
        self.nodes: list[int] = []
        self.futures: list[asyncio.Future] = []
        self.contexts: list = []
        self.timer: asyncio.TimerHandle | None = None

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
    """Buffers single-node requests into parameter-compatible batches.

    ``dispatch(key, nodes)`` must return a list aligned with ``nodes``
    (exactly the contract of
    :meth:`~repro.core.index.SignatureIndex.range_query_batch`).  It is
    invoked synchronously on the event loop, under ``gate()`` when one is
    provided, so §5.4 updates cannot land mid-batch; if it raises, every
    waiter of that batch receives the exception.

    With ``max_batch=1`` every request dispatches immediately — the
    uncoalesced baseline the serving benchmark compares against.
    """

    def __init__(
        self,
        dispatch: Callable[[BatchKey, Sequence[int]], list],
        *,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        gate: Callable[[], Any] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._dispatch = dispatch
        self._dispatch_wants_batch = _wants_batch(dispatch)
        self._gate = gate
        self.max_batch = max(int(max_batch), 1)
        self.max_wait = max(float(max_wait_ms), 0.0) / 1_000.0
        self._buckets: dict[BatchKey, _Bucket] = {}
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
            if self.max_batch > 1 and self.max_wait > 0:
                bucket.timer = loop.call_later(
                    self.max_wait, self.flush, bucket.key
                )
        bucket.nodes.append(node)
        bucket.futures.append(future)
        bucket.contexts.append(ctx)
        if ctx is not None:
            ctx.mark_submit()
        if len(bucket.nodes) >= self.max_batch:
            self.flush(key)
        return await future

    def flush(self, key: BatchKey) -> None:
        """Start dispatching ``key``'s bucket now (no-op if empty)."""
        bucket = self._buckets.pop(key, None)
        if bucket is None:
            return
        if bucket.timer is not None:
            bucket.timer.cancel()
            bucket.timer = None
        self._metric_batches.inc()
        self._metric_coalesced.inc(len(bucket.nodes))
        self._metric_batch_size.observe(len(bucket.nodes))
        task = asyncio.ensure_future(self._run(bucket))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run(self, bucket: _Bucket) -> None:
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
                if self._dispatch_wants_batch:
                    results = self._dispatch(
                        bucket.key, bucket.nodes, bucket
                    )
                else:
                    results = self._dispatch(bucket.key, bucket.nodes)
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
