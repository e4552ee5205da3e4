"""Read/write coordination: §5.4 updates vs in-flight query batches.

Queries only *read* index structures (they do mutate counters and
caches, which is why everything runs on one event loop — see the
"Concurrency" section of :class:`~repro.core.index.SignatureIndex`), but
§5.4 incremental updates rewrite signature rows, spanning trees, and the
paged layout non-atomically.  A query batch that interleaved with an
update could see half-propagated categories — a torn read.

:class:`ReadWriteLock` is a write-preferring asyncio readers-writer
lock: any number of query batches share the read side; an update takes
the write side alone, and once a writer is waiting, new readers queue
behind it so sustained query traffic cannot starve updates.

:class:`UpdateCoordinator` wraps an index with that lock: batch
dispatches run under :meth:`read`, ``POST /v1/edges`` mutations run
under :meth:`write` via :meth:`apply`.  There is no derived row state
to go stale: block reads come straight off the index's columnar store,
which shares memory with the tables the §5.4 machinery rewrites
(asserted by the interleaving stress test in
``tests/test_serve_coordinator.py``); the coordinator's job is
ordering.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.errors import QueryError, ReproError
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

__all__ = ["ReadWriteLock", "UpdateCoordinator"]


class ReadWriteLock:
    """A write-preferring readers-writer lock for one event loop.

    ``async with lock.read():`` — shared; ``async with lock.write():`` —
    exclusive.  Writers are preferred: while any writer waits, newly
    arriving readers block, so a stream of overlapping reads cannot
    postpone a write forever.  Not reentrant.
    """

    def __init__(self) -> None:
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._condition = asyncio.Condition()

    @contextlib.asynccontextmanager
    async def read(self):
        async with self._condition:
            while self._writer_active or self._writers_waiting:
                await self._condition.wait()
            self._readers += 1
        try:
            yield
        finally:
            async with self._condition:
                self._readers -= 1
                if self._readers == 0:
                    self._condition.notify_all()

    @contextlib.asynccontextmanager
    async def write(self):
        async with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    await self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            async with self._condition:
                self._writer_active = False
                self._condition.notify_all()

    @property
    def readers(self) -> int:
        """Readers currently inside the lock (introspection / tests)."""
        return self._readers

    @property
    def write_locked(self) -> bool:
        """Whether a writer currently holds the lock."""
        return self._writer_active


#: ``POST /v1/edges`` operations → the facade methods they call.
_EDGE_OPS = ("add", "remove", "set_weight")


class UpdateCoordinator:
    """Serializes index mutations against in-flight query batches.

    One instance per served index.  Query dispatch paths enter
    :meth:`read`; :meth:`apply` queues a §5.4 edge mutation and returns
    its :class:`~repro.core.changeset.ApplyResult`.

    Writes are *batched*: every ``apply`` call enqueues its delta, and a
    flusher coalesces everything queued into one
    :class:`~repro.core.changeset.ChangeSet` applied under a single
    write-lock acquisition — under concurrent write pressure the index
    runs one maintenance pass (one §5.4 refresh, one hierarchy
    repair) for the whole batch instead of one per request.  A batch
    whose deltas cannot coalesce (or fail validation together) degrades
    to one-at-a-time applies, so errors land on exactly the requests
    that caused them.
    """

    def __init__(
        self,
        index,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.index = index
        self.lock = ReadWriteLock()
        #: Monotonic update counter: each applied non-empty changeset
        #: bumps it once; failed and empty batches leave it unchanged.
        #: ``ApplyResult.epoch`` and ``/healthz`` report it, so a client
        #: can order its reads after its own acknowledged writes.
        self.epoch = 0
        self._pending: list[tuple[tuple, asyncio.Future]] = []
        self._flusher: asyncio.Task | None = None
        registry = registry if registry is not None else NULL_REGISTRY
        self._metric_updates = registry.counter("serve.updates")
        self._metric_update_errors = registry.counter("serve.update_errors")
        self._metric_update_seconds = registry.histogram(
            "serve.update_seconds"
        )
        self._metric_batches = registry.counter("serve.update_batches")
        self._metric_batch_size = registry.histogram(
            "serve.update_batch_size"
        )

    def read(self):
        """Shared-side context manager for query batches."""
        return self.lock.read()

    def write(self):
        """Exclusive-side context manager for arbitrary index mutation."""
        return self.lock.write()

    @property
    def pending_updates(self) -> int:
        """Deltas queued but not yet applied (introspection / tests)."""
        return len(self._pending)

    async def apply(
        self, op: str, u: int, v: int, weight: float | None = None
    ):
        """Queue one edge mutation; resolves once its batch is applied.

        ``op`` is ``"add"``, ``"remove"``, or ``"set_weight"``; ``add``
        and ``set_weight`` require ``weight``.  Raises
        :class:`~repro.errors.QueryError` (→ HTTP 400) on a malformed
        request; index-level failures (unknown node, missing edge) raise
        :class:`~repro.errors.DatasetError`.  Returns the
        :class:`~repro.core.changeset.ApplyResult` of the changeset the
        delta was applied in (shared by every delta of the batch), with
        ``epoch`` set to the post-apply epoch.
        """
        if op not in _EDGE_OPS:
            raise QueryError(
                f"unknown edge operation {op!r}; pick one of {_EDGE_OPS}"
            )
        if op in ("add", "set_weight"):
            if weight is None:
                raise QueryError(f"edge operation {op!r} requires a weight")
            weight = float(weight)
            if weight <= 0:
                raise QueryError(f"edge weight must be > 0, got {weight}")
        u, v = int(u), int(v)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append(((op, u, v, weight), future))
        if self._flusher is None or self._flusher.done():
            self._flusher = loop.create_task(self._flush_pending())
        return await future

    async def _flush_pending(self) -> None:
        """Drain the queue: one changeset per write-lock acquisition.

        Everything that accumulated while the previous batch held the
        write lock coalesces into the next one.
        """
        loop = asyncio.get_running_loop()
        while self._pending:
            batch = self._pending
            self._pending = []
            async with self.lock.write():
                self._apply_batch(batch, loop)

    def _apply_batch(self, batch, loop) -> None:
        """Apply one queued batch (write lock held by the caller)."""
        from repro.core.changeset import ApplyResult, ChangeSet

        items = [item for item, _ in batch]
        futures = [future for _, future in batch]
        if len(batch) > 1:
            self._metric_batches.inc()
            self._metric_batch_size.observe(len(batch))
        start = loop.time()
        try:
            changeset = ChangeSet.build(items)
            if changeset:
                result = self.index.apply_updates(changeset)
            else:
                # The batch coalesced to nothing (add then remove).
                result = ApplyResult()
        except ReproError as exc:
            if len(batch) > 1:
                # The combined batch was inconsistent or partly invalid;
                # re-apply one at a time so each error lands on the
                # request that caused it and valid deltas still land.
                for item, future in batch:
                    self._apply_batch([(item, future)], loop)
            else:
                self._metric_update_errors.inc()
                if not futures[0].done():
                    futures[0].set_exception(exc)
            return
        except Exception as exc:  # defensive: never leave futures hanging
            self._metric_update_errors.inc()
            for future in futures:
                if not future.done():
                    future.set_exception(exc)
            return
        self._metric_updates.inc(len(batch))
        self._metric_update_seconds.observe(loop.time() - start)
        if changeset:
            self.epoch += 1
        result.epoch = self.epoch
        for future in futures:
            if not future.done():
                future.set_result(result)

    async def refresh_storage(self) -> None:
        """Re-pack the paged files under the write lock.

        Re-packing re-derives the index's columnar store views, so it
        must not interleave with a query batch.
        """
        async with self.lock.write():
            self.index.refresh_storage()
