"""Read/write coordination: §5.4 updates vs in-flight query batches.

Queries only *read* index structures (they do mutate counters and
caches, which is why every query runs on one event loop — see the
"Concurrency" section of :class:`~repro.core.index.SignatureIndex`).
A write is two calls (:class:`~repro.core.changeset.Patch`):

* ``index.prepare_updates(changeset)`` reads the live index and writes
  only private state, so it runs on a writer thread beside the queries;
* ``patch.commit()`` publishes the write.  It runs on the event loop
  under the write side of the lock, so no query batch sees a half
  published write.  The hub-label index computes everything in the
  prepare and commits by swapping references, in O(changed edges); the
  signature and CH indexes only validate in the prepare and run their
  in-place §5.4 maintenance in the commit.

:class:`ReadWriteLock` is a write-preferring asyncio readers-writer
lock: any number of query batches share the read side; a commit takes
the write side alone, and once a writer is waiting, new readers queue
behind it so sustained query traffic cannot starve updates.

:class:`UpdateCoordinator` wraps an index with that lock and owns the
writer thread: batch dispatches run under :meth:`read`, ``POST
/v1/edges`` mutations go through :meth:`apply`.  A read observes the
index as of one commit — the coordinator's :attr:`epoch` while it holds
the read side — and never a prepare in flight.
"""

from __future__ import annotations

import asyncio
import contextlib
import ctypes
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import QueryError, ReproError
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.serve.admission import Rejected

__all__ = ["ReadWriteLock", "UpdateCoordinator"]


def _malloc_trim():
    """glibc's ``malloc_trim``, or ``None`` where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _prepare(index, changeset, trim):
    """The writer thread's job: prepare one write, then hand the heap
    the prepare freed back to the OS with ``trim`` (glibc keeps a
    thread's freed blocks in that thread's arena otherwise)."""
    try:
        return index.prepare_updates(changeset)
    finally:
        if trim is not None:
            trim(0)


class ReadWriteLock:
    """A write-preferring readers-writer lock for one event loop.

    ``async with lock.read():`` — shared; ``async with lock.write():`` —
    exclusive.  Writers are preferred: while any writer waits, newly
    arriving readers block, so a stream of overlapping reads cannot
    postpone a write forever.  Not reentrant.  Each reader's wait to
    enter lands on ``wait_histogram`` (zero when no writer held or
    awaited the lock).
    """

    def __init__(self, wait_histogram=None) -> None:
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._condition = asyncio.Condition()
        self._wait = (
            wait_histogram if wait_histogram is not None
            else NULL_REGISTRY.histogram("read_wait")
        )

    @contextlib.asynccontextmanager
    async def read(self):
        if self._writer_active or self._writers_waiting:
            start = time.perf_counter()
            async with self._condition:
                while self._writer_active or self._writers_waiting:
                    await self._condition.wait()
                self._readers += 1
            self._wait.observe(time.perf_counter() - start)
        else:
            # No writer holds or awaits the lock, and nothing can change
            # that before the increment (no await in between): enter
            # without taking the condition.
            self._readers += 1
            self._wait.observe(0.0)
        try:
            yield
        finally:
            self._readers -= 1
            if self._readers == 0 and self._writers_waiting:
                async with self._condition:
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
    :class:`~repro.core.changeset.ChangeSet` — under concurrent write
    pressure the index runs one maintenance pass (one §5.4 refresh, one
    hierarchy repair) for the whole batch instead of one per request.
    The flusher prepares the batch on the coordinator's writer thread,
    outside the read gate, then commits it on the event loop under the
    write lock and bumps the epoch there.  Writes that arrive meanwhile
    queue up for the next batch, so one write is in preparation at a
    time.  A batch whose deltas cannot coalesce (or fail validation
    together) degrades to one-at-a-time writes, so errors land on
    exactly the requests that caused them.

    :meth:`close` (called by the server's shutdown) waits for the batch
    in flight to commit, resolves every queued write, and joins the
    writer thread.
    """

    def __init__(
        self,
        index,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        from repro.backends import backend_of

        registry = registry if registry is not None else NULL_REGISTRY
        self.index = index
        self.lock = ReadWriteLock(
            registry.histogram("serve.read_gate_wait_seconds")
        )
        #: Monotonic update counter: each committed non-empty changeset
        #: bumps it once, under the write lock; failed and empty batches
        #: leave it unchanged.  ``ApplyResult.epoch`` and ``/healthz``
        #: report it, so a client can order its reads after its own
        #: acknowledged writes.
        self.epoch = 0
        self._pending: list[tuple[tuple, asyncio.Future]] = []
        self._flusher: asyncio.Task | None = None
        #: The writer thread, started by the first write, and the heap
        #: trim it runs after each prepare.
        self._writer: ThreadPoolExecutor | None = None
        self._trim = None
        self._closed = False
        self._metric_updates = registry.counter("serve.updates")
        self._metric_update_errors = registry.counter("serve.update_errors")
        self._metric_update_seconds = registry.histogram(
            "serve.update_seconds"
        )
        self._metric_batches = registry.counter("serve.update_batches")
        self._metric_batch_size = registry.histogram(
            "serve.update_batch_size"
        )
        # The exporter has no labels: the backend rides in the name.
        backend = backend_of(index)
        self._metric_prepare = registry.histogram(
            f"serve.update_apply_seconds.{backend}.prepare"
        )
        self._metric_commit = registry.histogram(
            f"serve.update_apply_seconds.{backend}.commit"
        )

    def read(self):
        """Shared-side context manager for query batches; the time spent
        waiting at the gate lands on ``serve.read_gate_wait_seconds``."""
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
        """Queue one edge mutation; resolves once its batch is committed.

        ``op`` is ``"add"``, ``"remove"``, or ``"set_weight"``; ``add``
        and ``set_weight`` require ``weight``.  Raises
        :class:`~repro.errors.QueryError` (→ HTTP 400) on a malformed
        request; index-level failures (unknown node, missing edge) raise
        :class:`~repro.errors.DatasetError`; after :meth:`close`,
        :class:`~repro.serve.admission.Rejected` (503).  Returns the
        :class:`~repro.core.changeset.ApplyResult` of the changeset the
        delta was applied in (shared by every delta of the batch), with
        ``epoch`` set to the post-commit epoch.
        """
        if self._closed:
            raise Rejected(503, "shutting down")
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

    async def close(self) -> None:
        """Stop taking writes, let the flusher commit what is queued or
        in flight, and join the writer thread."""
        self._closed = True
        if self._flusher is not None:
            await asyncio.wait([self._flusher])
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.shutdown(wait=True)

    async def _flush_pending(self) -> None:
        """Drain the queue: one changeset per prepare and commit.

        Everything that accumulated while the previous batch was being
        prepared or committed coalesces into the next one.
        """
        while self._pending:
            batch = self._pending
            self._pending = []
            try:
                await self._apply_batch(batch)
            except BaseException as exc:  # cancelled: resolve every waiter
                for _, future in batch + self._pending:
                    if not future.done():
                        future.set_exception(
                            exc if isinstance(exc, Exception)
                            else Rejected(503, "shutting down")
                        )
                self._pending = []
                raise

    async def _apply_batch(self, batch) -> None:
        """Prepare one queued batch off the loop, commit it under the
        write lock."""
        from repro.core.changeset import ApplyResult, ChangeSet

        items = [item for item, _ in batch]
        futures = [future for _, future in batch]
        if len(batch) > 1:
            self._metric_batches.inc()
            self._metric_batch_size.observe(len(batch))
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            changeset = ChangeSet.build(items)
            if changeset:
                if self._writer is None:
                    self._writer = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix="repro-writer"
                    )
                    self._trim = _malloc_trim()
                patch = await loop.run_in_executor(
                    self._writer, _prepare, self.index, changeset, self._trim
                )
                async with self.lock.write():
                    result = patch.commit()
                    self.epoch += 1
                    result.epoch = self.epoch
                self._metric_prepare.observe(patch.prepare_seconds)
                self._metric_commit.observe(patch.commit_seconds)
            else:
                # The batch coalesced to nothing (add then remove).
                result = ApplyResult(epoch=self.epoch)
        except ReproError as exc:
            if len(batch) > 1:
                # The combined batch was inconsistent or partly invalid;
                # re-apply one at a time so each error lands on the
                # request that caused it and valid deltas still land.
                for item, future in batch:
                    await self._apply_batch([(item, future)])
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
