"""Worker-process side of multi-process serving.

The server process owns the authoritative index.  When
``ServeConfig.workers > 1`` it snapshots that index once in the
version-2 columnar format and forks a
:class:`~concurrent.futures.ProcessPoolExecutor` whose initializer calls
:func:`init_worker` on the snapshot directory.  Because v2 loading is
``np.memmap`` in copy-on-write mode, every worker maps the *same* bytes:
the signature matrix, links, and object distance table live once in the
kernel page cache no matter how many workers serve from them, and no
index is ever pickled across the process boundary.

Consistency with §5.4 live updates uses an epoch-stamped replay log.
The coordinator bumps ``epoch`` and appends ``(epoch, deltas)`` for
every applied changeset; every batch dispatched to the pool
carries the coordinator's current epoch plus the log tail, and
:func:`run_batch` replays any entries this worker has not yet applied
before answering.  Copy-on-write mapping makes the replay private: the
snapshot file on disk is never modified.  Ordering is inherited from the
readers-writer lock on the server — a batch's ``(epoch, log)`` pair is
captured under the read side, so it can never observe a half-applied
update.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.core.queries import KnnType

__all__ = [
    "init_worker",
    "warm",
    "run_batch",
]


def _collect_telemetry(index, epoch: int, page_snap, busy_s: float, tracer):
    """The per-batch telemetry payload returned alongside results.

    The cross-process half of the PR-2 observability layer: the worker's
    registry delta (:meth:`~repro.obs.metrics.MetricsRegistry.drain` —
    exact, so coordinator-side merges sum to single-process ground
    truth), the page-counter delta for this batch, the applied epoch
    (the coordinator's staleness signal), worker-side execution time,
    and the batch's compact span trees for slow-query capture.
    """
    delta = index.counter.delta(page_snap)
    return {
        "epoch": epoch,
        # Process identity: pool labels alias many processes under one
        # name, and log compaction needs the min acknowledged epoch over
        # *processes*, not labels (see TelemetryCollector).
        "pid": os.getpid(),
        "busy_s": busy_s,
        "metrics": index.metrics.drain(),
        "pages": {"logical": delta.logical, "physical": delta.physical},
        "spans": tracer.to_dicts(),
    }

#: Process-global worker state: the mmapped index and the epoch of the
#: last replayed update.  A pool initializer populates it once per
#: worker process.
_STATE: dict = {"index": None, "epoch": 0}


def init_worker(index_dir: str) -> None:
    """Pool initializer: mmap the snapshot at ``index_dir``.

    ``load_index`` dispatches on the snapshot's magic line, so workers
    come up with whatever backend the snapshot declares — signature v2
    or any ``repro.backends`` family.
    """
    from repro.core.persistence import load_index

    _STATE["index"] = load_index(index_dir)
    _STATE["epoch"] = 0


def warm() -> int:
    """Startup barrier: proves the initializer ran; returns the epoch."""
    if _STATE["index"] is None:
        raise RuntimeError("worker not initialized (init_worker did not run)")
    return _STATE["epoch"]


def _catch_up(index, epoch: int, log) -> None:
    """Replay update-log entries this worker has not applied yet.

    ``log`` holds ``(entry_epoch, deltas)`` entries sorted by epoch, each
    applied through the same ``apply_updates`` pipeline the coordinator
    used.  Entries at or below our applied epoch are skipped, entries
    beyond the batch's target epoch are ignored (they belong to updates
    that committed after this batch was gated).
    """
    applied = _STATE["epoch"]
    if applied >= epoch:
        return
    for entry_epoch, deltas in log:
        if entry_epoch <= applied or entry_epoch > epoch:
            continue
        index.apply_updates(deltas)
        applied = entry_epoch
    if applied < epoch:
        raise RuntimeError(
            f"worker cannot reach epoch {epoch} from {applied}: "
            f"update log was truncated"
        )
    _STATE["epoch"] = applied


def run_batch(epoch: int, log, kind: str, nodes, params) -> tuple:
    """Execute one coalesced batch at ``epoch`` in this worker process.

    Mirrors ``QueryServer._dispatch_batch``: ``kind`` is ``"range"``
    (params ``(radius, with_distances)``) or ``"knn"`` (params
    ``(k, with_distances)``).  Returns ``(results, telemetry)`` —
    ``results`` aligned with ``nodes``, ``telemetry`` the payload of
    :func:`_collect_telemetry` for coordinator-side folding.
    """
    index = _STATE["index"]
    if index is None:
        raise RuntimeError("worker not initialized (init_worker did not run)")
    _catch_up(index, epoch, log)
    page_snap = index.counter.snapshot()
    start = perf_counter()
    with index.trace() as tracer:
        if kind == "range":
            radius, with_distances = params
            results = index.range_query_batch(
                nodes, radius, with_distances=with_distances
            )
        else:
            k, with_distances = params
            knn_type = (
                KnnType.EXACT_DISTANCES if with_distances else KnnType.SET
            )
            results = index.knn_batch(nodes, k, knn_type=knn_type)
    busy = perf_counter() - start
    telemetry = _collect_telemetry(
        index, _STATE["epoch"], page_snap, busy, tracer
    )
    return results, telemetry

