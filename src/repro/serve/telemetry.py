"""Per-request identity, stage timing, and slow-query capture.

Coalescing dissolves requests into anonymous batches, and ``/metrics``
only reports totals, so neither says *who a request was* or *what it
cost*.  This module keeps both:

* :func:`new_request_id` / :class:`RequestContext` — every request gets
  an identity at HTTP ingress (client-supplied ``X-Request-Id`` wins)
  and a timestamp at each stage of its life.  The stage durations
  telescope — ``queue`` (ingress → admitted/submitted), ``coalesce``
  (buffered in a bucket), ``execute`` (engine time), ``stitch``
  (result assembly + response serialization) — so their sum equals the
  request's wall time by construction, and is rendered as a standard
  ``Server-Timing`` header clients and tests can read back.

* :class:`SlowQueryLog` — requests whose wall time exceeds a threshold
  are captured as JSON records (identity, stages, batch membership, page
  counts, span trees) into a bounded in-memory ring served by
  ``GET /v1/debug`` and, when configured, appended as JSON lines to a
  file for offline digestion.
"""

from __future__ import annotations

import itertools
import json
import logging
import secrets
import threading
from collections import deque
from time import perf_counter, time

logger = logging.getLogger("repro.serve.telemetry")

__all__ = [
    "new_request_id",
    "RequestContext",
    "SlowQueryLog",
]

#: The stages of a served request, in lifecycle order.  Their durations
#: partition the request's wall time (see :meth:`RequestContext.stages`).
STAGES = ("queue", "coalesce", "execute", "stitch")

_ID_PREFIX = secrets.token_hex(4)
_ID_SEQUENCE = itertools.count(1)


def new_request_id() -> str:
    """A process-unique request id: ``{8-hex-prefix}-{sequence}``.

    The random prefix distinguishes server restarts (and, later,
    replicas) in aggregated logs; the sequence makes ids cheap and
    ordered within one process.
    """
    return f"{_ID_PREFIX}-{next(_ID_SEQUENCE):06x}"


class RequestContext:
    """One served request's identity and life-cycle timestamps.

    Created at HTTP ingress and threaded through admission, the
    coalescer, and dispatch.  Absolute timestamps are recorded at stage
    boundaries (``perf_counter`` seconds); durations are derived, so the
    breakdown telescopes to the total by construction:

    ========== =====================================================
    ``queue``    ingress → submitted to the coalescer / gate acquired
    ``coalesce`` buffered in a bucket until its batch dispatches
    ``execute``  batch dispatch → results available
    ``stitch``   results available → response bytes written
    ========== =====================================================

    Stages a request never reaches (a shed request dies in ``queue``;
    non-coalesced endpoints have no ``coalesce``) contribute zero.
    """

    __slots__ = (
        "request_id",
        "path",
        "t_ingress",
        "t_submit",
        "t_dispatch",
        "t_execute",
        "t_done",
        "batch_size",
        "batch_request_ids",
        "pages_logical",
        "pages_physical",
        "tracer",
        "epoch",
    )

    def __init__(self, path: str, request_id: str | None = None) -> None:
        self.request_id = request_id or new_request_id()
        self.path = path
        self.t_ingress = perf_counter()
        self.t_submit: float | None = None
        self.t_dispatch: float | None = None
        self.t_execute: float | None = None
        self.t_done: float | None = None
        self.batch_size = 0
        self.batch_request_ids: list[str] = []
        self.pages_logical = 0
        self.pages_physical = 0
        self.tracer = None
        self.epoch: int | None = None

    # -- stage marks ---------------------------------------------------
    def mark_submit(self) -> None:
        """Admission passed / handed to the coalescer."""
        if self.t_submit is None:
            self.t_submit = perf_counter()

    def mark_dispatch(self) -> None:
        """The request's batch started executing."""
        if self.t_dispatch is None:
            self.t_dispatch = perf_counter()

    def mark_execute(self) -> None:
        """The batch's results are available."""
        if self.t_execute is None:
            self.t_execute = perf_counter()

    def mark_done(self) -> None:
        """The response is about to hit the wire (idempotent)."""
        if self.t_done is None:
            self.t_done = perf_counter()

    # -- derived views -------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        """Wall time from ingress to :meth:`mark_done` (or to now)."""
        end = self.t_done if self.t_done is not None else perf_counter()
        return end - self.t_ingress

    def stages(self) -> dict[str, float]:
        """Stage durations in seconds; they sum to :attr:`elapsed_s`.

        Derived from consecutive timestamp pairs, with missing marks
        collapsing their stage to zero — the last recorded timestamp
        absorbs the remainder into ``stitch`` so the telescoping-sum
        property survives partial lifecycles (shed requests, internal
        errors).
        """
        self.mark_done()
        t0 = self.t_ingress
        t_submit = self.t_submit if self.t_submit is not None else t0
        t_dispatch = (
            self.t_dispatch if self.t_dispatch is not None else t_submit
        )
        t_execute = (
            self.t_execute if self.t_execute is not None else t_dispatch
        )
        return {
            "queue": t_submit - t0,
            "coalesce": t_dispatch - t_submit,
            "execute": t_execute - t_dispatch,
            "stitch": self.t_done - t_execute,
        }

    def server_timing_header(self) -> str:
        """The stage breakdown as a ``Server-Timing`` header value.

        Standard syntax (``name;dur=<ms>``), one entry per stage plus a
        ``total`` entry, so a client can check the partition property
        without re-measuring: the stage durations sum to ``total``
        exactly (modulo the printed precision).
        """
        stages = self.stages()
        parts = [f"{name};dur={stages[name] * 1e3:.3f}" for name in STAGES]
        parts.append(f"total;dur={self.elapsed_s * 1e3:.3f}")
        return ", ".join(parts)

    def attach_batch(self, size: int, request_ids: list[str]) -> None:
        """Record which coalesced batch this request rode in."""
        self.batch_size = size
        self.batch_request_ids = request_ids

    def attach_execution(
        self,
        *,
        pages_logical: int = 0,
        pages_physical: int = 0,
        tracer=None,
        epoch: int | None = None,
    ) -> None:
        """Record what the request's batch cost and the epoch it saw.

        Page counts and spans are *batch-level* (the batch is the unit
        of execution; per-member attribution would be fiction) — the
        slow-query record says so explicitly via ``batch.size``.  The
        batch's :class:`~repro.obs.tracing.Tracer` is kept as is and
        serialized only by :meth:`to_record`, i.e. only for requests
        that turn out slow.
        """
        self.pages_logical = int(pages_logical)
        self.pages_physical = int(pages_physical)
        if tracer is not None:
            self.tracer = tracer
        if epoch is not None:
            self.epoch = epoch

    def to_record(self, *, status: int, params: dict | None = None) -> dict:
        """The slow-query-log / debug-endpoint JSON record."""
        stages = self.stages()
        record = {
            "request_id": self.request_id,
            "path": self.path,
            "status": status,
            "unix_ts": round(time(), 3),
            "elapsed_ms": round(self.elapsed_s * 1e3, 3),
            "stages_ms": {
                name: round(value * 1e3, 3) for name, value in stages.items()
            },
            "batch": {
                "size": self.batch_size,
                "request_ids": self.batch_request_ids,
                "pages_logical": self.pages_logical,
                "pages_physical": self.pages_physical,
            },
        }
        if params:
            record["params"] = params
        if self.epoch is not None:
            record["epoch"] = self.epoch
        spans = self.tracer.to_dicts() if self.tracer is not None else None
        if spans:
            record["spans"] = spans
        return record


class SlowQueryLog:
    """Bounded ring of slow-request records, optionally file-backed.

    ``threshold_ms`` gates capture (``<= 0`` disables).  Captured
    records go to an in-memory ring of ``capacity`` (served by
    ``GET /v1/debug``) and, when ``path`` is set, are appended as one
    JSON object per line — the format ``docs/OBSERVABILITY.md``
    documents.  File writes are line-buffered appends; a failing log
    file disables itself rather than failing requests.
    """

    def __init__(
        self,
        threshold_ms: float = 0.0,
        *,
        path: str | None = None,
        capacity: int = 64,
    ) -> None:
        self.threshold_ms = float(threshold_ms)
        self.path = path
        self.ring: deque[dict] = deque(maxlen=max(int(capacity), 1))
        self.recorded = 0
        self._handle = None
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.threshold_ms > 0

    def maybe_record(
        self, ctx: RequestContext, *, status: int, params: dict | None = None
    ) -> dict | None:
        """Capture ``ctx`` if it crossed the threshold; returns the record."""
        if not self.enabled:
            return None
        ctx.mark_done()
        if ctx.elapsed_s * 1e3 < self.threshold_ms:
            return None
        record = ctx.to_record(status=status, params=params)
        self.ring.append(record)
        self.recorded += 1
        if self.path is not None:
            self._append_line(record)
        return record

    def _append_line(self, record: dict) -> None:
        with self._lock:
            try:
                if self._handle is None:
                    self._handle = open(self.path, "a", buffering=1)
                self._handle.write(
                    json.dumps(record, separators=(",", ":")) + "\n"
                )
            except OSError:
                logger.exception(
                    "slow-query log %s failed; disabling file sink", self.path
                )
                self.path = None
                self._handle = None

    def recent(self) -> list[dict]:
        """The ring's records, oldest first."""
        return list(self.ring)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
