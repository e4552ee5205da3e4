"""Serving configuration: one dataclass, every knob documented.

The defaults target the interactive regime the ROADMAP's north star
describes — many concurrent clients issuing single-node queries — where
group-commit batching (requests fill the next batch while the previous
sweep runs, tens of requests per sweep under load) buys an order of
magnitude of served throughput from the vectorized batch algorithms,
while a lone request dispatches at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import QueryError

__all__ = ["ServeConfig"]


@dataclass(slots=True)
class ServeConfig:
    """Knobs for :class:`repro.serve.QueryServer` and its components.

    Coalescing (:mod:`repro.serve.batching`):

    * ``max_batch`` — flush a bucket as soon as it holds this many
      requests (1 disables coalescing: every request dispatches alone);
    * ``max_wait_ms`` — the longest a request waits behind an in-flight
      batch of its kind; a lone request dispatches at once (``0``: a
      bucket behind an in-flight batch dispatches on the next turn).

    Admission control (:mod:`repro.serve.admission`):

    * ``max_pending`` — bound on admitted-but-unfinished requests;
      beyond it new requests are shed with HTTP 429;
    * ``deadline_ms`` — per-request deadline; a request that cannot
      complete in time is cancelled and answered 503;
    * ``shed_latency_ms`` — when the EWMA of served latency exceeds
      this, requests are shed with 503 before queueing (load shedding
      keeps latency bounded instead of letting the queue grow);
    * ``degrade_latency_ms`` — when the EWMA exceeds this (but not yet
      ``shed_latency_ms``), range/kNN answers switch to the §3.2
      category-only approximate path and carry ``"approximate": true``;
    * ``ewma_alpha`` — smoothing factor of the latency EWMA.

    Server:

    * ``host`` / ``port`` — listen address (port 0 picks an ephemeral
      port, reported by :meth:`QueryServer.start`);
    * ``drain_timeout_s`` — how long graceful shutdown waits for
      in-flight requests before closing connections anyway.

    Observability (:mod:`repro.serve.telemetry`):

    * ``slow_query_ms`` — requests whose wall time crosses this are
      captured (identity, stage breakdown, batch membership, page
      counts, span trees) into the ``/v1/debug`` ring; ``0``
      disables capture entirely;
    * ``slow_query_log`` — optional path; captured records are appended
      there as JSON lines (the format in ``docs/OBSERVABILITY.md``);
    * ``debug_ring`` — how many recent slow-query records ``/v1/debug``
      retains in memory.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_pending: int = 256
    deadline_ms: float = 1_000.0
    shed_latency_ms: float = 500.0
    degrade_latency_ms: float = 250.0
    ewma_alpha: float = 0.2
    drain_timeout_s: float = 5.0
    slow_query_ms: float = 250.0
    slow_query_log: str | None = None
    debug_ring: int = 64

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise QueryError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise QueryError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        if self.max_pending < 1:
            raise QueryError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        for name in ("deadline_ms", "shed_latency_ms", "degrade_latency_ms"):
            value = getattr(self, name)
            if value <= 0:
                raise QueryError(f"{name} must be > 0, got {value}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise QueryError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.slow_query_ms < 0:
            raise QueryError(
                f"slow_query_ms must be >= 0, got {self.slow_query_ms}"
            )
        if self.debug_ring < 1:
            raise QueryError(
                f"debug_ring must be >= 1, got {self.debug_ring}"
            )

    def replace(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (validation re-runs)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(changes)
        return ServeConfig(**values)
