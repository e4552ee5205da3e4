"""repro.serve — the asyncio query service over a signature index.

The ROADMAP's north star is a system "serving heavy traffic from
millions of users"; this package is that serving layer, built on three
ideas:

* **coalescing** (:mod:`repro.serve.batching`) — concurrent single-node
  requests with compatible parameters transparently share one PR-1
  vectorized batch sweep, so independent clients amortize each other's
  work;
* **admission control** (:mod:`repro.serve.admission`) — bounded
  queueing, EWMA-latency load shedding (429/503), per-request deadlines,
  and a degraded mode that falls back to the paper's §3.2 category-only
  approximate answers (flagged ``"approximate": true``) under pressure;
* **update coordination** (:mod:`repro.serve.coordinator`) — a
  write-preferring asyncio readers-writer lock ordering §5.4 incremental
  updates against in-flight query batches, so queries never see a
  half-applied update.

Quickstart::

    import asyncio
    from repro import SignatureIndex, random_planar_network, uniform_dataset
    from repro.serve import QueryServer, ServeConfig

    network = random_planar_network(2_000, seed=7)
    index = SignatureIndex.build(
        network, uniform_dataset(network, density=0.01, seed=11),
        keep_trees=True,
    )
    asyncio.run(QueryServer(index, ServeConfig(port=8080)).serve_forever())

or from the shell: ``repro serve index_dir --port 8080`` and
``repro loadgen --port 8080 --clients 64 --duration 5``.  See
``docs/SERVING.md`` for the endpoint and knob reference.
"""

from repro.serve.admission import AdmissionController, Rejected
from repro.serve.batching import BatchKey, Coalescer
from repro.serve.client import ServeClient, ServeResponse, sync_client
from repro.serve.config import ServeConfig
from repro.serve.coordinator import ReadWriteLock, UpdateCoordinator
from repro.serve.loadgen import LoadStats, closed_loop, mixed_workload, open_loop
from repro.serve.server import QueryServer, run_server
from repro.serve.telemetry import RequestContext, SlowQueryLog, new_request_id
from repro.serve.top import render_dashboard, run_top

__all__ = [
    "AdmissionController",
    "BatchKey",
    "Coalescer",
    "LoadStats",
    "QueryServer",
    "ReadWriteLock",
    "Rejected",
    "RequestContext",
    "ServeClient",
    "ServeConfig",
    "ServeResponse",
    "SlowQueryLog",
    "UpdateCoordinator",
    "closed_loop",
    "mixed_workload",
    "new_request_id",
    "open_loop",
    "render_dashboard",
    "run_server",
    "run_top",
    "sync_client",
]
