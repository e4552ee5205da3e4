"""The asyncio JSON-over-HTTP query service.

Pure stdlib: ``asyncio.start_server`` plus a minimal HTTP/1.1
request/response implementation (keep-alive, Content-Length framing — the
subset a JSON API and a load generator need).  One process serves one
index; every query runs on one event loop, which is what makes inline
index calls safe (see the facade's "Concurrency" section) and request
coalescing effective.  Only a write's prepare runs elsewhere, on the
update coordinator's writer thread (:mod:`repro.serve.coordinator`).

Endpoints (GET with query-string parameters or POST with a JSON body;
the body wins where both supply a key):

======================  ====================================================
``GET/POST /v1/range``      ``node, radius, with_distances?`` → objects
``GET/POST /v1/knn``        ``node, k, with_distances?`` → objects
``GET/POST /v1/distance``   ``node, object`` → exact network distance
``GET/POST /v1/aggregate``  ``node, radius, aggregate?`` → scalar
``POST /v1/edges``          ``op(add|remove|set_weight), u, v, weight?``
``GET /healthz``            liveness + admission state + update epoch
``GET /metrics``            Prometheus text exposition (PR-2 exporter)
``GET /v1/debug``           recent slow queries + queue depths
======================  ====================================================

Every query answer carries ``"approximate"``: ``false`` on the exact
path, ``true`` when admission control degraded the request to the §3.2
category-only answer, and ``"request_id"`` — the identity assigned at
ingress (or supplied by the client via ``X-Request-Id``), echoed in the
``X-Request-Id`` response header next to a ``Server-Timing`` header
whose ``queue``/``coalesce``/``execute``/``stitch`` durations partition
the request's wall time.  Shed requests get 429 (queue full) or 503
(overload / deadline) with a ``Retry-After`` header.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import signal
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from repro.core.queries import KnnType
from repro.errors import ReproError
from repro.obs.export import metrics_to_prometheus
from repro.serve.admission import AdmissionController, Rejected, deadline_scope
from repro.serve.batching import BatchKey, Coalescer
from repro.serve.config import ServeConfig
from repro.serve.coordinator import UpdateCoordinator
from repro.serve.telemetry import STAGES, RequestContext, SlowQueryLog

logger = logging.getLogger("repro.serve")

__all__ = ["QueryServer", "run_server"]

#: Largest accepted request body; a query is a handful of scalars.
_MAX_BODY = 1 << 20


# ----------------------------------------------------------------------
# parameter extraction
# ----------------------------------------------------------------------
class _BadRequest(Exception):
    """Maps to HTTP 400 with its message."""


def _require(params: dict, name: str):
    try:
        return params[name]
    except KeyError:
        raise _BadRequest(f"missing required parameter {name!r}") from None


def _as_int(value, name: str) -> int:
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, float) and value != int(value):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise _BadRequest(f"parameter {name!r} must be an integer") from None


def _as_float(value, name: str) -> float:
    try:
        if isinstance(value, bool):
            raise ValueError
        result = float(value)
    except (TypeError, ValueError):
        raise _BadRequest(f"parameter {name!r} must be a number") from None
    if math.isnan(result):
        raise _BadRequest(f"parameter {name!r} must not be NaN")
    return result


def _as_bool(value, name: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "1", "yes"):
        return True
    if isinstance(value, str) and value.lower() in ("false", "0", "no"):
        return False
    raise _BadRequest(f"parameter {name!r} must be a boolean")


def _json_safe(value: float):
    """JSON has no inf/nan: unreachable distances serialize as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class QueryServer:
    """One served index: HTTP front end, coalescer, admission, updates.

    Lifecycle::

        server = QueryServer(index, ServeConfig(port=0))
        await server.start()          # server.port now holds the real port
        ...
        await server.shutdown()       # graceful: drains in-flight requests

    or, blocking until SIGTERM/SIGINT: ``await server.serve_forever()``.
    """

    def __init__(self, index, config: ServeConfig | None = None) -> None:
        self.index = index
        self.config = config or ServeConfig()
        registry = index.metrics
        self.admission = AdmissionController(self.config, registry=registry)
        self.coordinator = UpdateCoordinator(index, registry=registry)
        self.coalescer = Coalescer(
            self._dispatch_batch,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            gate=self.coordinator.read,
            registry=registry,
        )
        self.slow_log = SlowQueryLog(
            self.config.slow_query_ms,
            path=self.config.slow_query_log,
            capacity=self.config.debug_ring,
        )
        self._metric_requests = registry.counter("serve.requests")
        self._metric_errors = registry.counter("serve.errors")
        # Aggregate Server-Timing: one observation per stage per /v1/
        # request, so /metrics splits the served latency into layers.
        self._metric_stages = [
            (name, registry.histogram(f"serve.stage.{name}_seconds"))
            for name in STAGES
        ]
        self._registry = registry
        from repro.backends import backend_of

        # Build-info gauge: the exporter has no labels, so the backend
        # name rides in the metric name (repro_serve_build_info_backend_*).
        self.backend = backend_of(index)
        registry.gauge(f"serve.build_info.backend.{self.backend}").set(1)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        # Connections waiting for their next request (keep-alive idle).
        self._idle: set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._draining = False
        self._stopped = asyncio.Event()
        self.host = self.config.host
        self.port = self.config.port

    # -- batched dispatch ----------------------------------------------
    def _dispatch_batch(self, key: BatchKey, nodes, batch) -> list:
        """Run one coalesced batch through the index's batch entry points.

        Called by the coalescer on the event loop, under the
        coordinator's read gate.  ``batch`` (the coalescer's bucket)
        gets execution telemetry attached — page counts and the batch's
        tracer — for the member requests' slow-query records.  Tracing
        is scoped to the batch only when slow-query capture is on, and
        the spans are serialized only for members that cross the
        threshold; the page-counter snapshot pair is two integer reads,
        cheap enough to take unconditionally.
        """
        index = self.index
        snap = index.counter.snapshot()
        trace_cm = index.trace() if self.slow_log.enabled else None
        tracer = trace_cm.__enter__() if trace_cm is not None else None
        try:
            if key.kind == "range":
                radius, with_distances = key.params
                results = index.range_query_batch(
                    nodes, radius, with_distances=with_distances
                )
            elif key.kind == "distance":
                # Batch members are (node, object_node) pairs; the
                # batch contract maps disconnected pairs to inf, so one
                # unreachable pair cannot fail the whole batch.
                pairs = list(nodes)
                results = index.distance_batch(
                    [pair[0] for pair in pairs],
                    [pair[1] for pair in pairs],
                )
            else:
                k, with_distances = key.params
                knn_type = (
                    KnnType.EXACT_DISTANCES if with_distances else KnnType.SET
                )
                results = index.knn_batch(nodes, k, knn_type=knn_type)
        finally:
            if trace_cm is not None:
                trace_cm.__exit__(None, None, None)
        delta = index.counter.delta(snap)
        batch.attach_execution(
            pages_logical=delta.logical,
            pages_physical=delta.physical,
            tracer=tracer,
            epoch=self.coordinator.epoch,
        )
        return results

    def _check_node(self, node: int) -> int:
        """Per-request node validation, *before* batching.

        A bad node must 400 its own request — never poison the shared
        batch it would have joined.
        """
        if not 0 <= node < self.index.network.num_nodes:
            raise _BadRequest(
                f"node {node} does not exist "
                f"(network has {self.index.network.num_nodes} nodes)"
            )
        return node

    # -- endpoint handlers ---------------------------------------------
    async def _serve_coalesced(
        self, key: BatchKey, node: int, degradable_payload, ctx=None
    ) -> tuple[int, dict]:
        """Admission → (degraded | coalesced exact) → response payload.

        ``degradable_payload()`` computes the category-only answer under
        the read lock when admission control asks for degraded service.
        ``ctx`` (the request's :class:`RequestContext`) rides into the
        coalescer so the batch records its membership and stage marks.
        """
        degraded = self.admission.admit(degradable=True)
        with self.admission.slot():
            if degraded:
                if ctx is not None:
                    ctx.mark_submit()
                async with self.coordinator.read():
                    if ctx is not None:
                        ctx.mark_dispatch()
                    payload = degradable_payload()
                if ctx is not None:
                    ctx.mark_execute()
                payload["approximate"] = True
                return 200, payload
            try:
                async with deadline_scope(self.config.deadline_ms / 1_000.0):
                    result = await self.coalescer.submit(key, node, ctx)
            except TimeoutError:
                raise self.admission.timed_out() from None
            return 200, {"result": result, "approximate": False}

    async def _handle_range(self, params: dict, ctx=None) -> tuple[int, dict]:
        node = self._check_node(_as_int(_require(params, "node"), "node"))
        radius = _as_float(_require(params, "radius"), "radius")
        with_distances = _as_bool(
            params.get("with_distances", False), "with_distances"
        )
        if radius < 0:
            raise _BadRequest(f"radius must be >= 0, got {radius}")
        key = BatchKey("range", (radius, with_distances))
        status, payload = await self._serve_coalesced(
            key,
            node,
            lambda: {"objects": self.index.approximate_range(node, radius)},
            ctx,
        )
        if "result" in payload:
            result = payload.pop("result")
            if with_distances:
                result = [[obj, _json_safe(d)] for obj, d in result]
            payload["objects"] = result
        payload.update(node=node, radius=radius)
        return status, payload

    async def _handle_knn(self, params: dict, ctx=None) -> tuple[int, dict]:
        node = self._check_node(_as_int(_require(params, "node"), "node"))
        k = _as_int(_require(params, "k"), "k")
        with_distances = _as_bool(
            params.get("with_distances", False), "with_distances"
        )
        if k < 1:
            raise _BadRequest(f"k must be >= 1, got {k}")
        key = BatchKey("knn", (k, with_distances))
        status, payload = await self._serve_coalesced(
            key,
            node,
            lambda: {"objects": self.index.knn_approximate(node, k)},
            ctx,
        )
        if "result" in payload:
            result = payload.pop("result")
            if with_distances:
                result = [[obj, _json_safe(d)] for obj, d in result]
            payload["objects"] = result
        payload.update(node=node, k=k)
        return status, payload

    async def _handle_distance(
        self, params: dict, ctx=None
    ) -> tuple[int, dict]:
        node = self._check_node(_as_int(_require(params, "node"), "node"))
        object_node = _as_int(_require(params, "object"), "object")
        # Validate the object *before* joining a shared batch: a bad
        # object must 400 its own request (DatasetError -> 400), never
        # poison the batch it would have joined.
        self.index.dataset.rank(object_node)
        self.admission.admit()
        with self.admission.slot():
            try:
                async with deadline_scope(self.config.deadline_ms / 1_000.0):
                    distance = await self.coalescer.submit(
                        BatchKey("distance", ()), (node, object_node), ctx
                    )
                    if isinstance(distance, float) and math.isinf(distance):
                        # The batch contract maps disconnected pairs to
                        # inf; re-ask the scalar path so each backend
                        # keeps its established semantics (signature
                        # family: DisconnectedError -> 400; hierarchy
                        # backends: inf -> JSON null).
                        async with self.coordinator.read():
                            distance = self.index.distance(
                                node, object_node
                            )
            except TimeoutError:
                raise self.admission.timed_out() from None
        return 200, {
            "node": node,
            "object": object_node,
            "distance": _json_safe(distance),
            "approximate": False,
        }

    async def _handle_aggregate(
        self, params: dict, ctx=None
    ) -> tuple[int, dict]:
        node = self._check_node(_as_int(_require(params, "node"), "node"))
        radius = _as_float(_require(params, "radius"), "radius")
        aggregate = str(params.get("aggregate", "count"))
        if radius < 0:
            raise _BadRequest(f"radius must be >= 0, got {radius}")
        self.admission.admit()
        with self.admission.slot():
            if ctx is not None:
                ctx.mark_submit()
            try:
                async with deadline_scope(self.config.deadline_ms / 1_000.0):
                    async with self.coordinator.read():
                        if ctx is not None:
                            ctx.mark_dispatch()
                        value = self.index.aggregate_range(
                            node, radius, aggregate
                        )
                    if ctx is not None:
                        ctx.mark_execute()
            except TimeoutError:
                raise self.admission.timed_out() from None
        return 200, {
            "node": node,
            "radius": radius,
            "aggregate": aggregate,
            "value": _json_safe(value),
            "approximate": False,
        }

    async def _handle_edges(self, params: dict) -> tuple[int, dict]:
        op = str(_require(params, "op"))
        u = _as_int(_require(params, "u"), "u")
        v = _as_int(_require(params, "v"), "v")
        weight = params.get("weight")
        if weight is not None:
            weight = _as_float(weight, "weight")
        result = await self.coordinator.apply(op, u, v, weight)
        report = result.report
        return 200, {
            "op": op,
            "u": u,
            "v": v,
            "epoch": result.epoch,
            "applied": result.applied,
            "counters": dict(result.counters),
            "affected_objects": sorted(report.affected_objects),
            "changed_components": report.changed_components,
            "touched_nodes": report.touched_nodes,
            "recompressed_nodes": report.recompressed_nodes,
        }

    async def _handle_edges_sample(self, params: dict) -> tuple[int, dict]:
        """``GET /v1/edges`` — a deterministic sample of live edges.

        Write-mode load generation needs edge identities to perturb
        without shipping the whole network; ``seed`` makes the sample
        reproducible across runs and ``limit`` bounds the payload.  The
        sample is taken under the read lock so it never observes a
        half-applied update.
        """
        limit = _as_int(params.get("limit", 256), "limit")
        seed = _as_int(params.get("seed", 0), "seed")
        if limit < 1:
            raise _BadRequest(f"limit must be >= 1, got {limit}")
        async with self.coordinator.read():
            edges = [
                (int(e.u), int(e.v), float(e.weight))
                for e in self.index.network.edges()
            ]
        if limit < len(edges):
            rng = np.random.default_rng(seed)
            picks = rng.choice(len(edges), size=limit, replace=False)
            edges = [edges[int(i)] for i in np.sort(picks)]
        return 200, {
            "edges": [[u, v, w] for u, v, w in edges],
            "count": len(edges),
            "epoch": self.coordinator.epoch,
        }

    def _handle_healthz(self) -> tuple[int, dict]:
        status = "draining" if self._draining else "ok"
        payload = {
            "status": status,
            "pending": self.admission.pending,
            "coalescer_buffered": self.coalescer.pending,
            "latency_ewma_ms": round(self.admission.ewma_ms, 3),
            "degraded": self.admission.ewma_ms
            > self.config.degrade_latency_ms,
            "nodes": self.index.network.num_nodes,
            "objects": len(self.index.dataset),
            "backend": self.backend,
            # The coordinator's update epoch: one step per applied
            # changeset, the same number /v1/edges acknowledges.
            "epoch": self.coordinator.epoch,
            # Distance scale of the served index: remote clients (the
            # load generator in particular) need it to form radii that
            # land in a chosen category band.
            "partition_boundaries": [
                float(b) for b in self.index.partition.boundaries
            ],
        }
        return (503 if self._draining else 200), payload

    def _handle_debug(self) -> tuple[int, dict]:
        """Recent slow queries + queue depths (``GET /v1/debug``)."""
        payload = {
            "epoch": self.coordinator.epoch,
            "slow_query_threshold_ms": self.slow_log.threshold_ms,
            "slow_queries_recorded": self.slow_log.recorded,
            "slow_queries": self.slow_log.recent(),
            "pending": self.admission.pending,
            "coalescer_buffered": self.coalescer.pending,
        }
        return 200, payload

    # -- HTTP plumbing -------------------------------------------------
    async def _route(
        self, method: str, path: str, params: dict, ctx=None
    ) -> tuple[int, dict | str, str]:
        """Dispatch one parsed request; returns (status, body, content_type)."""
        self._metric_requests.inc()
        try:
            if path == "/healthz":
                status, payload = self._handle_healthz()
                return status, payload, "application/json"
            if path == "/metrics":
                return 200, metrics_to_prometheus(self._registry), "text/plain"
            if path == "/v1/debug":
                status, payload = self._handle_debug()
                return status, payload, "application/json"
            if self._draining:
                return (
                    503,
                    {"error": "draining"},
                    "application/json",
                )
            if path == "/v1/range":
                status, payload = await self._handle_range(params, ctx)
            elif path == "/v1/knn":
                status, payload = await self._handle_knn(params, ctx)
            elif path == "/v1/distance":
                status, payload = await self._handle_distance(params, ctx)
            elif path == "/v1/aggregate":
                status, payload = await self._handle_aggregate(params, ctx)
            elif path == "/v1/edges":
                if method == "GET":
                    status, payload = await self._handle_edges_sample(params)
                elif method == "POST":
                    status, payload = await self._handle_edges(params)
                else:
                    return (
                        405,
                        {"error": "GET or POST required"},
                        "application/json",
                    )
            else:
                return 404, {"error": f"no route {path!r}"}, "application/json"
            return status, payload, "application/json"
        except Rejected as exc:
            return exc.status, {"error": exc.reason}, "application/json"
        except _BadRequest as exc:
            return 400, {"error": str(exc)}, "application/json"
        except (ReproError, ValueError) as exc:
            return 400, {"error": str(exc)}, "application/json"
        except asyncio.CancelledError:
            raise
        except Exception:
            logger.exception("internal error handling %s %s", method, path)
            self._metric_errors.inc()
            return 500, {"error": "internal error"}, "application/json"

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; None at EOF / on a framing error.

        The whole header block is consumed with a single ``readuntil``
        (one await on a warm keep-alive connection) — this path runs for
        every request, and line-by-line reads measurably cap served
        throughput.
        """
        try:
            block = await reader.readuntil(b"\r\n\r\n")
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            return None
        lines = block.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", 0) or 0)
        if length:
            if length > _MAX_BODY:
                return None
            body = await reader.readexactly(length)
        return method.upper(), target, headers, body

    @staticmethod
    def _parse_params(target: str, body: bytes) -> tuple[str, dict]:
        """Merge query-string and JSON-body parameters (body wins)."""
        if "?" in target:
            split = urlsplit(target)
            path = split.path
            params: dict = dict(parse_qsl(split.query))
        else:
            path = target
            params = {}
        if body:
            try:
                decoded = json.loads(body)
            except json.JSONDecodeError:
                raise _BadRequest("request body is not valid JSON") from None
            if not isinstance(decoded, dict):
                raise _BadRequest("request body must be a JSON object")
            params.update(decoded)
        return path, params

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                self._idle.add(writer)
                try:
                    request = await self._read_request(reader)
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                method, target, headers, body = request
                ctx = RequestContext(
                    target.partition("?")[0],
                    request_id=headers.get("x-request-id") or None,
                )
                params: dict = {}
                try:
                    path, params = self._parse_params(target, body)
                    ctx.path = path
                    self._active_requests += 1
                    try:
                        status, payload, content_type = await self._route(
                            method, path, params, ctx
                        )
                    finally:
                        self._active_requests -= 1
                except _BadRequest as exc:
                    status, payload, content_type = (
                        400,
                        {"error": str(exc)},
                        "application/json",
                    )
                if isinstance(payload, dict):
                    payload.setdefault("request_id", ctx.request_id)
                close = (
                    headers.get("connection", "").lower() == "close"
                    or self._draining
                )
                ctx.mark_done()
                is_api = ctx.path.startswith("/v1/")
                if is_api:
                    stages = ctx.stages()
                    for name, histogram in self._metric_stages:
                        histogram.observe(stages[name])
                await self._write_response(
                    writer,
                    status,
                    payload,
                    content_type,
                    close=close,
                    extra_headers=(
                        f"X-Request-Id: {ctx.request_id}\r\n"
                        f"Server-Timing: {ctx.server_timing_header()}\r\n"
                    ),
                )
                if is_api:
                    self.slow_log.maybe_record(
                        ctx, status=status, params=params
                    )
                if close:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    _REASONS = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }

    #: Pre-rendered status lines (shed responses carry Retry-After).
    _STATUS_LINES = {
        status: (
            f"HTTP/1.1 {status} {reason}\r\n"
            + ("Retry-After: 1\r\n" if status in (429, 503) else "")
        ).encode()
        for status, reason in _REASONS.items()
    }

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | str,
        content_type: str,
        *,
        close: bool,
        extra_headers: str = "",
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode()
        else:
            body = json.dumps(payload, separators=(",", ":")).encode()
        head = self._STATUS_LINES.get(
            status, f"HTTP/1.1 {status} Unknown\r\n".encode()
        )
        writer.write(
            head
            + (
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra_headers}"
                f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.host, self.port = sock.getsockname()[:2]
            break
        logger.info("serving on http://%s:%s", self.host, self.port)

    async def shutdown(self) -> None:
        """Graceful stop: refuse new work, drain in-flight, then close.

        The drain order matters: stop accepting connections and drop
        idle keep-alive ones, flush the coalescer so buffered requests
        still get answers, wait (bounded by ``drain_timeout_s``) for
        active requests, let the update coordinator commit the write in
        flight and join its writer thread, then close what is left.  Busy connections
        close themselves after their response (``Connection: close``
        while draining).  Since Python 3.12.1 ``Server.wait_closed()``
        waits for every connection handler to return, so it comes last,
        after every connection was told to close, and is bounded too.
        """
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        logger.info("draining: %d active requests", self._active_requests)
        if self._server is not None:
            self._server.close()
        for writer in list(self._idle):
            writer.close()
        await self.coalescer.drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout_s
        while self._active_requests > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
            await self.coalescer.drain()
        # A write still in flight (past the deadline, say) commits and
        # resolves its requests; the writer thread exits.
        await self.coordinator.close()
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            try:
                await asyncio.wait_for(
                    self._server.wait_closed(),
                    timeout=max(deadline - loop.time(), 0.1),
                )
            except asyncio.TimeoutError:
                pass
        self.slow_log.close()
        self._stopped.set()
        logger.info(
            "drained (%d requests abandoned)", max(self._active_requests, 0)
        )

    async def serve_forever(self) -> None:
        """Start, install SIGTERM/SIGINT handlers, and block until drained."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        await self.shutdown()


async def run_server(index, config: ServeConfig | None = None) -> QueryServer:
    """Start a :class:`QueryServer` and return it (tests / embedding)."""
    server = QueryServer(index, config)
    await server.start()
    return server
