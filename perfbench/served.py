"""The served workloads: ``sig-serve`` (closed loop, reads only) and
``hub-live`` (open loop, reads beside live writes).

The index lives in a server subprocess (``server.py``) running with
library and server defaults.  Load comes from this single-threaded
asyncio process over two keep-alive connections, so the loader and the
server hold one core each on a two-core host.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from time import perf_counter

import numpy as np

import common
from metrics import (MB, Metrics, counter_metrics, overhead_metrics,
                     read_metrics, self_time_table, setup_metrics,
                     zero_missing)
from oracle import Oracle, few_objects_radius, in_process_answer, read_ops

#: Answers slower than this miss the read latency limit.
READ_LIMIT_S = 0.050
#: Connections the load generator opens.
CONNECTIONS = 2
#: Reads checked against the in-process index and the oracle before
#: timing, and against the final network state after it.
CHECK_READS = 30
K = 5
#: Range radius: the distance that includes this many objects on average.
RANGE_OBJECTS = 3.0

SIG_NODES = 6000
#: How many times a run sets the server up before the timed phase, and
#: again after it; setup_s is the median of all of them.  Set-ups on
#: both sides of the timed phase sample the host over the whole run,
#: as the reads do, rather than only its first seconds.
SIG_SETUPS = 3
#: sig-serve's op list holds this many reads per second of --seconds
#: (about what two connections complete per second), so a run measures
#: roughly --seconds of work.
SIG_READS_PER_S = 345

HUB_NODES = 2000
HUB_SETUPS = 2
#: Each read holds its connection for at least the coalescer's 2 ms
#: linger, and each write (~100-150 ms of repair) stalls the event loop
#: and leaves a backlog that takes as long again to drain.  At 200
#: reads/s and 4 writes/s two connections saturate; at these rates the
#: server stays below saturation, so the read median is a read's own
#: cost and the tail is the write stall.
HUB_READ_RATE = 100.0
HUB_WRITE_RATE = 2.0
#: The written edges and their weights are the same in every run (--seed
#: only orders them): the read tail is set by the few slowest repairs,
#: and a fresh edge sample per seed would add its spread to every run.
WRITES_SEED = 1
#: Writes that finish lazy set-up (the first write rebuilds the hub
#: index with repair recording, the second builds the search-space
#: cache); they are part of setup_s.
WARM_WRITES = 2


class ServerProcess:
    """One ``server.py`` subprocess and a client to reach it."""

    def __init__(self, proc, info: dict) -> None:
        self.proc = proc
        self.info = info
        self.port = info["port"]
        self.recording = False

    @classmethod
    async def start(cls, kind: str, nodes: int,
                    spans_path=None) -> "ServerProcess":
        command = [sys.executable, str(common.BENCH_DIR / "server.py"),
                   "--kind", kind, "--nodes", str(nodes)]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        proc = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), 300)
            if not line:
                raise RuntimeError("server exited before it was ready")
            server = cls(proc, json.loads(line))
            await server.wait_healthy()
        except BaseException:
            await _terminate(proc)
            raise
        return server

    def client(self):
        from repro.serve import ServeClient

        return ServeClient("127.0.0.1", self.port)

    async def wait_healthy(self) -> None:
        async with self.client() as client:
            while (await client.request("GET", "/healthz")).status != 200:
                await asyncio.sleep(0.005)

    async def scrape(self) -> dict[str, float]:
        from repro.obs.export import parse_prometheus_text

        async with self.client() as client:
            return parse_prometheus_text(
                (await client.request("GET", "/metrics")).payload)

    def record(self, on: bool) -> None:
        """Switch the server's span recording (``server.py --spans``)."""
        if on != self.recording:
            self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
            self.recording = on

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def cpu_seconds(self) -> float:
        return common.cpu_seconds(self.proc.pid)

    async def stop(self) -> None:
        await _terminate(self.proc)


async def _terminate(proc) -> None:
    if proc.returncode is None:
        proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(proc.wait(), 30)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
async def send(client, op):
    """Issue one read or write; returns the :class:`ServeResponse`."""
    kind, a, b = op[0], op[1], op[2]
    if kind == "distance":
        return await client.request("POST", "/v1/distance",
                                    {"node": a, "object": b})
    if kind == "range":
        return await client.request("POST", "/v1/range",
                                    {"node": a, "radius": b})
    if kind == "knn":
        return await client.request("POST", "/v1/knn", {"node": a, "k": b})
    return await client.request("POST", "/v1/edges", {
        "op": "set_weight", "u": a, "v": b, "weight": op[3]})


def answer_of(op, response):
    """The answer part of a 200 read response."""
    if op[0] == "distance":
        return response.payload["distance"]
    return response.payload["objects"]


class Outcome:
    """What one timed operation did, as the client saw it."""

    __slots__ = ("op", "due", "start", "end", "response", "status",
                 "answer", "approximate", "epoch", "lo_epoch", "writes_seen",
                 "traced", "good")

    def __init__(self, op, due, start, end, response) -> None:
        self.op = op
        self.due = due
        self.start = start
        self.end = end
        self.response = response
        self.status = response.status
        ok = response.status == 200
        self.approximate = bool(ok and response.payload.get("approximate"))
        if op[0] == "set_weight":
            self.answer = None
            self.epoch = response.payload["epoch"] if ok else None
        else:
            self.answer = answer_of(op, response) if ok else None
            self.epoch = None
        self.lo_epoch = 0
        self.writes_seen = 0
        self.traced = False
        self.good = False

    @property
    def is_write(self) -> bool:
        return self.op[0] == "set_weight"

    @property
    def latency(self) -> float:
        """Seconds from due time (open loop) or send (closed loop)."""
        return self.end - self.due


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
async def set_up(kind, nodes, warm_reads, warm_writes=(),
                 check=None, spans_path=None):
    """Start a server and warm it; returns ``(server, phases)``.

    ``setup_s`` runs from spawning the server until the first read of
    each kind and any warm-up writes are answered.  ``check`` (a
    coroutine function taking the server) runs between the warm-up
    reads and writes with the clock stopped.
    """
    started = perf_counter()
    server = await ServerProcess.start(kind, nodes, spans_path)
    try:
        booted = perf_counter()
        async with server.client() as client:
            for op in warm_reads:
                await _expect_ok(client, op)
            reads_done = perf_counter()
            if check is not None:
                await check(server)
            writes_started = perf_counter()
            for op in warm_writes:
                await _expect_ok(client, op)
            finished = perf_counter()
    except BaseException:
        await server.stop()
        raise
    build_s = server.info["build_s"]
    warm_s = (reads_done - booted) + (finished - writes_started)
    phases = {
        "setup_s": (booted - started) + warm_s,
        "build_s": build_s,
        "boot_s": booted - started - build_s,
        "warm_s": warm_s,
    }
    return server, phases


async def _expect_ok(client, op) -> None:
    response = await send(client, op)
    if response.status != 200:
        raise RuntimeError(f"warm-up {op[0]} failed: {response.status} "
                           f"{response.payload}")


async def set_up_repeatedly(setups, kind, nodes, warm_reads, warm_writes,
                            check=None, spans_path=None, keep=True):
    """Set up ``setups`` times; returns ``(server, phases)``.

    Every server but the last is stopped, and the last one too unless
    ``keep`` (it then serves the timed phase).  ``check`` runs on the
    first server only.
    """
    phases = []
    server = None
    for attempt in range(setups):
        if server is not None:
            await server.stop()
        server, timing = await set_up(
            kind, nodes, warm_reads, warm_writes,
            check=check if attempt == 0 else None,
            spans_path=spans_path if attempt == setups - 1 else None)
        phases.append(timing)
    if not keep:
        await server.stop()
        server = None
    return server, phases


async def check_against(server, ops, oracle, index, report) -> None:
    """Served answers must equal the in-process index and the oracle."""
    async with server.client() as client:
        for op in ops:
            response = await send(client, op)
            if response.status != 200:
                report.wrong(f"pre-timing {op}: status {response.status}")
                continue
            served = oracle.answer_key(op, answer_of(op, response))
            local = oracle.answer_key(op, in_process_answer(index, op))
            if not served == local == oracle.expected(op):
                report.wrong(f"pre-timing {op}: served {served}, "
                             f"in-process {local}, oracle "
                             f"{oracle.expected(op)}")


# ----------------------------------------------------------------------
# load generators
# ----------------------------------------------------------------------
async def closed_loop(server, ops, traced):
    """Each connection sends its next read as soon as the last returns.

    ``traced[i]`` says whether op ``i`` runs with server spans recorded.
    Returns the outcomes (aligned with ``ops``), the per-connection gaps
    between a response and the next send (the generator's own lateness)
    and the timed wall seconds.
    """
    outcomes: list[Outcome | None] = [None] * len(ops)
    gaps: list[float] = []
    positions = iter(range(len(ops)))
    clients = [server.client() for _ in range(CONNECTIONS)]
    for client in clients:
        await client.connect()

    async def lane(client) -> None:
        last_end = None
        for i in positions:
            op = ops[i]
            server.record(traced[i])
            start = perf_counter()
            if last_end is not None:
                gaps.append(start - last_end)
            response = await send(client, op)
            last_end = perf_counter()
            outcomes[i] = Outcome(op, start, start, last_end, response)
            outcomes[i].traced = traced[i]

    try:
        started = perf_counter()
        await asyncio.gather(*(lane(client) for client in clients))
        wall = perf_counter() - started
    finally:
        for client in clients:
            await client.close()
    return outcomes, gaps, wall


async def open_loop(server, schedule, first_epoch: int, traced):
    """Send each op at its due time over at most ``CONNECTIONS``
    connections, whatever the server's state.

    ``schedule`` is ``[(offset_s, op)]``.  Every op is timed from its due
    time, so waiting for a connection that a stalled server holds counts.
    Writes go out one at a time in schedule order (each waits for the
    previous acknowledgement), so each is its own changeset and epoch.
    Reads record the epoch window they may observe, starting from
    ``first_epoch``.  ``traced[i]`` says whether op ``i`` runs with
    server spans recorded.  Returns outcomes, the generator's lateness
    per op, and the timed wall seconds.
    """
    state = {"acked": first_epoch, "writes_sent": 0}
    free: asyncio.Queue = asyncio.Queue()
    clients = [server.client() for _ in range(CONNECTIONS)]
    for client in clients:
        await client.connect()
        free.put_nowait(client)
    outcomes: list[Outcome | None] = [None] * len(schedule)
    lateness: list[float] = []

    async def run(i, op, due, previous_write) -> None:
        if previous_write is not None:
            await previous_write
        client = await free.get()
        try:
            lo_epoch = state["acked"]
            if op[0] == "set_weight":
                state["writes_sent"] += 1
            start = perf_counter()
            response = await send(client, op)
            end = perf_counter()
        finally:
            free.put_nowait(client)
        outcome = Outcome(op, due, start, end, response)
        outcome.lo_epoch = lo_epoch
        outcome.writes_seen = state["writes_sent"]
        outcome.traced = traced[i]
        if outcome.epoch is not None:
            state["acked"] = max(state["acked"], outcome.epoch)
        outcomes[i] = outcome

    tasks = []
    last_write = None
    try:
        base = perf_counter() + 0.01
        for i, (offset, op) in enumerate(schedule):
            due = base + offset
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(max(0.0, perf_counter() - due))
            server.record(traced[i])
            task = asyncio.create_task(
                run(i, op, due, last_write if op[0] == "set_weight" else None))
            if op[0] == "set_weight":
                last_write = task
            tasks.append(task)
        await asyncio.gather(*tasks)
        wall = perf_counter() - base
    finally:
        for task in tasks:
            task.cancel()
        for client in clients:
            await client.close()
    return outcomes, lateness, wall


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _warm_reads(objects, radius):
    node = 0
    return [("distance", node, int(objects[0])), ("range", node, radius),
            ("knn", node, K)]


async def sig_serve(seed: int, seconds: float, trace: bool, report):
    """Closed loop of equal shares of range, kNN and distance reads
    against the signature index on a 6000-node network."""
    network, dataset = common.make_inputs(SIG_NODES)
    objects = list(dataset)
    oracle = Oracle.of(network, dataset)
    radius = few_objects_radius(oracle, RANGE_OBJECTS)
    rng = np.random.default_rng([seed, 1])
    ops = read_ops(rng, round(seconds * SIG_READS_PER_S), network.num_nodes,
                   objects, radius, K)
    expected = [oracle.expected(op) for op in ops]
    local = common.build_index("sig", network, dataset)
    checks = read_ops(rng, CHECK_READS, network.num_nodes, objects, radius, K)
    spans_path = _spans_path("sig-serve", seed) if trace else None

    server, phases = await set_up_repeatedly(
        SIG_SETUPS, "sig", SIG_NODES, _warm_reads(objects, radius), (),
        lambda srv: check_against(srv, checks, oracle, local, report),
        spans_path)
    del local
    try:
        flags = _trace_flags(len(ops), trace)
        run = await _timed(server, closed_loop(server, ops, flags))
        peak = server.peak_rss_mb()
    finally:
        await server.stop()
    phases += (await set_up_repeatedly(
        SIG_SETUPS, "sig", SIG_NODES, _warm_reads(objects, radius), (),
        keep=False))[1]

    for outcome, want in zip(run.outcomes, expected):
        right = (outcome.status == 200 and
                 oracle.answer_key(outcome.op, outcome.answer) == want)
        _settle(outcome, right, report, f"{outcome.op}: got {outcome.answer}")
    return _served_result(run, phases, server, peak, trace, spans_path)


async def hub_live(seed: int, seconds: float, trace: bool, report):
    """Open loop of reads at a fixed rate beside traffic-shaped writes,
    against the hub-label index on a 2000-node network."""
    from repro.workloads.traffic import TrafficSimulator

    network, dataset = common.make_inputs(HUB_NODES)
    objects = list(dataset)
    base_oracle = Oracle.of(network, dataset)
    radius = few_objects_radius(base_oracle, RANGE_OBJECTS)
    rng = np.random.default_rng([seed, 2])
    reads = read_ops(rng, round(seconds * HUB_READ_RATE), network.num_nodes,
                     objects, radius, K)
    writes = _traffic_writes(TrafficSimulator(network, seed=WRITES_SEED),
                             WARM_WRITES + round(seconds * HUB_WRITE_RATE))
    warm_writes, timed_writes = writes[:WARM_WRITES], writes[WARM_WRITES:]
    rng.shuffle(timed_writes)
    schedule = _schedule(reads, timed_writes, seconds)
    checks = read_ops(rng, CHECK_READS, network.num_nodes, objects, radius, K)
    local = common.build_index("hub", network, dataset)
    spans_path = _spans_path("hub-live", seed) if trace else None

    server, phases = await set_up_repeatedly(
        HUB_SETUPS, "hub", HUB_NODES, _warm_reads(objects, radius),
        warm_writes,
        lambda srv: check_against(srv, checks, base_oracle, local, report),
        spans_path)
    del local
    try:
        async with server.client() as client:
            health = (await client.request("GET", "/healthz")).payload
        first_epoch = health["epoch"]
        flags = _trace_flags(len(schedule), trace)
        run = await _timed(server,
                           open_loop(server, schedule, first_epoch, flags))
        # The final state must answer like Dijkstra on the network with
        # every acknowledged write applied in epoch order.
        states = _epoch_states(base_oracle, warm_writes, first_epoch,
                               run.outcomes, report)
        final = states[max(states)]
        async with server.client() as client:
            for op in checks:
                response = await send(client, op)
                if (response.status != 200 or not final.matches(
                        op, answer_of(op, response))):
                    report.wrong(f"after the run {op}: status "
                                 f"{response.status} {response.payload}")
        peak = server.peak_rss_mb()
    finally:
        await server.stop()
    phases += (await set_up_repeatedly(
        HUB_SETUPS, "hub", HUB_NODES, _warm_reads(objects, radius),
        warm_writes, keep=False))[1]

    for outcome in run.outcomes:
        right = outcome.status == 200 and (
            outcome.is_write or _read_matches(outcome, states))
        _settle(outcome, right, report,
                f"{outcome.op} at epochs {outcome.lo_epoch}.."
                f"{_hi_epoch(outcome, states)}: got {outcome.answer}")
    if run.lateness_p99 > READ_LIMIT_S:
        report.invalid(f"generator lateness p99 {run.lateness_p99 * 1e3:.1f} "
                       f"ms exceeds the {READ_LIMIT_S * 1e3:g} ms read limit")
    return _served_result(run, phases, server, peak, trace, spans_path)


def _settle(outcome, right: bool, report, note: str) -> None:
    """Count one timed op.  Errors, shed responses and degraded answers
    that differ from the exact one fail; a wrong exact answer also fails
    the run."""
    outcome.good = right
    if right:
        report.ok()
        return
    report.fail()
    if outcome.status == 200 and not outcome.approximate:
        report.wrong(note)


def _traffic_writes(simulator, count: int):
    """``count`` set_weight writes on distinct edges, traffic-shaped."""
    return [("set_weight", *delta.as_tuple()[1:])
            for delta in simulator.changeset(count)]


def _schedule(reads, writes, seconds: float):
    """Reads evenly spaced over ``seconds``; writes evenly spaced too,
    offset by half a read interval so the two never coincide."""
    read_gap = seconds / len(reads)
    write_gap = seconds / len(writes)
    schedule = [(i * read_gap, op) for i, op in enumerate(reads)]
    schedule += [((i + 0.5) * write_gap + read_gap / 2, op)
                 for i, op in enumerate(writes)]
    schedule.sort(key=lambda item: item[0])
    return schedule


def _epoch_states(base_oracle, warm_writes, first_epoch, outcomes, report):
    """``{epoch: Oracle}`` for every state the server went through after
    warm-up, applying acknowledged writes in response-epoch order."""
    state = base_oracle
    for op in warm_writes:
        state = state.with_write(op[1], op[2], op[3])
    states = {first_epoch: state}
    acked = sorted((o for o in outcomes if o.is_write and o.epoch is not None),
                   key=lambda o: o.epoch)
    for outcome in acked:
        if outcome.epoch in states or outcome.epoch < first_epoch:
            report.wrong(f"write {outcome.op} acknowledged at repeated "
                         f"epoch {outcome.epoch}")
            continue
        state = state.with_write(outcome.op[1], outcome.op[2], outcome.op[3])
        states[outcome.epoch] = state
    return states


def _hi_epoch(outcome, states) -> int:
    """The newest epoch a read could have seen: that of the last write
    sent before its answer arrived (writes are serialized, one epoch
    each)."""
    return min(min(states) + outcome.writes_seen, max(states))


def _read_matches(outcome, states) -> bool:
    for epoch in range(outcome.lo_epoch, _hi_epoch(outcome, states) + 1):
        state = states.get(epoch)
        if state is not None and state.matches(outcome.op, outcome.answer):
            return True
    return False


# ----------------------------------------------------------------------
# traced blocks and results
# ----------------------------------------------------------------------
#: A traced run alternates untraced and traced blocks of the op list, so
#: both kinds of op see the same host and server conditions and their
#: difference is the tracing overhead.
TRACE_BLOCKS = 10


def _trace_flags(count: int, trace: bool) -> list[bool]:
    return [trace and (i * TRACE_BLOCKS // count) % 2 == 1
            for i in range(count)]


class ServedRun:
    """A timed phase's outcomes plus the server's counters and CPU time
    around it."""

    def __init__(self, outcomes, lateness, wall, before, after, cpu_s):
        self.outcomes = outcomes
        self.lateness = lateness
        self.wall = wall
        self.metrics_before = before
        self.metrics_after = after
        self.cpu_s = cpu_s

    @property
    def lateness_p99(self) -> float:
        return common.percentile(self.lateness, 0.99)


async def _timed(server, load) -> ServedRun:
    """Run the ``load`` coroutine, snapshotting ``/metrics`` and the
    server's CPU time just before and after it."""
    before = await server.scrape()
    cpu_before = server.cpu_seconds()
    outcomes, lateness, wall = await load
    cpu_s = server.cpu_seconds() - cpu_before
    server.record(False)
    after = await server.scrape()
    return ServedRun(outcomes, lateness, wall, before, after, cpu_s)


def _spans_path(workload: str, seed: int):
    return common.OUT_DIR / f"server-spans-{workload}-{seed}.jsonl"


def _served_result(run, phases, server, peak, trace, spans_path):
    """``(end_to_end, per_layer, report_lines)`` of one served run."""
    e2e, layers = Metrics(), Metrics()
    setup_metrics(e2e, layers, phases)
    reads = [o for o in run.outcomes if not o.is_write]
    read_metrics(e2e, reads, lambda o: o.latency, lambda o: o.good,
                 run.wall, READ_LIMIT_S)
    e2e.put("index_mb", server.info["index_bytes"] / MB)
    e2e.put("peak_rss_mb", peak)
    if not trace:
        return e2e, layers, []

    layers.quantile("client.read_p99_ms", [o.latency for o in reads], 0.99)
    writes = [o.latency for o in run.outcomes if o.is_write]
    layers.quantile("client.write_p50_ms", writes, 0.50)
    layers.quantile("client.write_p75_ms", writes, 0.75)
    layers.quantile("client.lateness_p99_ms", run.lateness, 0.99)
    traced = [o for o in reads if o.traced and o.status == 200]
    stages = [o.response.server_timing() for o in traced]
    layers.average("client.transport_ms",
                   [(o.end - o.start) * 1e3 - st["total"]
                    for o, st in zip(traced, stages)], scale=1)
    for layer, stage in (("server.queue_ms", "queue"),
                         ("server.stitch_ms", "stitch")):
        layers.average(layer, [st[stage] for st in stages], scale=1)
    coalesce = [st["coalesce"] for st in stages]
    layers.average("batching.coalesce_mean_ms", coalesce, scale=1)
    layers.quantile("batching.coalesce_p99_ms", coalesce, 0.99, scale=1)
    execute = [st["execute"] for st in stages]
    layers.average("engine.execute_mean_ms", execute, scale=1)
    layers.quantile("engine.execute_p99_ms", execute, 0.99, scale=1)
    layers.put("server.cpu_share", run.cpu_s / run.wall)
    counter_metrics(layers, run.metrics_before, run.metrics_after)
    recorder = common.SpanRecorder()
    recorder.load(spans_path)
    for name in ("distance_batch", "knn_batch"):
        layers.average(f"index.{name}_ms",
                       recorder.durations(f"index.{name}"))
    overhead_metrics(layers, [o.latency for o in reads if not o.traced],
                     [o.latency for o in reads if o.traced])
    zero_missing(layers)

    for outcome, stage in zip(traced, stages):
        root = recorder.add("op", outcome.due, outcome.end)
        if outcome.start > outcome.due:
            recorder.add("client.wait", outcome.due, outcome.start, root)
        request = recorder.add("client.request", outcome.start, outcome.end,
                               root)
        at = outcome.start + ((outcome.end - outcome.start) * 1e3
                              - stage["total"]) / 2e3
        for name in ("queue", "coalesce", "execute", "stitch"):
            recorder.add(f"server.{name}", at, at + stage[name] / 1e3,
                         request)
            at += stage[name] / 1e3
    recorder.dump(spans_path.with_name(spans_path.name.replace(
        "server-spans", "trace")))
    return e2e, layers, self_time_table(recorder)
