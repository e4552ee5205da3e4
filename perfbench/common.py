"""Pieces shared by the benchmark runner and the server it launches.

Everything here is measurement plumbing: seeded inputs, index
construction with library defaults, exact percentiles, an in-memory span
recorder, and readers for ``/proc`` and the Prometheus text the server
exports.  Nothing here changes how the program under test behaves.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Object density of every workload's dataset (1% of the nodes).
DENSITY = 0.01
#: Every run of a workload uses the same network and objects; --seed
#: draws the operations.  A network per seed would add the spread
#: between networks to every metric's run-to-run spread.
NETWORK_SEED = 1


def import_repro() -> None:
    """Make the checkout's ``src/`` importable, or fail loudly.

    The benchmark measures the program in the checkout it sits in, never
    an installed copy, so a missing ``src/`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_inputs(nodes: int):
    """The network and object dataset of a workload with ``nodes`` nodes."""
    from repro import random_planar_network, uniform_dataset

    network = random_planar_network(nodes, seed=NETWORK_SEED)
    dataset = uniform_dataset(network, density=DENSITY, seed=NETWORK_SEED)
    return network, dataset


def build_index(kind: str, network, dataset):
    """Build the workload's index exactly as a library user would."""
    if kind == "sig":
        from repro import SignatureIndex

        return SignatureIndex.build(network, dataset)
    if kind == "hub":
        from repro.backends import HubLabelIndex

        return HubLabelIndex.build(network, dataset)
    raise ValueError(f"unknown index kind {kind!r}")


def index_bytes(index) -> int:
    """The index's own size report: structure plus object table."""
    if hasattr(index, "storage_report"):
        report = index.storage_report()
        return report.total_bytes + report.object_table_bytes
    stats = index.stats()
    return int(stats["index_bytes"]) + int(stats["object_table_bytes"])


# ----------------------------------------------------------------------
# exact statistics
# ----------------------------------------------------------------------
class TooFewSamples(Exception):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples, q: float) -> float:
    """The exact ``q``-quantile (0 < q < 1) of raw ``samples``.

    Linear interpolation between order statistics.  A percentile is only
    reported when at least ten samples lie beyond it; anything less is a
    sizing error in the workload, so it raises.
    """
    values = sorted(samples)
    n = len(values)
    position = q * (n - 1)
    low = math.floor(position)
    if n == 0 or n - 1 - low < 10:
        raise TooFewSamples(f"p{q * 100:g} of {n} samples has fewer than "
                            f"10 beyond it")
    high = min(low + 1, n - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def mean(samples) -> float:
    return sum(samples) / len(samples) if samples else 0.0


# ----------------------------------------------------------------------
# tracing: spans kept in memory, written out when the run ends
# ----------------------------------------------------------------------
class SpanRecorder:
    """Spans as ``[name, start, end, span_id, parent_id]`` rows.

    Timestamps are ``perf_counter`` seconds, which on Linux read the
    system-wide monotonic clock, so spans recorded by the server process
    line up with the benchmark's own.  ``enabled`` is checked by callers
    so an untraced run pays one attribute read per call.
    """

    def __init__(self, enabled: bool = False, prefix: str = "b") -> None:
        self.enabled = enabled
        self.rows: list[list] = []
        self._prefix = prefix
        self._next = 0

    def add(self, name: str, start: float, end: float, parent=None) -> str:
        self._next += 1
        span_id = f"{self._prefix}{self._next}"
        self.rows.append([name, start, end, span_id, parent])
        return span_id

    def durations(self, name: str) -> list[float]:
        return [row[2] - row[1] for row in self.rows if row[0] == name]

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``{name: (count, total self seconds)}``.

        A span's self time is its duration minus the time its direct
        children cover (children of one span never overlap here).
        """
        child_time: dict[str, float] = {}
        for name, start, end, _span_id, parent in self.rows:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals: dict[str, tuple[int, float]] = {}
        for name, start, end, span_id, _parent in self.rows:
            own = max(0.0, end - start - child_time.get(span_id, 0.0))
            count, total = totals.get(name, (0, 0.0))
            totals[name] = (count + 1, total + own)
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, span_id, parent in self.rows:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "id": span_id, "parent": parent,
                }) + "\n")

    def load(self, path: Path) -> None:
        with path.open() as handle:
            for line in handle:
                row = json.loads(line)
                self.rows.append([row["name"], row["start"], row["end"],
                                  row["id"], row["parent"]])


def timed_method(recorder: SpanRecorder, name: str, method):
    """Wrap a bound method so each call records a span when enabled."""

    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return method(*args, **kwargs)
        start = perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            recorder.add(name, start, perf_counter())

    return wrapper


# ----------------------------------------------------------------------
# process resources
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    status = Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# exported metrics
# ----------------------------------------------------------------------
def metric_delta(before: dict, after: dict, name: str) -> float:
    """Change of one Prometheus sample between two scrapes."""
    return after.get(name, 0.0) - before.get(name, 0.0)

