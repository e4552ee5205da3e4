"""Metrics primitives: counters, gauges, and streaming histograms.

The paper's whole evaluation (§6) is phrased in observable quantities —
page accesses, CPU time, construction cost — so the serving system keeps
first-class instruments for them.  Everything here is pure stdlib and
single-threaded (one registry per index / per experiment), designed to be
cheap enough to stay on by default:

* :class:`Counter` — a monotonically increasing tally (``inc`` is one
  integer add);
* :class:`Gauge` — a last-value-wins measurement;
* :class:`Histogram` — a streaming log-bucketed distribution reporting
  p50/p95/p99 *without storing samples* (bounded memory: one bucket per
  ~9 % band of the value range);
* :class:`MetricsRegistry` — the named instrument namespace;
* :class:`NullRegistry` / :data:`NULL_REGISTRY` — the fully disabled
  variant: every instrument is a shared no-op, so instrumented code pays
  one attribute call and nothing else.

A process-wide default registry backs code that runs before any index
exists (the construction sweep); see :func:`get_default_registry`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_default_registry",
    "set_default_registry",
    "use_registry",
]


class Counter:
    """A monotonically increasing integer tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the tally."""
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A last-value-wins measurement (queue depth, latency EWMA, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self.value})"


#: Sub-buckets per octave: bucket i covers [2^(i/8), 2^((i+1)/8)), i.e. a
#: ~9 % relative quantile error — plenty for p50/p95/p99 reporting.
_SUBBUCKETS = 8
_LOG2_SCALE = _SUBBUCKETS / math.log(2.0)


class Histogram:
    """A streaming distribution over non-negative values.

    Values land in geometric buckets (``_SUBBUCKETS`` per factor of two),
    so quantiles are answered from bucket counts alone — no samples are
    retained, and memory is bounded by the dynamic range of the data, not
    the observation count.  Non-positive values share one exact "zero"
    bucket (page counts of 0 are common and must not distort quantiles).
    """

    __slots__ = ("name", "count", "total", "min", "max", "_zeros", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._zeros = 0
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self._zeros += 1
            return
        index = math.floor(math.log(value) * _LOG2_SCALE)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1), to bucket resolution.

        Returns NaN on an empty histogram.  Exact for the zero bucket;
        within ~9 % (half a bucket) elsewhere, clamped to the observed
        ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        cumulative = self._zeros
        if cumulative >= target:
            return 0.0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= target:
                midpoint = 2.0 ** ((index + 0.5) / _SUBBUCKETS)
                return min(max(midpoint, self.min), self.max)
        return self.max  # pragma: no cover - cumulative always reaches count

    def state(self) -> dict:
        """Full-fidelity serializable state (see :meth:`merge_state`).

        Unlike :meth:`summary`, which collapses the buckets into
        quantiles, this carries the raw bucket counts — two histograms
        can be combined exactly from their states (the load generator
        merges per-client latency distributions this way).
        """
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zeros": self._zeros,
            "buckets": dict(self._buckets),
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Exact: counts, sums, zero tallies, and per-bucket counts add;
        min/max combine.  Bucket keys arriving as strings (a JSON round
        trip) are accepted.  Merging an empty state is a no-op.
        """
        count = int(state.get("count", 0))
        if count == 0:
            return
        self.count += count
        self.total += float(state.get("total", 0.0))
        state_min, state_max = state.get("min"), state.get("max")
        if state_min is not None and state_min < self.min:
            self.min = float(state_min)
        if state_max is not None and state_max > self.max:
            self.max = float(state_max)
        self._zeros += int(state.get("zeros", 0))
        for index, bucket_count in state.get("buckets", {}).items():
            index = int(index)
            self._buckets[index] = self._buckets.get(index, 0) + int(
                bucket_count
            )

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def summary(self) -> dict:
        """Count/sum/extremes/quantiles as a plain dict (exporter food)."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._zeros = 0
        self._buckets.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """A named namespace of counters, gauges, and histograms.

    Instruments are created on first use and live for the registry's
    lifetime; fetching an existing instrument is one dict lookup.  A name
    may hold only one instrument kind (``counter("x")`` then
    ``gauge("x")`` raises), so exports are unambiguous.
    """

    #: Whether this registry records anything; the null registry flips it.
    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _claim(self, name: str, kind: dict) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        for family in (self._counters, self._gauges, self._histograms):
            if family is not kind and name in family:
                raise ValueError(
                    f"metric {name!r} already registered as a different kind"
                )

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._claim(name, self._counters)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._claim(name, self._gauges)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            self._claim(name, self._histograms)
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def snapshot(self) -> dict:
        """All instruments as plain data, sorted by name."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Zero every instrument (start of an experiment)."""
        for family in (self._counters, self._gauges, self._histograms):
            for instrument in family.values():
                instrument.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op.

    Swap it in (``index.metrics = NULL_REGISTRY`` or
    :func:`set_default_registry`) to remove instrumentation cost entirely:
    instrumented code still runs, but ``inc``/``set``/``observe`` are
    empty methods on three shared singletons.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str) -> Histogram:
        return self._null_histogram

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: The shared disabled registry.
NULL_REGISTRY = NullRegistry()

#: Process-wide default, used by code that predates any index (the
#: construction sweep) and by anything not handed an explicit registry.
_default_registry: MetricsRegistry = MetricsRegistry()


def get_default_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide default; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Temporarily install ``registry`` as the process-wide default."""
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)
