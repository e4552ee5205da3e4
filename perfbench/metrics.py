"""Turn one run's raw samples into the end-to-end and per-layer metrics.

Every percentile is computed exactly from the run's raw samples
(:func:`common.percentile`), never from the program's bucketed
histograms.  Counts and sums read from the server's ``/metrics`` are
deltas across the timed phase, so they cover exactly the work timed.

Metrics a workload does not exercise (writes and repair counts on a
read-only workload) read 0 with 0 samples.
"""

from __future__ import annotations

import statistics

import common

#: Every end-to-end metric, in print order, with its unit.
END_TO_END = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_qps": "1/s",
    "read_slo_share": "fraction",
    "ok_share": "fraction",
    "index_mb": "MB",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric of the traced run, with its unit.
PER_LAYER = {
    "client.read_p99_ms": "ms",
    "client.lateness_p99_ms": "ms",
    "client.transport_ms": "ms",
    "client.write_p50_ms": "ms",
    "client.write_p75_ms": "ms",
    "server.queue_ms": "ms",
    "server.stitch_ms": "ms",
    "server.cpu_share": "fraction",
    "batching.coalesce_mean_ms": "ms",
    "batching.coalesce_p99_ms": "ms",
    "batching.batch_size_mean": "count",
    "coordinator.apply_ms": "ms",
    "coordinator.deltas_per_batch": "count",
    "admission.shed": "count",
    "admission.degraded": "count",
    "engine.execute_mean_ms": "ms",
    "engine.execute_p99_ms": "ms",
    "core.pages_per_query": "count",
    "core.knn_pruned_share": "fraction",
    "core.vectorized_confirmed_share": "fraction",
    "index.distance_batch_ms": "ms",
    "index.knn_batch_ms": "ms",
    "hub.kernel_pair_share": "fraction",
    "hub.update.repaired": "count",
    "hub.update.rebuilt": "count",
    "hub.update.damaged_nodes": "count",
    "hub.update.relabeled_nodes": "count",
    "hub.update.join_entries": "count",
    "setup.build_s": "s",
    "setup.boot_s": "s",
    "setup.warm_s": "s",
    "trace.overhead_read_p50_ms": "ms",
    "trace.overhead_read_p99_ms": "ms",
}

MB = float(1 << 20)
UPDATE_COUNTERS = ("repaired", "rebuilt", "damaged_nodes", "relabeled_nodes",
                   "join_entries")


class Metrics(dict):
    """``{name: (value, samples)}``; ``samples`` is the count of raw
    observations behind the value (0 for a value read off a counter)."""

    def put(self, name: str, value: float, samples: int = 0) -> None:
        self[name] = (float(value), int(samples))

    def quantile(self, name, samples, q, scale=1e3) -> None:
        """Exact percentile of ``samples``; 0 when there are none."""
        value = common.percentile(samples, q) * scale if samples else 0.0
        self.put(name, value, len(samples))

    def average(self, name, samples, scale=1e3) -> None:
        self.put(name, common.mean(samples) * scale, len(samples))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def setup_metrics(e2e: Metrics, layers: Metrics, phases: list[dict]) -> None:
    """setup_s is the median of the run's set-ups; so are its parts."""
    def median(key):
        return statistics.median(phase[key] for phase in phases)

    e2e.put("setup_s", median("setup_s"), len(phases))
    layers.put("setup.build_s", median("build_s"), len(phases))
    layers.put("setup.boot_s", median("boot_s"), len(phases))
    layers.put("setup.warm_s", median("warm_s"), len(phases))


def read_metrics(e2e: Metrics, reads, latency, good, wall_s: float,
                 limit_s: float) -> None:
    """The read metrics every workload reports.

    ``reads`` are timed operations; ``latency(op)`` gives seconds and
    ``good(op)`` whether it was answered correctly; ``wall_s`` is the
    timed phase's wall time.
    """
    e2e.quantile("read_p50_ms", [latency(op) for op in reads], 0.50)
    answered = within = 0
    for op in reads:
        if good(op):
            answered += 1
            within += latency(op) <= limit_s
    e2e.put("read_qps", ratio(answered, wall_s), len(reads))
    e2e.put("read_slo_share", ratio(within, len(reads)), len(reads))


def counter_metrics(layers: Metrics, before: dict, after: dict) -> None:
    """Per-layer metrics read off the program's own counters."""
    def delta(name):
        return common.metric_delta(before, after, f"repro_{name}")

    updates = delta("serve_update_seconds_count")
    layers.put("batching.batch_size_mean",
               ratio(delta("serve_batch_size_sum"),
                     delta("serve_batch_size_count")),
               int(delta("serve_batch_size_count")))
    layers.put("coordinator.apply_ms",
               ratio(delta("serve_update_seconds_sum"), updates) * 1e3,
               int(updates))
    layers.put("coordinator.deltas_per_batch",
               ratio(delta("serve_updates_total"), updates), int(updates))
    layers.put("admission.shed", delta("serve_shed_429_total")
               + delta("serve_shed_503_total")
               + delta("serve_deadline_timeouts_total"))
    layers.put("admission.degraded", delta("serve_degraded_total"))
    pages = [name[:-len("_sum")] for name in after
             if name.startswith("repro_query_")
             and name.endswith("_pages_sum")]
    page_sum = sum(common.metric_delta(before, after, f"{n}_sum")
                   for n in pages)
    page_count = sum(common.metric_delta(before, after, f"{n}_count")
                     for n in pages)
    layers.put("core.pages_per_query", ratio(page_sum, page_count),
               int(page_count))
    pruned, refined = delta("knn_refine_pruned_total"), delta(
        "knn_refine_refined_total")
    layers.put("core.knn_pruned_share", ratio(pruned, pruned + refined))
    confirmed, ambiguous = delta("vectorized_confirmed_total"), delta(
        "vectorized_ambiguous_total")
    layers.put("core.vectorized_confirmed_share",
               ratio(confirmed, confirmed + ambiguous))
    kernel, scalar = delta("query_distance_batch_kernel_pairs_total"), delta(
        "query_distance_batch_scalar_pairs_total")
    layers.put("hub.kernel_pair_share", ratio(kernel, kernel + scalar))
    for name in UPDATE_COUNTERS:
        layers.put(f"hub.update.{name}",
                   delta(f"backend_hub_update_{name}_total"))


def overhead_metrics(layers: Metrics, untraced, traced) -> None:
    """Traced minus untraced read latency, from the interleaved traced
    and untraced blocks of a traced run."""
    for name, q in (("trace.overhead_read_p50_ms", 0.50),
                    ("trace.overhead_read_p99_ms", 0.99)):
        layers.put(name, (common.percentile(traced, q)
                          - common.percentile(untraced, q)) * 1e3,
                   len(traced) + len(untraced))


def zero_missing(layers: Metrics) -> None:
    """Layers the workload never reached read 0 with 0 samples."""
    for name in PER_LAYER:
        layers.setdefault(name, (0.0, 0))


def self_time_table(recorder: common.SpanRecorder) -> list[str]:
    lines = ["self time by span (traced phase):",
             f"  {'span':34} {'count':>8} {'mean ms':>10} {'total s':>10}"]
    for name, (count, total) in sorted(recorder.self_times().items()):
        lines.append(f"  {name:34} {count:8d} {total / count * 1e3:10.4f} "
                     f"{total:10.3f}")
    return lines
