"""The cross-process metric delta protocol: state/drain/merge exactness.

The serving tier's worker telemetry rests on one invariant: *every*
``drain()`` delta, merged anywhere in any order, sums to exactly what a
single shared registry would have recorded.  These tests pin that
invariant generatively — hypothesis drives random observation sequences,
random drain points (including empty and partial deltas), and random
merge interleavings, and the merged result must equal the ground-truth
registry observation-for-observation.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram, MetricsRegistry

# Integer-valued observations make histogram totals exact under any
# summation order; the float case is covered separately with isclose.
_counts = st.lists(st.integers(0, 40), min_size=0, max_size=30)
_values = st.lists(
    st.integers(0, 10_000).map(float), min_size=0, max_size=40
)


class TestHistogramMerge:
    @given(chunks=st.lists(_values, min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_merged_states_equal_single_histogram(self, chunks):
        ground = Histogram("h")
        merged = Histogram("h")
        for chunk in chunks:
            part = Histogram("h")
            for value in chunk:
                ground.observe(value)
                part.observe(value)
            merged.merge_state(part.state())
        assert merged.count == ground.count
        assert merged.total == ground.total
        assert merged.summary() == ground.summary()

    @given(chunks=st.lists(_values, min_size=1, max_size=6))
    @settings(max_examples=30)
    def test_merge_survives_json_round_trip(self, chunks):
        """Worker deltas cross the process boundary as JSON: bucket keys
        become strings, and the merge must absorb that."""
        ground = Histogram("h")
        merged = Histogram("h")
        for chunk in chunks:
            part = Histogram("h")
            for value in chunk:
                ground.observe(value)
                part.observe(value)
            merged.merge_state(json.loads(json.dumps(part.state())))
        assert merged.summary() == ground.summary()

    def test_empty_state_merge_is_identity(self):
        target = Histogram("h")
        target.observe(3.0)
        before = target.summary()
        target.merge_state(Histogram("h").state())
        assert target.summary() == before

    def test_float_totals_merge_close(self):
        ground = Histogram("h")
        merged = Histogram("h")
        part_a, part_b = Histogram("h"), Histogram("h")
        for i in range(200):
            value = 0.1 * (i % 17) + 1e-6
            ground.observe(value)
            (part_a if i % 2 else part_b).observe(value)
        merged.merge_state(part_a.state())
        merged.merge_state(part_b.state())
        assert merged.count == ground.count
        assert math.isclose(merged.total, ground.total, rel_tol=1e-9)
        assert math.isclose(merged.p99, ground.p99, rel_tol=1e-9)


class TestRegistryMerge:
    @given(
        increments=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(1, 9)),
            min_size=0,
            max_size=40,
        ),
        drains=st.integers(1, 5),
    )
    @settings(max_examples=60)
    def test_drained_deltas_sum_to_ground_truth(self, increments, drains):
        """Counters drained at arbitrary points and merged (out of order)
        must sum to exactly the undrained registry."""
        ground = MetricsRegistry()
        worker = MetricsRegistry()
        merged = MetricsRegistry()
        states = []
        chunk = max(1, len(increments) // drains)
        for start in range(0, max(len(increments), 1), chunk):
            for name, amount in increments[start : start + chunk]:
                ground.counter(name).inc(amount)
                worker.counter(name).inc(amount)
            states.append(worker.drain())
        for state in reversed(states):  # order must not matter
            merged.merge_state(state)
        assert (
            merged.snapshot()["counters"] == ground.snapshot()["counters"]
        )
        # drain() reset the worker: a final drain is empty.
        assert worker.drain()["counters"] == {}

    def test_drain_keeps_gauges_last_value_wins(self):
        worker = MetricsRegistry()
        worker.gauge("epoch").set(7)
        state = worker.drain()
        assert state["gauges"] == {"epoch": 7}
        # Not reset: gauges are levels, not flows.
        assert worker.snapshot()["gauges"] == {"epoch": 7}
        target = MetricsRegistry()
        target.gauge("epoch").set(3)
        target.merge_state(state)
        assert target.snapshot()["gauges"]["epoch"] == 7

    def test_merge_under_label_writes_dotted_names(self):
        """A worker delta merged under ``worker`` lands every instrument
        family under ``{name}.worker``, next to unlabelled names."""
        worker = MetricsRegistry()
        worker.counter("pages.logical").inc(5)
        worker.gauge("epoch").set(2)
        worker.histogram("lat").observe(1.0)
        target = MetricsRegistry()
        target.counter("pages.logical").inc(1)
        target.merge_state(worker.drain(), label="worker")
        snapshot = target.snapshot()
        assert snapshot["counters"] == {
            "pages.logical": 1,
            "pages.logical.worker": 5,
        }
        assert snapshot["gauges"] == {"epoch.worker": 2}
        assert list(snapshot["histograms"]) == ["lat.worker"]

    def test_partial_and_empty_worker_deltas(self):
        target = MetricsRegistry()
        target.merge_state(MetricsRegistry().drain())  # wholly empty
        partial = MetricsRegistry()
        partial.counter("only.counters").inc()
        target.merge_state(partial.drain())  # no gauges, no histograms
        snapshot = target.snapshot()
        assert snapshot["counters"] == {"only.counters": 1}
        assert snapshot["gauges"] == {}

    def test_histograms_merge_inside_registry_state(self):
        ground = MetricsRegistry()
        worker_a, worker_b = MetricsRegistry(), MetricsRegistry()
        for i, value in enumerate([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]):
            ground.histogram("lat").observe(value)
            (worker_a if i % 2 else worker_b).histogram("lat").observe(value)
        merged = MetricsRegistry()
        merged.merge_state(worker_a.drain())
        merged.merge_state(worker_b.drain())
        assert (
            merged.histogram("lat").summary()
            == ground.histogram("lat").summary()
        )

    def test_version_mismatch_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="version"):
            MetricsRegistry().merge_state({"version": 99})

    def test_labelled_names_survive_drain_and_remerge(self):
        """Labelled names are ordinary names once merged: draining the
        coordinator and re-merging keeps ``{name}.{label}`` verbatim."""
        worker = MetricsRegistry()
        worker.counter("pages").inc(3)
        coordinator = MetricsRegistry()
        coordinator.merge_state(worker.drain(), label="worker")
        assert coordinator.state()["counters"] == {"pages.worker": 3}
        target = MetricsRegistry()
        target.merge_state(coordinator.drain())
        assert target.snapshot()["counters"] == {"pages.worker": 3}
        # Drained: the coordinator's counters are reset.
        assert all(
            v == 0 for v in coordinator.snapshot()["counters"].values()
        )
