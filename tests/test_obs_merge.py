"""Histogram state/merge exactness.

The load generator reduces per-client latency histograms with
``Histogram.merge_state``; the merged distribution must equal what one
shared histogram would have recorded.  These tests pin that invariant
generatively — hypothesis drives random observation sequences split
into random chunks, and the merged result must equal the ground-truth
histogram observation-for-observation.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram

# Integer-valued observations make histogram totals exact under any
# summation order; the float case is covered separately with isclose.
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
        """A state that went through JSON has string bucket keys; the
        merge must absorb that."""
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
