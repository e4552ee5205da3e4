"""Vectorized batch label-join kernel equivalence.

Pins :func:`~repro.backends.base.batch_label_join_csr` to the scalar
sorted-merge it replaces — bit-identical on random planar networks,
including disconnected pairs — and every backend's ``distance_batch`` to
its scalar ``distance``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.base import batch_label_join_csr, label_join
from repro.backends.ch import ContractionHierarchy
from repro.backends.hub_labels import HubLabelIndex, build_labels
from repro.errors import DisconnectedError
from repro.network.datasets import ObjectDataset
from repro.network.generators import random_planar_network
from repro.network.graph import RoadNetwork


def _two_component_network() -> RoadNetwork:
    """Two separate paths: 0-1-2 and 3-4."""
    net = RoadNetwork([(0, 0), (1, 0), (2, 0), (9, 9), (10, 9)])
    net.add_edge(0, 1, 2.0)
    net.add_edge(1, 2, 3.0)
    net.add_edge(3, 4, 1.0)
    return net


class TestBatchKernelEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        num_nodes=st.integers(20, 90),
        seed=st.integers(0, 10_000),
        pair_seed=st.integers(0, 10_000),
    )
    def test_batch_join_matches_scalar_join(
        self, num_nodes, seed, pair_seed
    ):
        network = random_planar_network(num_nodes, seed=seed)
        hierarchy = ContractionHierarchy.build(network)
        indptr, hubs, dists = build_labels(hierarchy)
        rng = np.random.default_rng(pair_seed)
        left = rng.integers(0, num_nodes, size=64)
        right = rng.integers(0, num_nodes, size=64)
        batched = batch_label_join_csr(indptr, hubs, dists, left, right)
        for u, v, got in zip(left, right, batched):
            lo_u, hi_u = indptr[u], indptr[u + 1]
            lo_v, hi_v = indptr[v], indptr[v + 1]
            want = label_join(
                hubs[lo_u:hi_u], dists[lo_u:hi_u],
                hubs[lo_v:hi_v], dists[lo_v:hi_v],
            )
            assert got == want  # bit-identical, not approx

    def test_disconnected_pairs_are_inf(self):
        hierarchy = ContractionHierarchy.build(_two_component_network())
        indptr, hubs, dists = build_labels(hierarchy)
        out = batch_label_join_csr(
            indptr, hubs, dists,
            np.array([0, 2, 3, 0]), np.array([3, 4, 4, 2]),
        )
        assert math.isinf(out[0]) and math.isinf(out[1])
        assert out[2] == 1.0
        assert out[3] == 5.0

    def test_distance_batch_parity_across_backends(self):
        """Every index family answers ``distance_batch`` with exactly its
        scalar answers; the signature family maps its scalar
        ``DisconnectedError`` to ``inf`` in the batch."""
        from repro.core import SignatureIndex

        network = _two_component_network()
        dataset = ObjectDataset([0, 4])
        nodes = [0, 1, 2, 3, 4, 2]
        objects = [0, 0, 4, 4, 4, 0]
        for build in (
            lambda: SignatureIndex.build(network, dataset, backend="python"),
            lambda: HubLabelIndex.build(network, dataset),
        ):
            index = build()
            batch = index.distance_batch(nodes, objects)
            for node, obj, got in zip(nodes, objects, batch):
                try:
                    want = index.distance(node, obj)
                except DisconnectedError:
                    want = math.inf
                if isinstance(want, float) and math.isinf(want):
                    assert math.isinf(got), (type(index).__name__, node, obj)
                else:
                    assert got == want, (type(index).__name__, node, obj)

    def test_distance_batch_validates_before_computing(self):
        index = HubLabelIndex.build(
            _two_component_network(), ObjectDataset([0])
        )
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            index.distance_batch([0, 1], [0])  # misaligned
        with pytest.raises(Exception):
            index.distance_batch([0], [1])  # 1 is not an object
