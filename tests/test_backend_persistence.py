"""Hierarchy-backend snapshots: deterministic builds and old meta lines.

The CH and hub builders are single-process and deterministic: two
builds of the same network must persist to the same bytes.  Snapshots
written before construction became single-process carry a
``build_workers`` provenance line in ``meta.txt``; they must keep
loading and answering exactly.
"""

from __future__ import annotations

import pytest

from repro.backends.ch import CHIndex
from repro.backends.hub_labels import HubLabelIndex
from repro.core import KnnType
from repro.core.persistence import load_index, save_index
from repro.network.datasets import uniform_dataset
from repro.network.dijkstra import shortest_path_tree
from repro.network.generators import random_planar_network

BACKENDS = pytest.mark.parametrize(
    "cls", (CHIndex, HubLabelIndex), ids=("ch", "hub")
)


@BACKENDS
def test_rebuild_persists_byte_identical_snapshot(cls, tmp_path):
    network = random_planar_network(150, seed=99)
    dataset = uniform_dataset(network, density=0.05, seed=5)
    first, second = tmp_path / "first", tmp_path / "second"
    save_index(cls.build(network, dataset), first)
    save_index(cls.build(network, dataset), second)
    first_bins = sorted((first / "arrays").glob("*.bin"))
    second_bins = sorted((second / "arrays").glob("*.bin"))
    assert first_bins
    assert [p.name for p in first_bins] == [p.name for p in second_bins]
    for a, b in zip(first_bins, second_bins):
        assert a.read_bytes() == b.read_bytes(), a.name
    assert (first / "meta.txt").read_text() == (
        second / "meta.txt"
    ).read_text()


def test_settle_cap_round_trips_through_persistence(tmp_path):
    network = random_planar_network(80, seed=3)
    dataset = uniform_dataset(network, density=0.05, seed=3)
    index = HubLabelIndex.build(network, dataset, settle_cap=17)
    save_index(index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    assert loaded.settle_cap == 17
    assert loaded.stats()["settle_cap"] == 17


@BACKENDS
def test_snapshot_with_worker_count_line_loads_exact(cls, tmp_path):
    network = random_planar_network(120, seed=21)
    dataset = uniform_dataset(network, density=0.06, seed=4)
    save_index(cls.build(network, dataset), tmp_path / "idx")
    meta = tmp_path / "idx" / "meta.txt"
    meta.write_text(meta.read_text() + "build_workers 2\n")
    loaded = load_index(tmp_path / "idx")
    assert isinstance(loaded, cls)
    oracle = {obj: shortest_path_tree(network, obj) for obj in dataset}
    for node in range(0, network.num_nodes, 7):
        truth = sorted(
            (oracle[obj].distance[node], rank)
            for rank, obj in enumerate(dataset)
        )
        for obj in dataset:
            assert loaded.distance(node, obj) == oracle[obj].distance[node]
        radius = truth[len(truth) // 2][0]
        assert loaded.range_query(node, radius) == [
            obj for obj in dataset if oracle[obj].distance[node] <= radius
        ]
        assert loaded.knn(node, 3, knn_type=KnnType.EXACT_DISTANCES) == [
            (dataset[rank], d) for d, rank in truth[:3]
        ]
