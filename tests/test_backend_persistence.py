"""Hub-label snapshots: deterministic builds and old snapshots.

The hub builder is single-process and deterministic: two builds of the
same network must persist to the same bytes.  Snapshots written before
construction became single-process carry a ``build_workers``
provenance line in ``meta.txt``; they must keep loading and answering
exactly.  Snapshots of the removed contraction-hierarchy backend must
fail loudly, with a rebuild hint.
"""

from __future__ import annotations

import pytest

from repro.backends import build_backend
from repro.backends.hub_labels import HubLabelIndex
from repro.cli import main as cli_main
from repro.core import KnnType
from repro.core.persistence import load_index, save_index
from repro.errors import PersistenceError
from repro.network.datasets import uniform_dataset
from repro.network.dijkstra import shortest_path_tree
from repro.network.generators import random_planar_network

BACKENDS = pytest.mark.parametrize("cls", (HubLabelIndex,), ids=("hub",))


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


def _ch_snapshot(directory):
    """A directory shaped like a contraction-hierarchy snapshot."""
    directory.mkdir()
    (directory / "meta.txt").write_text(
        "repro-ch-index 1\nboundaries 10.0\nnum_shortcuts 3\n"
    )
    return directory


class TestRemovedCHBackend:
    def test_ch_snapshot_raises_rebuild_hint(self, tmp_path):
        directory = _ch_snapshot(tmp_path / "old")
        with pytest.raises(PersistenceError) as excinfo:
            load_index(directory)
        assert excinfo.value.magic == "repro-ch-index 1"
        message = str(excinfo.value)
        assert "contraction-hierarchy" in message
        assert "repro build" in message

    def test_ch_snapshot_fails_repro_info(self, tmp_path, capsys):
        directory = _ch_snapshot(tmp_path / "old")
        assert cli_main(["info", str(directory)]) == 1
        err = capsys.readouterr().err
        assert "contraction-hierarchy" in err
        assert "repro build" in err

    def test_ch_is_an_unknown_backend(self):
        network = random_planar_network(30, seed=1)
        dataset = uniform_dataset(network, density=0.1, seed=1)
        with pytest.raises(ValueError, match="unknown backend 'ch'"):
            build_backend("ch", network, dataset)
