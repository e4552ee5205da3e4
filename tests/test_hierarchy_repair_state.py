"""Hierarchy indexes are ready to repair from the first write on.

Every contraction records its repair state, hub labels are distilled
from the rank-descending search-space DP (the same spaces incremental
maintenance diffs against), and both snapshot formats store what a
repair needs.  So a freshly built *or* freshly loaded CH/hub index
answers its first ``apply_updates`` with a repair, not a rebuild —
while snapshots written before the repair arrays existed still load,
answer exactly, and rebuild on their first write as they always did.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.backends import base
from repro.backends.base import batch_label_join_csr
from repro.backends.ch import (
    CHIndex,
    ContractionHierarchy,
    RepairState,
    changed_rows,
)
from repro.backends.hub_labels import HubLabelIndex, build_labels
from repro.core.persistence import load_index, save_index
from repro.errors import PersistenceError
from repro.network.datasets import uniform_dataset
from repro.network.dijkstra import shortest_path_tree
from repro.network.generators import grid_network, random_planar_network

BACKENDS = pytest.mark.parametrize(
    "cls", (CHIndex, HubLabelIndex), ids=("ch", "hub")
)


def _world(num_nodes=300, seed=17):
    network = random_planar_network(num_nodes, seed=seed)
    dataset = uniform_dataset(network, density=0.06, seed=seed)
    return network, dataset


def _an_edge(network, pick=3):
    edges = sorted((min(e.u, e.v), max(e.u, e.v), e.weight)
                   for e in network.edges())
    return edges[pick]


def _assert_matches_fresh_build(index, cls):
    fresh = cls.build(index.network.copy(), index.dataset)
    for obj in index.dataset:
        tree = shortest_path_tree(index.network, obj)
        for node in range(index.network.num_nodes):
            want = float(tree.distance[node])
            assert index.distance(node, obj) == want
            assert fresh.distance(node, obj) == want
    for node in range(0, index.network.num_nodes, 11):
        assert index.range_query(node, 30.0) == fresh.range_query(node, 30.0)


def _stalled_space_labels(hierarchy):
    """The previous distillation, kept as a reference: one stalled
    upward Dijkstra per node, then the same exactness pruning."""
    n = hierarchy.num_nodes
    spaces = [hierarchy.search_space(v) for v in range(n)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(nodes) for nodes, _ in spaces], out=indptr[1:])
    hubs = np.concatenate([nodes for nodes, _ in spaces])
    dists = np.concatenate([d for _, d in spaces])
    owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keep = np.zeros(len(hubs), dtype=bool)
    for lo in range(0, len(hubs), 4096):
        exact = batch_label_join_csr(
            indptr, hubs, dists, owners[lo:lo + 4096],
            hubs[lo:lo + 4096].astype(np.int64),
        )
        keep[lo:lo + 4096] = ~(exact < dists[lo:lo + 4096])
    label_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners[keep], minlength=n), out=label_indptr[1:])
    return label_indptr, hubs[keep].astype(np.int32), dists[keep]


class TestDistillation:
    @pytest.mark.parametrize(
        "network",
        [
            random_planar_network(60, seed=1),
            random_planar_network(250, seed=8),
            random_planar_network(400, seed=41, max_weight=3),
            grid_network(12, 15),
        ],
        ids=["planar-60", "planar-250", "planar-400-narrow", "grid"],
    )
    def test_dp_space_labels_equal_stalled_space_labels(self, network):
        hierarchy = ContractionHierarchy.build(network)
        got = build_labels(hierarchy)
        want = _stalled_space_labels(hierarchy)
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype
            assert np.array_equal(got_array, want_array)

    def test_build_keeps_the_space_csr_it_distilled_from(self):
        network, dataset = _world()
        index = HubLabelIndex.build(network, dataset)
        assert index.hierarchy.repair_state is not None
        spaces = index.hierarchy.batch_search_spaces()
        for kept, fresh in zip(index._spaces, spaces):
            assert np.array_equal(kept, fresh)

    def test_label_build_keeps_the_join_workspace_small(self):
        network = random_planar_network(2000, seed=3)
        dataset = uniform_dataset(network, density=0.01, seed=3)
        sizes = []

        # The workspace is thread-local and only ever grows, so measure
        # it in a thread of its own.
        def build():
            HubLabelIndex.build(network, dataset)
            sizes.append(base._JOIN_WORKSPACE.iota.size)

        worker = threading.Thread(target=build)
        worker.start()
        worker.join()
        assert sizes and 0 < sizes[0] <= 1 << 18


class TestFirstWriteRepairs:
    @BACKENDS
    def test_fresh_index_repairs_its_first_write(self, cls):
        network, dataset = _world()
        index = cls.build(network, dataset)
        u, v, weight = _an_edge(network)
        result = index.apply_updates([("set_weight", u, v, weight + 2.0)])
        assert result.counters.get("repaired") == 1, result.counters
        assert "rebuilt" not in result.counters
        _assert_matches_fresh_build(index, cls)

    @BACKENDS
    def test_loaded_snapshot_repairs_its_first_write(self, cls, tmp_path):
        network, dataset = _world()
        save_index(cls.build(network, dataset), tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert isinstance(loaded, cls)
        assert loaded.hierarchy.repair_state is not None
        u, v, weight = _an_edge(loaded.network)
        result = loaded.apply_updates([("set_weight", u, v, weight + 2.0)])
        assert result.counters.get("repaired") == 1, result.counters
        assert "rebuilt" not in result.counters
        _assert_matches_fresh_build(loaded, cls)

    @BACKENDS
    def test_repaired_index_round_trips_and_keeps_repairing(
        self, cls, tmp_path
    ):
        network, dataset = _world(seed=5)
        index = cls.build(network, dataset)
        u, v, weight = _an_edge(network, pick=7)
        index.apply_updates([("set_weight", u, v, weight + 1.0)])
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        u, v, weight = _an_edge(loaded.network, pick=20)
        result = loaded.apply_updates([("set_weight", u, v, weight + 3.0)])
        assert result.counters.get("repaired") == 1, result.counters
        _assert_matches_fresh_build(loaded, cls)


def _strip_arrays(directory, names):
    """Rewrite a snapshot as the format looked before ``names`` existed."""
    manifest_path = directory / "arrays" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for name in names:
        manifest.pop(name)
        (directory / "arrays" / f"{name}.bin").unlink()
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


class TestOlderSnapshots:
    @BACKENDS
    def test_snapshot_without_repair_arrays_loads_and_rebuilds(
        self, cls, tmp_path
    ):
        network, dataset = _world(seed=23)
        save_index(cls.build(network, dataset), tmp_path / "idx")
        stripped = RepairState.ARRAYS
        if cls is HubLabelIndex:
            stripped += ("up_indptr", "up_targets", "up_weights")
            meta = tmp_path / "idx" / "meta.txt"
            meta.write_text(
                "".join(
                    line for line in meta.read_text().splitlines(True)
                    if not line.startswith("num_shortcuts")
                )
            )
        _strip_arrays(tmp_path / "idx", stripped)
        loaded = load_index(tmp_path / "idx")
        for obj in dataset:
            tree = shortest_path_tree(network, obj)
            for node in range(0, network.num_nodes, 3):
                assert loaded.distance(node, obj) == float(
                    tree.distance[node]
                )
        u, v, weight = _an_edge(network)
        result = loaded.apply_updates([("set_weight", u, v, weight + 2.0)])
        assert result.counters == {"rebuilt": 1}
        _assert_matches_fresh_build(loaded, cls)
        # The rebuild recorded, so the next write repairs.
        u, v, weight = _an_edge(loaded.network, pick=9)
        result = loaded.apply_updates([("set_weight", u, v, weight + 1.0)])
        assert result.counters.get("repaired") == 1, result.counters

    @BACKENDS
    def test_partial_repair_arrays_are_a_persistence_error(
        self, cls, tmp_path
    ):
        network, dataset = _world(seed=29)
        save_index(cls.build(network, dataset), tmp_path / "idx")
        _strip_arrays(tmp_path / "idx", ("repair_visited",))
        with pytest.raises(PersistenceError):
            load_index(tmp_path / "idx")


class TestRepairPieces:
    def test_repair_state_array_round_trip(self):
        network, _ = _world(num_nodes=120, seed=2)
        state = ContractionHierarchy.build(network).repair_state
        restored = RepairState.from_arrays(state.to_arrays(), 120)
        assert restored.pairs == state.pairs
        assert restored.visited == state.visited
        with pytest.raises(ValueError):
            RepairState.from_arrays(state.to_arrays(), 121)

    def test_changed_rows_matches_a_per_row_compare(self):
        rng = np.random.default_rng(4)
        rows = 200
        old_len = rng.integers(0, 5, size=rows)
        new_len = np.where(
            rng.random(rows) < 0.1, rng.integers(0, 5, size=rows), old_len
        )
        old_indptr = np.r_[0, np.cumsum(old_len)]
        new_indptr = np.r_[0, np.cumsum(new_len)]
        old_cols = rng.integers(0, 3, size=old_indptr[-1])
        old_vals = rng.integers(0, 3, size=old_indptr[-1]).astype(float)
        new_cols = rng.integers(0, 3, size=new_indptr[-1])
        new_vals = rng.integers(0, 3, size=new_indptr[-1]).astype(float)
        want = np.array([
            not (
                np.array_equal(old_cols[old_indptr[r]:old_indptr[r + 1]],
                               new_cols[new_indptr[r]:new_indptr[r + 1]])
                and np.array_equal(
                    old_vals[old_indptr[r]:old_indptr[r + 1]],
                    new_vals[new_indptr[r]:new_indptr[r + 1]])
            )
            for r in range(rows)
        ])
        got = changed_rows(
            (old_indptr, old_cols, old_vals), (new_indptr, new_cols, new_vals)
        )
        assert np.array_equal(got, want)
        subset = np.arange(0, rows, 3)
        got = changed_rows(
            (old_indptr, old_cols, old_vals),
            (new_indptr, new_cols, new_vals),
            rows=subset,
        )
        assert np.array_equal(np.flatnonzero(got),
                              subset[want[subset]])
