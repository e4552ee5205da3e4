"""Hub-label indexes are ready to repair from the first write on.

Every contraction records its repair state, hub labels are distilled
from the rank-descending search-space DP (the same spaces incremental
maintenance diffs against), and the snapshot format stores what a
repair needs.  So a freshly built *or* freshly loaded hub index
answers its first ``apply_updates`` with a repair, not a rebuild —
while snapshots written before the repair arrays existed still load,
answer exactly, and rebuild on their first write as they always did.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import base
from repro.backends.base import batch_label_join_csr
from repro.backends.ch import (
    ContractionHierarchy,
    RepairState,
    _shortcuts_for,
    changed_rows,
)
from repro.backends.hub_labels import HubLabelIndex, build_labels
from repro.core.changeset import ChangeSet
from repro.core.persistence import load_index, save_index
from repro.errors import PersistenceError
from repro.network.datasets import uniform_dataset
from repro.network.dijkstra import shortest_path_tree
from repro.network.generators import grid_network, random_planar_network
from repro.obs.metrics import MetricsRegistry

BACKENDS = pytest.mark.parametrize("cls", (HubLabelIndex,), ids=("hub",))


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

        # The workspace is thread-local, so measure it in a thread of
        # its own: ``peak`` is the largest capacity the build reserved,
        # and the buffers themselves are released when build returns.
        def build():
            HubLabelIndex.build(network, dataset)
            sizes.append(
                (base._JOIN_WORKSPACE.peak, base._JOIN_WORKSPACE.iota.size)
            )

        worker = threading.Thread(target=build)
        worker.start()
        worker.join()
        assert sizes
        peak, held = sizes[0]
        assert 0 < peak <= 1 << 18
        assert held == 0


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
        stripped = RepairState.ARRAYS + ("up_indptr", "up_targets",
                                         "up_weights")
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


def _reference_replay(order, pairs, visited, network, changed_edges,
                      settle_cap):
    """The full rank-order replay incremental repair must reproduce.

    Rebuilds the contraction overlay of the updated network from
    scratch, replays every contraction in rank order — re-running the
    witness searches of damaged nodes (dependency readers of a changed
    edge's endpoints, plus readers of any endpoint whose recorded pair
    changed), reusing every other node's recorded pairs — and
    assembles the upward CSR from the replayed overlay.  Returns
    ``(indptr, targets, weights, pairs, visited, damaged,
    num_shortcuts)``.
    """
    n = network.num_nodes
    readers = [[] for _ in range(n)]
    for v, seen in enumerate(visited):
        for x in seen:
            readers[x].append(v)
    damaged = np.zeros(n, dtype=bool)
    for edge in changed_edges:
        for x in edge:
            damaged[readers[x]] = True
    adj = [dict() for _ in range(n)]
    for node in range(n):
        for neighbor, weight in network.neighbors(node):
            current = adj[node].get(neighbor)
            if current is None or weight < current:
                adj[node][neighbor] = weight
    contracted = np.zeros(n, dtype=bool)
    new_pairs = list(pairs)
    new_visited = list(visited)
    up_edges = [[] for _ in range(n)]
    num_shortcuts = 0
    for r, v in enumerate(np.argsort(order, kind="stable").tolist()):
        if damaged[v]:
            replayed, _, seen = _shortcuts_for(adj, contracted, v,
                                               settle_cap)
            old_map = {(a, b): w for a, b, w in pairs[v]}
            cur_map = {(a, b): w for a, b, w in replayed}
            for pair in old_map.keys() | cur_map.keys():
                if old_map.get(pair) != cur_map.get(pair):
                    for x in pair:
                        for reader in readers[x]:
                            if order[reader] > r:
                                damaged[reader] = True
            new_pairs[v] = replayed
            new_visited[v] = seen
        up_edges[v] = [
            (u, weight) for u, weight in adj[v].items() if not contracted[u]
        ]
        for a, b, weight in new_pairs[v]:
            existing = adj[a].get(b)
            if existing is None or weight < existing:
                adj[a][b] = weight
                adj[b][a] = weight
                if existing is None:
                    num_shortcuts += 1
        contracted[v] = True
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in up_edges], out=indptr[1:])
    targets = np.array([u for row in up_edges for u, _ in row],
                       dtype=np.int32)
    weights = np.array([w for row in up_edges for _, w in row],
                       dtype=np.float64)
    return (indptr, targets, weights, new_pairs, new_visited,
            int(damaged.sum()), num_shortcuts)


def _edges_of(network):
    return sorted((e.u, e.v) for e in network.edges())


def _stays_connected(network, u, v):
    probe = network.copy()
    probe.remove_edge(u, v)
    return bool(np.isfinite(shortest_path_tree(probe, u).distance[v]))


def _traffic_factor(rng):
    """A ``TrafficSimulator`` draw without its dyadic snap: a clamped
    log-normal factor, so path sums round differently by order."""
    return float(np.clip(np.exp(0.3 * rng.standard_normal()), 0.25, 4.0))


def _random_step(rng, network, hierarchy, fractional=False):
    """A random changeset of add / remove / set_weight deltas on
    distinct edges, sometimes led by a weight decrease on an edge at the
    top-ranked node (damage there reaches the whole upward graph).

    New weights are quarter-integers (exact sums), or with
    ``fractional`` traffic-style multiples of the current or a random
    base weight."""

    def draw(base):
        if fractional:
            return base * _traffic_factor(rng)
        return float(rng.integers(1, 64)) / 4.0

    deltas = []
    used = set()
    if rng.random() < 0.4:
        top = int(np.argmax(hierarchy.order))
        neighbor, weight = network.neighbors(top)[
            int(rng.integers(network.degree(top)))
        ]
        if fractional:
            lower = weight * 0.7
        else:
            lower = weight - 0.25 if weight > 0.25 else weight / 2
        deltas.append(("set_weight", top, neighbor, lower))
        used.add((min(top, neighbor), max(top, neighbor)))
    edges = _edges_of(network)
    for _ in range(int(rng.integers(1, 4))):
        roll = rng.random()
        if roll < 0.5:
            u, v = edges[int(rng.integers(len(edges)))]
            if (u, v) not in used:
                weight = draw(network.edge_weight(u, v))
                deltas.append(("set_weight", u, v, weight))
                used.add((u, v))
        elif roll < 0.75:
            u = int(rng.integers(network.num_nodes))
            v = int(rng.integers(network.num_nodes))
            key = (min(u, v), max(u, v))
            if u != v and key not in used and not network.has_edge(u, v):
                base = float(rng.integers(1, 9)) if fractional else None
                deltas.append(("add", u, v, draw(base)))
                used.add(key)
        else:
            u, v = edges[int(rng.integers(len(edges)))]
            if (u, v) not in used and _stays_connected(network, u, v):
                deltas.append(("remove", u, v))
                used.add((u, v))
    if not deltas:
        u, v = edges[0]
        deltas.append(("set_weight", u, v, network.edge_weight(u, v) + 1))
    return ChangeSet.build(deltas)


def _assert_maintained_state(index, expected, exact_sums=True):
    hierarchy = index.hierarchy
    state = hierarchy.repair_state
    (indptr, targets, weights, pairs, visited, damaged,
     num_shortcuts) = expected
    n = hierarchy.num_nodes
    # Upward CSR, recorded pairs and dependency sets: the full replay's.
    assert np.array_equal(hierarchy.up_indptr, indptr)
    assert np.array_equal(hierarchy.up_targets, targets)
    assert np.array_equal(hierarchy.up_weights, weights)
    assert hierarchy.up_targets.dtype == np.int32
    assert state.pairs == pairs
    assert state.visited == visited
    assert hierarchy.num_shortcuts == num_shortcuts
    # The patched dependency index inverts visited, and the patched
    # reverse CSR transposes the upward CSR.
    reverse = hierarchy.reverse_csr()
    for x in range(n):
        assert state.readers(x) == [
            v for v in range(n) if x in visited[v]
        ]
        assert reverse.row(x) == [
            v for v in range(n)
            if x in targets[indptr[v]:indptr[v + 1]].tolist()
        ]
    for kept, full in zip(index._spaces, hierarchy.batch_search_spaces()):
        assert kept.dtype == full.dtype
        assert np.array_equal(kept, full)
    labels = build_labels(hierarchy)
    for kept, full in zip(
        (index.label_indptr, index.label_hubs, index.label_dists), labels,
    ):
        assert np.array_equal(kept, full)
    for obj in index.dataset:
        tree = shortest_path_tree(index.network, obj)
        for node in range(n):
            want = float(tree.distance[node])
            if exact_sums:
                assert index.distance(node, obj) == want
            else:
                # The label join and Dijkstra add a path's weights in
                # different orders.
                assert index.distance(node, obj) == pytest.approx(
                    want, rel=1e-12
                )


def _replay_steps(cls, nodes, seed, steps, fractional):
    network = random_planar_network(nodes, seed=seed, max_weight=8)
    rng = np.random.default_rng(seed)
    if fractional:
        for u, v in _edges_of(network):
            network.set_edge_weight(
                u, v, network.edge_weight(u, v) * _traffic_factor(rng)
            )
    dataset = uniform_dataset(network, density=0.1, seed=seed)
    index = cls.build(network, dataset)
    # Repair, never rebuild: the comparison is with a replay of the
    # recorded contraction, and tiny graphs blow the damage limit.
    index.repair_threshold = 1.0
    for _ in range(steps):
        hierarchy = index.hierarchy
        state = hierarchy.repair_state
        before = (list(state.pairs), list(state.visited))
        changeset = _random_step(rng, index.network, hierarchy, fractional)
        result = index.apply_updates(changeset)
        assert result.counters.get("repaired") == 1, result.counters
        expected = _reference_replay(
            hierarchy.order, *before, index.network, changeset.edges(),
            hierarchy.settle_cap,
        )
        assert result.counters["damaged_nodes"] == expected[5]
        _assert_maintained_state(index, expected, exact_sums=not fractional)


REPLAY_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
REPLAY_CASES = given(
    nodes=st.integers(min_value=25, max_value=70),
    seed=st.integers(min_value=0, max_value=2**16),
    steps=st.integers(min_value=2, max_value=6),
)


class TestMaintainedRepairState:
    @BACKENDS
    @REPLAY_SETTINGS
    @REPLAY_CASES
    def test_patched_state_equals_a_full_replay(self, cls, nodes, seed,
                                                steps):
        _replay_steps(cls, nodes, seed, steps, fractional=False)

    @BACKENDS
    @REPLAY_SETTINGS
    @REPLAY_CASES
    def test_patched_state_equals_a_full_replay_on_fractional_weights(
        self, cls, nodes, seed, steps
    ):
        # Traffic-style weights that are not dyadic: the hub crossing
        # tests compare sums rounded in different orders, and must
        # still cover every entry a full distillation would change.
        _replay_steps(cls, nodes, seed, steps, fractional=True)


PHASES = ("replay", "spaces", "masks", "redistill", "objects")


class TestRepairPhaseMetrics:
    @BACKENDS
    def test_one_observation_per_repaired_write_within_the_apply_span(
        self, cls
    ):
        network, dataset = _world(seed=31)
        registry = MetricsRegistry()
        index = cls.build(network, dataset, metrics=registry)
        index.repair_threshold = 1.0
        name = cls.backend_name
        histograms = [
            registry.histogram(f"backend.{name}.update.{phase}_seconds")
            for phase in PHASES
        ]
        apply_span = registry.histogram("update.apply.seconds")
        for pick in (3, 11, 40):
            u, v, weight = _an_edge(index.network, pick=pick)
            before = [h.total for h in histograms]
            span_before = apply_span.total
            result = index.apply_updates([("set_weight", u, v, weight + 1.5)])
            assert result.counters.get("repaired") == 1, result.counters
            phase_sum = sum(
                h.total - t for h, t in zip(histograms, before)
            )
            assert 0 < phase_sum <= apply_span.total - span_before
        repaired = registry.counter(f"backend.{name}.update.repaired").value
        assert repaired == 3
        assert [h.count for h in histograms] == [3] * len(histograms)
        # A rebuilt write has no repair phases to report.
        index.repair_threshold = 0.0
        u, v, weight = _an_edge(index.network, pick=5)
        result = index.apply_updates([("set_weight", u, v, weight + 1.0)])
        assert result.counters == {"rebuilt": 1}
        assert [h.count for h in histograms] == [3] * len(histograms)
