"""The unified ``apply_updates`` pipeline, end to end.

Three layers of guarantees:

* **Interleaving equivalence (hypothesis)** — random alternations of
  coalesced changesets and queries, applied to all four
  ``DistanceIndex`` implementations at once, must keep every
  implementation bit-identical to a Dijkstra oracle on the mutated
  network after *every* step.
* **Repair vs rebuild** — the hierarchy backends' incremental repair
  (forced via ``repair_threshold = 1.0``) must produce the same
  distances as their rebuild-on-update fallback, with the
  ``repaired`` / ``rebuilt`` counters proving which path ran.
* **Serving coordinator** — concurrent writes coalesce into one
  changeset per write-lock acquisition, inconsistent batches degrade so
  errors land on the causing request, and the update log compacts once
  acknowledged.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import build_backend
from repro.core import SignatureIndex
from repro.core.changeset import ChangeSet, apply_changeset_to_network
from repro.errors import DatasetError, QueryError
from repro.network import random_planar_network, uniform_dataset
from repro.network.dijkstra import shortest_path_tree
from repro.obs.metrics import MetricsRegistry
from repro.serve.coordinator import UpdateCoordinator

NUM_NODES = 90
SEED = 23


def _world(seed: int = SEED):
    network = random_planar_network(NUM_NODES, seed=seed)
    dataset = uniform_dataset(network, density=0.06, seed=seed)
    return network, dataset


def _all_implementations(network, dataset):
    """All four DistanceIndex implementations, repair paths forced on."""
    indexes = {
        "signature": SignatureIndex.build(
            network.copy(), dataset, keep_trees=True
        ),
        "columnar": SignatureIndex.build(
            network.copy(), dataset, keep_trees=True,
            query_engine="columnar",
        ),
        "ch": build_backend("ch", network.copy(), dataset),
        "hub": build_backend("hub", network.copy(), dataset),
    }
    # Tiny networks blow the default damage threshold immediately; the
    # interleaving test is about the *incremental* path, so force it.
    indexes["ch"].repair_threshold = 1.0
    indexes["hub"].repair_threshold = 1.0
    return indexes


def _random_changeset(rng, network) -> ChangeSet:
    """1–2 safe random deltas against the current ``network`` state.

    ``set_weight`` draws dyadic-grid weights (exact float sums, so the
    oracle comparison below is bit-for-bit), ``add`` picks a currently
    missing edge; ``remove`` is only emitted for an edge whose removal
    provably keeps the graph connected (checked with a throwaway
    Dijkstra), because the signature family's distance() semantics for
    disconnected pairs differ by design (DisconnectedError vs inf).
    """
    deltas = []
    edges = sorted((min(e.u, e.v), max(e.u, e.v)) for e in network.edges())
    for _ in range(int(rng.integers(1, 3))):
        roll = rng.random()
        if roll < 0.6:
            u, v = edges[int(rng.integers(len(edges)))]
            weight = float(rng.integers(1, 4096)) / 1024.0
            deltas.append(("set_weight", u, v, weight))
        elif roll < 0.8:
            for _ in range(20):
                u = int(rng.integers(network.num_nodes))
                v = int(rng.integers(network.num_nodes))
                if u != v and not network.has_edge(u, v):
                    weight = float(rng.integers(1, 4096)) / 1024.0
                    deltas.append(("add", u, v, weight))
                    break
        else:
            u, v = edges[int(rng.integers(len(edges)))]
            probe = network.copy()
            probe.remove_edge(u, v)
            if np.all(np.isfinite(shortest_path_tree(probe, 0).distance)):
                deltas.append(("remove", u, v))
    if not deltas:
        u, v = edges[0]
        deltas.append(("set_weight", u, v, 2.0))
    # Deltas may collide on an edge; build() coalesces — rebuild from
    # the raw list only if the sequence is consistent, else retry with
    # the first delta alone (always consistent).
    try:
        changeset = ChangeSet.build(deltas)
    except QueryError:
        changeset = ChangeSet.build(deltas[:1])
    return changeset if changeset else ChangeSet.build(deltas[:1])


def _assert_oracle_equivalence(indexes, network, dataset):
    """Every implementation == fresh Dijkstra, bit for bit."""
    trees = {obj: shortest_path_tree(network, obj) for obj in dataset}
    nodes = range(0, network.num_nodes, 7)
    for node in nodes:
        for rank, obj in enumerate(dataset):
            want = float(trees[obj].distance[node])
            for name, index in indexes.items():
                got = index.distance(node, obj)
                assert got == want, (
                    f"{name}: d({node},{obj}) = {got}, oracle {want}"
                )
    # Range queries agree too (object identities, oracle-derived).
    radius = 40.0
    for node in nodes:
        want = sorted(
            obj for obj in dataset
            if float(trees[obj].distance[node]) <= radius
        )
        for name, index in indexes.items():
            assert sorted(index.range_query(node, radius)) == want, name


class TestInterleavings:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 1000), steps=st.integers(1, 3))
    def test_all_four_implementations_track_the_oracle(self, seed, steps):
        network, dataset = _world()
        indexes = _all_implementations(network, dataset)
        oracle_net = network.copy()
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            changeset = _random_changeset(rng, oracle_net)
            apply_changeset_to_network(oracle_net, changeset)
            for index in indexes.values():
                # Raw tuples on purpose: every entry point must coerce.
                result = index.apply_updates(changeset.as_tuples())
                assert result.applied == len(changeset)
            _assert_oracle_equivalence(indexes, oracle_net, dataset)


class TestRepairVsRebuild:
    @pytest.mark.parametrize("name", ["ch", "hub"])
    def test_incremental_repair_matches_rebuild(self, name):
        network, dataset = _world(seed=31)
        repair_registry = MetricsRegistry()
        repairing = build_backend(
            name, network.copy(), dataset, metrics=repair_registry
        )
        repairing.repair_threshold = 1.0
        repairing.relabel_threshold = 1.0
        rebuild_registry = MetricsRegistry()
        rebuilding = build_backend(
            name, network.copy(), dataset, metrics=rebuild_registry
        )
        oracle_net = network.copy()
        rng = np.random.default_rng(7)
        for _ in range(4):
            changeset = _random_changeset(rng, oracle_net)
            apply_changeset_to_network(oracle_net, changeset)
            repair_result = repairing.apply_updates(changeset)
            rebuild_result = rebuilding.apply_updates(changeset)
            assert repair_result.counters.get("repaired") == 1, (
                repair_result.counters
            )
            assert "rebuilt" not in repair_result.counters
            assert rebuild_result.counters == {"rebuilt": 1}
            trees = {obj: shortest_path_tree(oracle_net, obj)
                     for obj in dataset}
            for node in range(0, NUM_NODES, 5):
                for obj in dataset:
                    want = float(trees[obj].distance[node])
                    assert repairing.distance(node, obj) == want
                    assert rebuilding.distance(node, obj) == want
        assert repair_registry.counter(
            f"backend.{name}.update.repaired"
        ).value == 4
        assert repair_registry.counter(
            f"backend.{name}.update.rebuilt"
        ).value == 0
        assert rebuild_registry.counter(
            f"backend.{name}.update.rebuilt"
        ).value == 4

    @pytest.mark.parametrize("name", ["ch", "hub"])
    def test_damage_threshold_falls_back_to_rebuild(self, name):
        network, dataset = _world(seed=31)
        index = build_backend(name, network.copy(), dataset)
        index.repair_threshold = 0.0  # every repair is "too damaged"
        edge = next(iter(network.edges()))
        result = index.apply_updates(
            [("set_weight", edge.u, edge.v, 3.5)]
        )
        assert result.counters == {"rebuilt": 1}
        oracle = shortest_path_tree(index.network, dataset[0])
        assert index.distance(5, dataset[0]) == float(oracle.distance[5])


# ----------------------------------------------------------------------
# serving coordinator: batching, degradation, compaction
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_world():
    network, dataset = _world(seed=47)
    return network, dataset


def _coordinator(network, dataset):
    registry = MetricsRegistry()
    index = SignatureIndex.build(network.copy(), dataset, keep_trees=True)
    return UpdateCoordinator(index, registry=registry), registry


class TestCoordinatorBatching:
    def test_concurrent_writes_coalesce_into_one_changeset(
        self, serving_world
    ):
        network, dataset = serving_world
        coordinator, registry = _coordinator(network, dataset)
        edges = sorted(
            (min(e.u, e.v), max(e.u, e.v)) for e in network.edges()
        )[:6]

        async def main():
            results = await asyncio.gather(
                *(
                    coordinator.apply("set_weight", u, v, 2.0 + i)
                    for i, (u, v) in enumerate(edges)
                )
            )
            return results

        results = asyncio.run(main())
        # All six writes landed in one changeset: one epoch, one shared
        # ApplyResult.
        assert coordinator.epoch == 1
        assert all(r is results[0] for r in results)
        assert results[0].epoch == 1
        assert results[0].applied == len(edges)
        assert registry.counter("serve.update_batches").value == 1
        for (u, v), weight in zip(edges, (2.0, 3.0, 4.0, 5.0, 6.0, 7.0)):
            assert coordinator.index.network.edge_weight(u, v) == weight

    def test_single_write_logs_one_delta_changeset(self, serving_world):
        network, dataset = serving_world
        coordinator, _ = _coordinator(network, dataset)
        edge = sorted(
            (min(e.u, e.v), max(e.u, e.v)) for e in network.edges()
        )[0]

        async def main():
            return await coordinator.apply(
                "set_weight", edge[0], edge[1], 3.25
            )

        result = asyncio.run(main())
        assert result.epoch == 1
        assert result.applied == 1
        assert coordinator.index.network.edge_weight(*edge) == 3.25

    def test_bad_request_is_a_query_error(self, serving_world):
        network, dataset = serving_world
        coordinator, _ = _coordinator(network, dataset)

        async def main():
            with pytest.raises(QueryError):
                await coordinator.apply("teleport", 0, 1, 2.0)
            with pytest.raises(QueryError):
                await coordinator.apply("add", 0, 1, None)
            with pytest.raises(QueryError):
                await coordinator.apply("set_weight", 0, 1, -4.0)

        asyncio.run(main())
        assert coordinator.epoch == 0

    def test_mixed_batch_degrades_per_request(self, serving_world):
        network, dataset = serving_world
        coordinator, registry = _coordinator(network, dataset)
        edge = sorted(
            (min(e.u, e.v), max(e.u, e.v)) for e in network.edges()
        )[0]

        async def main():
            return await asyncio.gather(
                coordinator.apply("set_weight", edge[0], edge[1], 5.0),
                # Unknown edge: fails network validation, must not sink
                # the valid write it was batched with.
                coordinator.apply("set_weight", 0, NUM_NODES - 1, 5.0),
                return_exceptions=True,
            )

        ok, bad = asyncio.run(main())
        assert ok.applied == 1
        assert isinstance(bad, DatasetError)
        assert coordinator.epoch == 1
        assert registry.counter("serve.update_errors").value == 1
        assert coordinator.index.network.edge_weight(*edge) == 5.0

    def test_cancelling_batch_applies_nothing(self, serving_world):
        network, dataset = serving_world
        coordinator, _ = _coordinator(network, dataset)
        u, v = 0, NUM_NODES - 1
        assert not coordinator.index.network.has_edge(u, v)

        async def main():
            return await asyncio.gather(
                coordinator.apply("add", u, v, 9.0),
                coordinator.apply("remove", u, v),
            )

        first, second = asyncio.run(main())
        # add+remove coalesce to nothing: no epoch, and the edge never
        # existed.
        assert first.applied == 0 and second.applied == 0
        assert coordinator.epoch == 0
        assert not coordinator.index.network.has_edge(u, v)
