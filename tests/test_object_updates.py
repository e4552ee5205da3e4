"""Dataset maintenance: inserting and removing objects at runtime."""

import numpy as np
import pytest

from repro.core import SignatureIndex
from repro.errors import DatasetError, UpdateError


def assert_equals_fresh_build(index):
    """The maintained index equals one built from the current dataset."""
    rebuilt = SignatureIndex.build(
        index.network, index.dataset, index.partition, backend="scipy"
    )
    assert np.array_equal(index.table.categories, rebuilt.table.categories)
    # Compression must stay lossless after maintenance.
    from repro.core.compression import resolve_category

    for node, rank in np.argwhere(index.table.compressed)[:200]:
        assert resolve_category(
            index.table, index.object_table, int(node), int(rank)
        ) == int(index.table.categories[node, rank])


@pytest.fixture()
def index(small_net, small_objs):
    return SignatureIndex.build(
        small_net.copy(), small_objs, backend="scipy", keep_trees=True
    )


class TestAddObject:
    def test_matches_fresh_build(self, index):
        new_node = next(
            v for v in index.network.nodes() if v not in index.dataset
        )
        report = index.add_object(new_node)
        assert len(index.dataset) == 13
        assert index.dataset[-1] == new_node
        assert report.changed_components == index.network.num_nodes
        assert_equals_fresh_build(index)

    def test_queries_see_the_new_object(self, index):
        new_node = next(
            v for v in index.network.nodes() if v not in index.dataset
        )
        index.add_object(new_node)
        # The new object is its own nearest neighbor at its node.
        from repro.core import KnnType

        result = index.knn(new_node, 1, knn_type=KnnType.EXACT_DISTANCES)
        assert result == [(new_node, 0.0)]

    def test_duplicate_rejected(self, index):
        with pytest.raises(UpdateError):
            index.add_object(index.dataset[0])

    def test_trees_extended(self, index):
        new_node = next(
            v for v in index.network.nodes() if v not in index.dataset
        )
        index.add_object(new_node)
        assert index.trees.num_objects == len(index.dataset)
        index.trees.verify_against(index.network, len(index.dataset) - 1)

    def test_subsequent_edge_update_stays_exact(self, index):
        """Object insertion composes with §5.4 edge maintenance."""
        new_node = next(
            v for v in index.network.nodes() if v not in index.dataset
        )
        index.add_object(new_node)
        edge = next(iter(index.network.edges()))
        index.apply_updates([("set_weight", edge.u, edge.v, edge.weight + 2)])
        index.refresh_storage()
        index.verify(sample_nodes=6, seed=0)


class TestRemoveObject:
    def test_matches_fresh_build(self, index):
        victim = index.dataset[3]
        index.remove_object(victim)
        assert victim not in index.dataset
        assert len(index.dataset) == 11
        assert_equals_fresh_build(index)

    def test_queries_forget_the_object(self, index):
        victim = index.dataset[0]
        index.remove_object(victim)
        assert victim not in index.range_query(victim, 0.0)

    def test_missing_object_rejected(self, index):
        non_object = next(
            v for v in index.network.nodes() if v not in index.dataset
        )
        with pytest.raises(DatasetError):
            index.remove_object(non_object)

    def test_last_object_protected(self, small_net):
        from repro.network.datasets import ObjectDataset

        index = SignatureIndex.build(
            small_net, ObjectDataset([5]), backend="python"
        )
        with pytest.raises(UpdateError):
            index.remove_object(5)

    def test_add_then_remove_round_trips(self, index):
        before = index.table.categories.copy()
        new_node = next(
            v for v in index.network.nodes() if v not in index.dataset
        )
        index.add_object(new_node)
        index.remove_object(new_node)
        assert np.array_equal(index.table.categories, before)
