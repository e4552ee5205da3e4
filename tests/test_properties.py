"""Cross-cutting property tests (hypothesis) on randomized configurations.

These complement the per-module suites with generative checks on whole
subsystem compositions: random pager layouts, random serialized tables,
tie-heavy grid topologies, and randomized index configurations.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SignatureIndex
from repro.core.categories import CategoryPartition
from repro.core.persistence import _count_bits, deserialize_table, serialize_table
from repro.core.signature import SignatureTable
from repro.network.datasets import ObjectDataset
from repro.network.generators import grid_network, manhattan_network
from repro.storage.pager import PagedFile


class TestPagerProperties:
    @given(
        sizes=st.lists(st.integers(0, 200), min_size=1, max_size=60),
        page_size=st.integers(1, 16),
    )
    def test_spanning_layout_is_dense_and_ordered(self, sizes, page_size):
        file = PagedFile("t", page_size=page_size, spanning=True)
        locations = [
            file.append_record(i, bits) for i, bits in enumerate(sizes)
        ]
        # Page ranges are monotone non-decreasing in placement order.
        for a, b in zip(locations, locations[1:]):
            assert b.first_page >= a.first_page
        # Total pages exactly cover the payload.
        total_bits = sum(sizes)
        expected_pages = (total_bits + page_size * 8 - 1) // (page_size * 8)
        assert file.num_pages == expected_pages
        assert file.payload_bits == total_bits

    @given(
        sizes=st.lists(st.integers(1, 64), min_size=1, max_size=40),
        page_size=st.integers(8, 16),
    )
    def test_non_spanning_records_never_straddle(self, sizes, page_size):
        file = PagedFile("t", page_size=page_size, spanning=False)
        for i, bits in enumerate(sizes):
            location = file.append_record(i, bits)
            assert location.first_page == location.last_page

    @given(sizes=st.lists(st.integers(0, 100), min_size=1, max_size=40))
    def test_read_touches_exactly_num_pages(self, sizes):
        file = PagedFile("t", page_size=2, spanning=True)
        for i, bits in enumerate(sizes):
            file.append_record(i, bits)
        for i in range(len(sizes)):
            before = file.counter.logical_reads
            location = file.read(i)
            assert file.counter.logical_reads - before == location.num_pages


class TestSerializationProperties:
    @given(
        num_nodes=st.integers(1, 8),
        num_objects=st.integers(1, 6),
        num_categories=st.integers(1, 6),
        max_degree=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        encoding=st.sampled_from(["raw", "encoded", "compressed"]),
    )
    @settings(max_examples=60)
    def test_random_tables_round_trip(
        self, num_nodes, num_objects, num_categories, max_degree, seed, encoding
    ):
        rng = np.random.default_rng(seed)
        partition = CategoryPartition(
            [float(2**i) for i in range(num_categories - 1)]
            if num_categories > 1
            else []
        )
        categories = rng.integers(
            0, num_categories + 1, size=(num_nodes, num_objects)
        ).astype(np.int16)  # includes the unreachable sentinel
        links = rng.integers(
            -2, max_degree, size=(num_nodes, num_objects)
        ).astype(np.int32)
        table = SignatureTable(partition, categories, links, max_degree)
        if encoding == "compressed":
            # Random flags, but never on a component another flagged one
            # would need as a base: keep it simple — flag only components
            # that share a link with an unflagged, lower-category one.
            table.compressed = rng.random((num_nodes, num_objects)) < 0.3
        data = serialize_table(table, encoding=encoding)
        bits = _count_bits(table, encoding)
        loaded = deserialize_table(
            data, bits, partition, num_nodes, num_objects, max_degree,
            encoding=encoding,
        )
        assert np.array_equal(loaded.links, table.links)
        if encoding == "compressed":
            assert np.array_equal(loaded.compressed, table.compressed)
            mask = ~table.compressed
            assert np.array_equal(
                loaded.categories[mask], table.categories[mask]
            )
        else:
            assert np.array_equal(loaded.categories, table.categories)


class TestGridIndexProperties:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=st.integers(4, 9),
        cols=st.integers(4, 9),
        seed=st.integers(0, 1000),
    )
    def test_unit_grid_distances_are_manhattan(self, rows, cols, seed):
        """On the §5.1 unit grid the index must return L1 distances —
        ties everywhere, the worst case for comparison logic."""
        network = grid_network(rows, cols)
        rng = np.random.default_rng(seed)
        objects = ObjectDataset(
            sorted(
                int(v)
                for v in rng.choice(
                    network.num_nodes,
                    size=min(4, network.num_nodes),
                    replace=False,
                )
            )
        )
        index = SignatureIndex.build(network, objects, backend="scipy")
        for node in rng.choice(network.num_nodes, 6, replace=False):
            node = int(node)
            r1, c1 = divmod(node, cols)
            for rank, obj in enumerate(objects):
                r2, c2 = divmod(obj, cols)
                from repro.core.operations import retrieve_distance

                assert retrieve_distance(index, node, rank) == abs(
                    r1 - r2
                ) + abs(c1 - c2)

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 1000))
    def test_manhattan_city_knn_matches_brute_force(self, seed):
        from repro.network.dijkstra import shortest_path_tree

        city = manhattan_network(12, 12, arterial_every=4, street_weight=3.0)
        rng = np.random.default_rng(seed)
        objects = ObjectDataset(
            sorted(int(v) for v in rng.choice(city.num_nodes, 6, replace=False))
        )
        index = SignatureIndex.build(city, objects, backend="scipy")
        for node in rng.choice(city.num_nodes, 5, replace=False):
            node = int(node)
            got = index.knn(node, 3)
            truth = sorted(
                shortest_path_tree(city, obj).distance[node] for obj in objects
            )[:3]
            got_distances = sorted(
                shortest_path_tree(city, obj).distance[node] for obj in got
            )
            assert got_distances == truth

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 1000))
    def test_grid_update_stream_matches_rebuild(self, seed):
        """Tie-heavy grids through random re-weighting: incremental
        maintenance must keep exact distances."""
        network = grid_network(6, 6)
        rng = np.random.default_rng(seed)
        objects = ObjectDataset(
            sorted(int(v) for v in rng.choice(36, 3, replace=False))
        )
        index = SignatureIndex.build(
            network, objects, backend="python", keep_trees=True
        )
        edges = list(network.edges())
        for _ in range(4):
            edge = edges[int(rng.integers(len(edges)))]
            index.apply_updates([(
                "set_weight", edge.u, edge.v, float(rng.integers(1, 5))
            )])
        rebuilt = SignatureIndex.build(
            network, objects, index.partition, backend="python",
            keep_trees=True,
        )
        assert np.array_equal(
            index.trees.distances, rebuilt.trees.distances
        )
        assert np.array_equal(
            index.table.categories, rebuilt.table.categories
        )


class TestPartitionTableInvariant:
    @given(
        boundaries=st.lists(
            st.floats(min_value=0.5, max_value=1e5), min_size=1, max_size=10
        ),
        distance=st.floats(min_value=0, max_value=2e5),
    )
    def test_encoded_size_matches_code_length(self, boundaries, distance):
        """One-component table: the size accounting equals the codeword
        length plus link bits, for any partition and distance."""
        from repro.core.encoding import rzp_code_length
        from repro.storage.layout import bits_for_values

        partition = CategoryPartition(sorted(set(boundaries)))
        category = partition.categorize(distance)
        table = SignatureTable(
            partition,
            np.array([[category]], dtype=np.int16),
            np.array([[0]], dtype=np.int32),
            max_degree=4,
        )
        expected = rzp_code_length(
            category, partition.num_categories
        ) + bits_for_values(4)
        assert table.encoded_record_bits(0) == expected
