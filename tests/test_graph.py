"""Unit tests for the road-network graph model."""

import math

import pytest

from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
)
from repro.network.graph import Edge, RoadNetwork


@pytest.fixture()
def triangle():
    net = RoadNetwork([(0, 0), (1, 0), (0, 1)])
    net.add_edge(0, 1, 1.0)
    net.add_edge(1, 2, 2.0)
    net.add_edge(0, 2, 4.0)
    return net


class TestEdge:
    def test_make_normalizes_endpoints(self):
        assert Edge.make(5, 2, 1.0) == Edge(2, 5, 1.0)

    def test_make_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Edge.make(3, 3, 1.0)

    def test_make_rejects_zero_weight(self):
        with pytest.raises(GraphError):
            Edge.make(0, 1, 0.0)

    def test_make_rejects_negative_weight(self):
        with pytest.raises(GraphError):
            Edge.make(0, 1, -2.0)

    def test_other_endpoint(self):
        edge = Edge.make(2, 7, 1.5)
        assert edge.other(2) == 7
        assert edge.other(7) == 2

    def test_other_rejects_non_endpoint(self):
        with pytest.raises(GraphError):
            Edge.make(2, 7, 1.5).other(3)


class TestConstruction:
    def test_empty_network(self):
        net = RoadNetwork()
        assert net.num_nodes == 0
        assert net.num_edges == 0
        assert net.max_degree() == 0

    def test_nodes_from_coordinates(self):
        net = RoadNetwork([(0.5, 1.5), (2.0, 3.0)])
        assert net.num_nodes == 2
        assert net.coordinates(0) == (0.5, 1.5)
        assert net.coordinates(1) == (2.0, 3.0)

    def test_add_node_returns_sequential_ids(self):
        net = RoadNetwork()
        assert net.add_node(0, 0) == 0
        assert net.add_node(1, 1) == 1

    def test_add_edge_symmetric(self, triangle):
        assert triangle.has_edge(0, 1)
        assert triangle.has_edge(1, 0)

    def test_add_duplicate_edge_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.add_edge(1, 0, 3.0)

    def test_add_edge_unknown_node(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.add_edge(0, 99, 1.0)

    def test_num_edges_counts_undirected_once(self, triangle):
        assert triangle.num_edges == 3


class TestMutation:
    def test_remove_edge_returns_weight(self, triangle):
        assert triangle.remove_edge(0, 2) == 4.0
        assert not triangle.has_edge(0, 2)
        assert triangle.num_edges == 2

    def test_remove_missing_edge(self, triangle):
        triangle.remove_edge(0, 1)
        with pytest.raises(EdgeNotFoundError):
            triangle.remove_edge(0, 1)

    def test_remove_preserves_other_adjacency_order(self, triangle):
        before = [n for n, _ in triangle.neighbors(1)]
        triangle.remove_edge(1, 0)
        after = [n for n, _ in triangle.neighbors(1)]
        assert after == [n for n in before if n != 0]

    def test_set_edge_weight_returns_old(self, triangle):
        assert triangle.set_edge_weight(0, 1, 9.0) == 1.0
        assert triangle.edge_weight(0, 1) == 9.0
        assert triangle.edge_weight(1, 0) == 9.0

    def test_set_edge_weight_rejects_nonpositive(self, triangle):
        with pytest.raises(GraphError):
            triangle.set_edge_weight(0, 1, 0)

    def test_set_edge_weight_missing_edge(self):
        net = RoadNetwork([(0, 0), (1, 1)])
        with pytest.raises(EdgeNotFoundError):
            net.set_edge_weight(0, 1, 1.0)


class TestInspection:
    def test_neighbors_order_is_insertion_order(self):
        net = RoadNetwork([(0, 0)] * 4)
        net.add_edge(0, 2, 1.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(0, 3, 1.0)
        assert [n for n, _ in net.neighbors(0)] == [2, 1, 3]

    def test_neighbors_returns_copy(self, triangle):
        triangle.neighbors(0).append((99, 1.0))
        assert len(triangle.neighbors(0)) == 2

    def test_degree_and_max_degree(self, triangle):
        assert triangle.degree(0) == 2
        assert triangle.max_degree() == 2

    def test_edge_weight_lookup(self, triangle):
        assert triangle.edge_weight(1, 2) == 2.0

    def test_edge_weight_missing(self, triangle):
        net = RoadNetwork([(0, 0), (1, 1)])
        with pytest.raises(EdgeNotFoundError):
            net.edge_weight(0, 1)

    def test_edges_iterates_each_once_normalized(self, triangle):
        edges = sorted((e.u, e.v, e.weight) for e in triangle.edges())
        assert edges == [(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0)]

    def test_neighbor_position_matches_order(self, triangle):
        assert triangle.neighbor_position(1, 0) == 0
        assert triangle.neighbor_position(1, 2) == 1

    def test_neighbor_position_missing(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.neighbor_position(1, 1 + 10)

    def test_neighbor_at_round_trips_position(self, triangle):
        for node in triangle.nodes():
            for position, (neighbor, weight) in enumerate(triangle.neighbors(node)):
                assert triangle.neighbor_at(node, position) == (neighbor, weight)
                assert triangle.neighbor_position(node, neighbor) == position

    def test_neighbor_at_out_of_range(self, triangle):
        with pytest.raises(GraphError):
            triangle.neighbor_at(0, 5)

    def test_euclidean_distance(self, triangle):
        assert triangle.euclidean_distance(0, 1) == 1.0
        assert math.isclose(triangle.euclidean_distance(1, 2), math.sqrt(2))

    def test_node_bounds_checked(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.coordinates(-1)
        with pytest.raises(NodeNotFoundError):
            triangle.degree(3)


class TestFromAdjacency:
    def test_reconstructs_exact_order(self, triangle):
        clone = RoadNetwork.from_adjacency(
            [triangle.coordinates(v) for v in triangle.nodes()],
            [triangle.neighbors(v) for v in triangle.nodes()],
        )
        for node in triangle.nodes():
            assert clone.neighbors(node) == triangle.neighbors(node)
        assert clone.num_edges == triangle.num_edges

    def test_rejects_asymmetric_lists(self):
        with pytest.raises(GraphError):
            RoadNetwork.from_adjacency(
                [(0, 0), (1, 1)], [[(1, 2.0)], []]
            )

    def test_rejects_asymmetric_weights(self):
        with pytest.raises(GraphError):
            RoadNetwork.from_adjacency(
                [(0, 0), (1, 1)], [[(1, 2.0)], [(0, 3.0)]]
            )

    def test_rejects_self_loops(self):
        with pytest.raises(GraphError):
            RoadNetwork.from_adjacency([(0, 0)], [[(0, 1.0)]])

    def test_rejects_duplicates(self):
        with pytest.raises(GraphError):
            RoadNetwork.from_adjacency(
                [(0, 0), (1, 1)], [[(1, 2.0), (1, 2.0)], [(0, 2.0), (0, 2.0)]]
            )

    def test_rejects_unknown_neighbor(self):
        with pytest.raises(NodeNotFoundError):
            RoadNetwork.from_adjacency([(0, 0)], [[(5, 1.0)]])

    def test_rejects_wrong_list_count(self):
        with pytest.raises(GraphError):
            RoadNetwork.from_adjacency([(0, 0), (1, 1)], [[]])


class TestConversions:
    def test_to_networkx_round_trip(self, triangle):
        g = triangle.to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 3
        assert g[0][1]["weight"] == 1.0
        assert g.nodes[2]["x"] == 0.0 and g.nodes[2]["y"] == 1.0

    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge(0, 1)
        assert triangle.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_copy_preserves_adjacency_order(self, triangle):
        clone = triangle.copy()
        for node in triangle.nodes():
            assert clone.neighbors(node) == triangle.neighbors(node)


class TestCopyOnWrite:
    def test_view_edits_leave_the_original_alone(self, triangle):
        view = triangle.copy_on_write()
        view.set_edge_weight(0, 1, 9.0)
        view.remove_edge(1, 2)
        view.add_edge(1, 2, 3.0)
        assert triangle.edge_weight(0, 1) == 1.0
        assert triangle.neighbors(1) == [(0, 1.0), (2, 2.0)]
        assert view.edge_weight(0, 1) == 9.0
        assert view.neighbors(1) == [(0, 9.0), (2, 3.0)]
        assert view.num_edges == triangle.num_edges == 3

    def test_only_written_rows_are_copied(self, triangle):
        triangle.add_node(5, 5)
        view = triangle.copy_on_write()
        view.set_edge_weight(0, 1, 7.0)
        rows, shared = view.adjacency_lists(), triangle.adjacency_lists()
        assert rows[2] is shared[2] and rows[3] is shared[3]
        assert rows[0] is not shared[0] and rows[1] is not shared[1]

    def test_same_edits_give_the_same_rows(self, triangle):
        view = triangle.copy_on_write()
        for network in (view, triangle):
            network.remove_edge(0, 2)
            network.add_edge(2, 0, 0.5)
            network.set_edge_weight(1, 2, 1.5)
        assert view.adjacency_lists() == triangle.adjacency_lists()
        assert view.adjacency_lists() is not triangle.adjacency_lists()
