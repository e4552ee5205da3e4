"""Road-network graph model.

The paper models a road network as a simple undirected weighted graph
``G(<V, E>)`` where a vertex is a road junction, an edge is a road segment,
and the edge weight is the distance along the road (§1).  Objects (the
dataset) are placed on nodes.

:class:`RoadNetwork` is an adjacency-list graph designed for the access
pattern the paper's index requires:

* adjacency lists have a **stable order**, because a signature's
  backtracking link stores the *position* of the next hop in the node's
  adjacency list (§3.1);
* nodes carry planar ``(x, y)`` coordinates, needed by the approximate
  distance comparison's 2-D embedding (§3.2.2) and by Euclidean baselines
  (IER, A*);
* edges can be added, removed, and re-weighted at runtime, because §5.4
  defines incremental index maintenance under exactly those updates.

The class is deliberately free of any indexing or storage concern: the
simulated page store (:mod:`repro.storage`) decides how adjacency lists are
laid out on disk, and the indexes (:mod:`repro.core`, :mod:`repro.baselines`)
are built *on top of* a network, never inside it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError

__all__ = ["Edge", "RoadNetwork"]


@dataclass(frozen=True, slots=True)
class Edge:
    """An undirected edge ``{u, v}`` with a positive ``weight``.

    The endpoints are normalized so that ``u < v``; two :class:`Edge`
    instances describing the same road segment therefore compare equal.
    """

    u: int
    v: int
    weight: float

    @staticmethod
    def make(u: int, v: int, weight: float) -> "Edge":
        """Build a normalized edge (``u < v``)."""
        if u == v:
            raise GraphError(f"self-loop edge at node {u} is not allowed")
        if weight <= 0:
            raise GraphError(f"edge ({u}, {v}) weight must be positive, got {weight}")
        if u > v:
            u, v = v, u
        return Edge(u, v, weight)

    def other(self, node: int) -> int:
        """Return the endpoint that is not ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise GraphError(f"node {node} is not an endpoint of edge ({self.u}, {self.v})")


class RoadNetwork:
    """An undirected, weighted road network with planar node coordinates.

    Nodes are dense integer ids ``0 .. num_nodes - 1``.  Each node stores
    its coordinates and an *ordered* adjacency list of ``(neighbor, weight)``
    pairs.  The order of a node's adjacency list is the insertion order of
    its incident edges and is part of the network's observable state: the
    distance-signature index addresses next hops by adjacency position.

    Removing an edge keeps the relative order of the remaining entries, so
    previously stored positions of *other* neighbors stay meaningful only if
    the caller re-resolves them; the update machinery in
    :mod:`repro.core.update` always re-resolves links after a removal.
    """

    def __init__(self, coordinates: Iterable[tuple[float, float]] = ()) -> None:
        self._coords: list[tuple[float, float]] = [
            (float(x), float(y)) for x, y in coordinates
        ]
        self._adjacency: list[list[tuple[int, float]]] = [
            [] for _ in range(len(self._coords))
        ]
        self._num_edges = 0

    @classmethod
    def from_adjacency(
        cls,
        coordinates: Iterable[tuple[float, float]],
        adjacency: Iterable[Iterable[tuple[int, float]]],
    ) -> "RoadNetwork":
        """Reconstruct a network with *exact* adjacency-list order.

        Deserialization must preserve each node's adjacency order — the
        distance-signature index addresses next hops by position (§3.1) —
        which :meth:`add_edge`'s append-to-both-endpoints behavior cannot
        replicate from an edge list.  The input is validated: neighbor
        ids must exist, weights must be positive and symmetric, and no
        duplicates or self-loops are allowed.
        """
        network = cls(coordinates)
        lists = [
            [(int(nbr), float(w)) for nbr, w in adj] for adj in adjacency
        ]
        if len(lists) != network.num_nodes:
            raise GraphError(
                f"{len(lists)} adjacency lists for {network.num_nodes} nodes"
            )
        count = 0
        for node, adj in enumerate(lists):
            seen: set[int] = set()
            for neighbor, weight in adj:
                if not 0 <= neighbor < network.num_nodes:
                    raise NodeNotFoundError(neighbor)
                if neighbor == node:
                    raise GraphError(f"self-loop at node {node}")
                if neighbor in seen:
                    raise GraphError(
                        f"duplicate neighbor {neighbor} at node {node}"
                    )
                if weight <= 0:
                    raise GraphError(
                        f"edge ({node}, {neighbor}) weight must be positive"
                    )
                seen.add(neighbor)
                reverse = [w for n, w in lists[neighbor] if n == node]
                if len(reverse) != 1 or reverse[0] != weight:
                    raise GraphError(
                        f"asymmetric adjacency for edge ({node}, {neighbor})"
                    )
                count += 1
        network._adjacency = lists
        network._num_edges = count // 2
        return network

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, x: float, y: float) -> int:
        """Add a node at ``(x, y)`` and return its id."""
        self._coords.append((float(x), float(y)))
        self._adjacency.append([])
        return len(self._coords) - 1

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add the undirected edge ``{u, v}`` with the given positive weight.

        Raises :class:`~repro.errors.GraphError` if the edge already exists,
        is a self-loop, or has a non-positive weight.
        """
        edge = Edge.make(u, v, weight)  # validates
        self._check_node(u)
        self._check_node(v)
        if self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) already exists")
        self._adjacency[u].append((v, edge.weight))
        self._adjacency[v].append((u, edge.weight))
        self._num_edges += 1

    def remove_edge(self, u: int, v: int) -> float:
        """Remove the edge ``{u, v}`` and return its weight."""
        self._check_node(u)
        self._check_node(v)
        weight = None
        for i, (nbr, w) in enumerate(self._adjacency[u]):
            if nbr == v:
                weight = w
                del self._adjacency[u][i]
                break
        if weight is None:
            raise EdgeNotFoundError(u, v)
        for i, (nbr, _) in enumerate(self._adjacency[v]):
            if nbr == u:
                del self._adjacency[v][i]
                break
        self._num_edges -= 1
        return weight

    def set_edge_weight(self, u: int, v: int, weight: float) -> float:
        """Change the weight of edge ``{u, v}``; return the old weight."""
        if weight <= 0:
            raise GraphError(f"edge ({u}, {v}) weight must be positive, got {weight}")
        self._check_node(u)
        self._check_node(v)
        old = None
        for i, (nbr, w) in enumerate(self._adjacency[u]):
            if nbr == v:
                old = w
                self._adjacency[u][i] = (v, float(weight))
                break
        if old is None:
            raise EdgeNotFoundError(u, v)
        for i, (nbr, _) in enumerate(self._adjacency[v]):
            if nbr == u:
                self._adjacency[v][i] = (u, float(weight))
                break
        return old

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network."""
        return len(self._coords)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges in the network."""
        return self._num_edges

    def nodes(self) -> range:
        """All node ids, as a range."""
        return range(len(self._coords))

    def coordinates(self, node: int) -> tuple[float, float]:
        """The planar ``(x, y)`` coordinates of ``node``."""
        self._check_node(node)
        return self._coords[node]

    def neighbors(self, node: int) -> list[tuple[int, float]]:
        """The ordered adjacency list of ``node`` as ``(neighbor, weight)``.

        The returned list is the live internal list's shallow copy; mutating
        it does not affect the network.
        """
        self._check_node(node)
        return list(self._adjacency[node])

    def degree(self, node: int) -> int:
        """Number of edges incident to ``node``."""
        self._check_node(node)
        return len(self._adjacency[node])

    def max_degree(self) -> int:
        """The maximum node degree ``R`` (used to size backtracking links)."""
        if not self._adjacency:
            return 0
        return max(len(adj) for adj in self._adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        self._check_node(u)
        self._check_node(v)
        return any(nbr == v for nbr, _ in self._adjacency[u])

    def edge_weight(self, u: int, v: int) -> float:
        """The weight of edge ``{u, v}``."""
        self._check_node(u)
        self._check_node(v)
        for nbr, w in self._adjacency[u]:
            if nbr == v:
                return w
        raise EdgeNotFoundError(u, v)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges, each reported once with ``u < v``."""
        for u, adj in enumerate(self._adjacency):
            for v, w in adj:
                if u < v:
                    yield Edge(u, v, w)

    def neighbor_position(self, node: int, neighbor: int) -> int:
        """Position of ``neighbor`` in ``node``'s adjacency list.

        This is exactly the value a signature stores as a backtracking link
        (§3.1: "the link is denoted by the next node's position index in
        n's adjacency list").
        """
        self._check_node(node)
        for i, (nbr, _) in enumerate(self._adjacency[node]):
            if nbr == neighbor:
                return i
        raise EdgeNotFoundError(node, neighbor)

    def neighbor_at(self, node: int, position: int) -> tuple[int, float]:
        """The ``(neighbor, weight)`` pair at ``position`` in the adjacency list.

        This is the link-dereference used by guided backtracking (Alg 1).
        """
        self._check_node(node)
        adj = self._adjacency[node]
        if not 0 <= position < len(adj):
            raise GraphError(
                f"adjacency position {position} out of range for node {node} "
                f"(degree {len(adj)})"
            )
        return adj[position]

    def adjacency_lists(self) -> list[list[tuple[int, float]]]:
        """The live adjacency lists: entry ``n`` is node ``n``'s ordered
        ``(neighbor, weight)`` list, so ``adjacency_lists()[n][i]`` is
        :meth:`neighbor_at` ``(n, i)`` without its validation.

        This is the network's own storage, not a copy: it is for hot
        loops that follow §3.1 backtracking links (and bounds-check the
        positions themselves) and must be treated as read-only — mutate
        through :meth:`add_edge`, :meth:`remove_edge` and
        :meth:`set_edge_weight`.
        """
        return self._adjacency

    def adjacency_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The adjacency structure in CSR form: ``(indptr, neighbors, weights)``.

        ``neighbors[indptr[n]:indptr[n + 1]]`` is node ``n``'s adjacency
        list in its stored order, so ``i - indptr[n]`` recovers the §3.1
        backtracking-link position of entry ``i``.  The arrays are fresh
        snapshots — they do not track later edge updates.
        """
        num_nodes = len(self._adjacency)
        degrees = np.fromiter(
            (len(adj) for adj in self._adjacency),
            dtype=np.int64,
            count=num_nodes,
        )
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        total = int(indptr[-1])
        neighbors = np.fromiter(
            (nbr for adj in self._adjacency for nbr, _ in adj),
            dtype=np.int64,
            count=total,
        )
        weights = np.fromiter(
            (w for adj in self._adjacency for _, w in adj),
            dtype=float,
            count=total,
        )
        return indptr, neighbors, weights

    def euclidean_distance(self, u: int, v: int) -> float:
        """Straight-line distance between the coordinates of ``u`` and ``v``."""
        ux, uy = self.coordinates(u)
        vx, vy = self.coordinates(v)
        return math.hypot(ux - vx, uy - vy)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export as a :class:`networkx.Graph` (for validation and analysis)."""
        import networkx as nx

        g = nx.Graph()
        for node in self.nodes():
            x, y = self._coords[node]
            g.add_node(node, x=x, y=y)
        for edge in self.edges():
            g.add_edge(edge.u, edge.v, weight=edge.weight)
        return g

    def copy(self) -> "RoadNetwork":
        """A deep, independent copy of the network."""
        clone = RoadNetwork(self._coords)
        clone._adjacency = [list(adj) for adj in self._adjacency]
        clone._num_edges = self._num_edges
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoadNetwork(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._coords):
            raise NodeNotFoundError(node)
