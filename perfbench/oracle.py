"""Dijkstra ground truth and the answer checks every workload applies.

Edge weights are integers (the planar generator) or multiples of
``1/1024`` (the traffic simulator), so every path length is an exact
binary sum and a correct index returns bit-identical distances.  The
oracle runs scipy's Dijkstra from every object at once, which is fast
enough to recompute after each of a run's writes.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


class Oracle:
    """Exact object-to-node distances for one network state.

    ``weights`` maps canonical ``(u, v)`` edges (``u < v``) to weights;
    :meth:`with_write` derives the state after one ``set_weight``.
    """

    def __init__(self, num_nodes: int, objects, weights: dict) -> None:
        self.num_nodes = num_nodes
        self.objects = list(objects)
        self.rank = {node: rank for rank, node in enumerate(self.objects)}
        self.weights = weights
        self._matrix: np.ndarray | None = None

    @classmethod
    def of(cls, network, dataset) -> "Oracle":
        weights = {
            (min(e.u, e.v), max(e.u, e.v)): float(e.weight)
            for e in network.edges()
        }
        return cls(network.num_nodes, dataset, weights)

    def with_write(self, u: int, v: int, weight: float) -> "Oracle":
        weights = dict(self.weights)
        weights[(min(u, v), max(u, v))] = float(weight)
        return Oracle(self.num_nodes, self.objects, weights)

    @property
    def matrix(self) -> np.ndarray:
        """``matrix[rank, node]`` — distance from object ``rank``."""
        if self._matrix is None:
            edges = np.array(list(self.weights), dtype=np.int64)
            data = np.array(list(self.weights.values()), dtype=float)
            graph = csr_matrix(
                (np.concatenate([data, data]),
                 (np.concatenate([edges[:, 0], edges[:, 1]]),
                  np.concatenate([edges[:, 1], edges[:, 0]]))),
                shape=(self.num_nodes, self.num_nodes),
            )
            self._matrix = dijkstra(graph, indices=self.objects)
        return self._matrix

    # -- expected answers ------------------------------------------------
    def distance(self, node: int, obj: int) -> float:
        return float(self.matrix[self.rank[obj], node])

    def range_set(self, node: int, radius: float) -> frozenset:
        column = self.matrix[:, node]
        return frozenset(
            self.objects[int(r)] for r in np.flatnonzero(column <= radius)
        )

    def knn_distances(self, node: int, k: int) -> tuple:
        column = self.matrix[:, node]
        return tuple(np.sort(column)[:k].tolist())

    def expected(self, op) -> object:
        """The answer ``op`` must get, in the form :func:`answer_key`
        gives a served or in-process answer."""
        kind, node, arg = op
        if kind == "distance":
            return self.distance(node, arg)
        if kind == "range":
            return self.range_set(node, arg)
        return self.knn_distances(node, arg)

    def answer_key(self, op, answer) -> object:
        """Normalise an answer for comparison with :meth:`expected`.

        Range answers compare as object sets.  kNN answers compare as
        the sorted distances of the returned distinct objects, so any
        correct tie-break passes and a wrong object does not.
        """
        kind, node, _arg = op
        if kind == "distance":
            return None if answer is None else float(answer)
        if kind == "range":
            return frozenset(int(obj) for obj in answer)
        objects = [int(obj) for obj in answer]
        if len(set(objects)) != len(objects):
            return ("duplicate objects", tuple(objects))
        if any(obj not in self.rank for obj in objects):
            return ("not an object", tuple(objects))
        return tuple(sorted(self.distance(node, obj) for obj in objects))

    def matches(self, op, answer) -> bool:
        return self.answer_key(op, answer) == self.expected(op)


def read_ops(rng, count: int, num_nodes: int, objects, radius: float, k: int):
    """``count`` reads in equal shares of distance, range and kNN, in a
    seeded random order.  An op is ``(kind, node, arg)``."""
    kinds = np.resize(np.array(["distance", "range", "knn"]), count)
    rng.shuffle(kinds)
    nodes = rng.integers(0, num_nodes, size=count)
    targets = rng.integers(0, len(objects), size=count)
    ops = []
    for kind, node, target in zip(kinds.tolist(), nodes.tolist(),
                                  targets.tolist()):
        if kind == "distance":
            ops.append(("distance", node, int(objects[target])))
        elif kind == "range":
            ops.append(("range", node, radius))
        else:
            ops.append(("knn", node, k))
    return ops


def few_objects_radius(oracle: Oracle, per_query: float) -> float:
    """A radius whose range queries return about ``per_query`` objects."""
    share = per_query / len(oracle.objects)
    return float(np.quantile(oracle.matrix, share))


def in_process_answer(index, op):
    """The same read asked of an in-process index, with the served
    defaults (kNN as a set, range without distances)."""
    kind, node, arg = op
    if kind == "distance":
        return index.distance(node, arg)
    if kind == "range":
        return index.range_query(node, arg)
    return index.knn(node, arg)
