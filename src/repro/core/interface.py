"""The :class:`DistanceIndex` protocol — the query/update/stats surface.

Historically every layer of the library imported the concrete
:class:`~repro.core.index.SignatureIndex`: persistence, the serving
stack, the CLI, and the workload harness all called its methods
directly.  With the hierarchy backends (:mod:`repro.backends`) there
are several implementations of the same surface, so the contract those
layers actually rely on is captured here as a
:func:`typing.runtime_checkable` :class:`typing.Protocol`.

Any object satisfying this protocol can be persisted with
:func:`~repro.core.persistence.save_index`, served by
:class:`~repro.serve.QueryServer`, and driven by the CLI and the
workload harness — this is the library's extension point for alternative
index organizations (see ``docs/API.md``).

The protocol is structural: implementations do not inherit from it.
``isinstance(index, DistanceIndex)`` checks method *presence* only (the
usual runtime-protocol caveat — signatures are not verified).
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from repro.core.queries import KnnType

__all__ = ["DistanceIndex"]


@runtime_checkable
class DistanceIndex(Protocol):
    """What every distance index exposes (signature or hierarchy backend).

    Attributes
    ----------
    network:
        The indexed :class:`~repro.network.graph.RoadNetwork`.
    dataset:
        The indexed :class:`~repro.network.datasets.ObjectDataset`.
    partition:
        The §5.1 :class:`~repro.core.categories.CategoryPartition`.
    metrics:
        The bound :class:`~repro.obs.metrics.MetricsRegistry` (swap with
        :meth:`use_metrics`).
    """

    network: Any
    dataset: Any
    partition: Any
    metrics: Any

    # -- queries (§4) --------------------------------------------------
    def distance(self, node: int, object_node: int) -> float:
        """Exact network distance from ``node`` to an object (Alg 1)."""
        ...

    def distance_batch(self, nodes, object_nodes) -> list[float]:
        """One distance per aligned ``(nodes[i], object_nodes[i])`` pair.

        Disconnected pairs yield ``math.inf`` instead of raising, so a
        coalesced batch never fails on one unreachable element.
        """
        ...

    def range_query(
        self, node: int, radius: float, *, with_distances: bool = False
    ):
        """Objects within ``radius`` of ``node`` (Alg 5), as node ids."""
        ...

    def range_query_batch(
        self, nodes, radius: float, *, with_distances: bool = False
    ):
        """One range query per node, results aligned with ``nodes``."""
        ...

    def knn(self, node: int, k: int, *, knn_type: KnnType = KnnType.SET):
        """The k nearest objects to ``node`` (Alg 6)."""
        ...

    def knn_batch(self, nodes, k: int, *, knn_type: KnnType = KnnType.SET):
        """One kNN query per node, results aligned with ``nodes``."""
        ...

    def knn_approximate(self, node: int, k: int) -> list[int]:
        """Category-only kNN (observer voting, §3.2.2)."""
        ...

    def approximate_range(self, node: int, radius: float) -> list[int]:
        """Category-only range: every object whose category could lie
        within ``radius`` (§3.2); no closer object is missed."""
        ...

    def aggregate_range(
        self, node: int, radius: float, aggregate: str = "count"
    ) -> float:
        """Aggregate over the objects within ``radius`` (§4.3)."""
        ...

    # -- updates (§5.4) ------------------------------------------------
    def apply_updates(self, changeset) -> Any:
        """Apply a :class:`~repro.core.changeset.ChangeSet` atomically.

        ``changeset`` may also be raw ``(op, u, v[, weight])`` tuples
        (coerced via :func:`~repro.core.changeset.as_changeset`).  The
        whole batch is validated before anything mutates — structural
        problems raise :class:`~repro.errors.QueryError`, unknown nodes
        / edges raise :class:`~repro.errors.DatasetError` — and the
        return value is a :class:`~repro.core.changeset.ApplyResult`.
        """
        ...

    # -- observability / reporting -------------------------------------
    def use_metrics(self, registry) -> None:
        """Swap the metrics registry and rebind cached instruments."""
        ...

    def trace(self):
        """Context manager recording a span tree for the block."""
        ...

    def stats(self) -> dict:
        """Structural summary (nodes, objects, categories...)."""
        ...

    def verify(self, *, sample_nodes: int = 16, seed: int = 0) -> None:
        """Self-check sampled distances against fresh Dijkstra runs."""
        ...
