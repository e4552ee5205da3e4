"""Query processing on distance signatures (§4, Algorithms 5–6).

The processing paradigm (§4.3): read the query node's signature, confirm or
discard objects by their categorical bounds, and for the ambiguous rest
*gradually* retrieve more accurate distances (guided backtracking) until
every candidate is confirmed either way.  The same skeleton instantiates:

* :func:`range_query` — Algorithm 5;
* :func:`knn_query` — Algorithm 6 with the paper's three result types
  (exact distances / order only / bare set);
* :func:`aggregate_range` — the aggregation generalization;
* :func:`epsilon_join` — the ε-join generalization over two datasets.

Inclusion semantics are *inclusive*: an object at distance exactly ε
belongs to the range-ε result.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable

from repro.core.operations import (
    Backtracker,
    SignatureIndexProtocol,
    compare_approximate,
    retrieve_distance,
    sort_by_distance,
)
from repro.core.signature import DistanceRange
from repro.errors import QueryError
from repro.obs.tracing import span_of

__all__ = [
    "KnnType",
    "range_query",
    "knn_query",
    "approximate_knn_query",
    "aggregate_range",
    "epsilon_join",
    "knn_join",
]


class KnnType(enum.Enum):
    """The paper's kNN taxonomy (§4.2).

    * ``EXACT_DISTANCES`` (type 1): every result's exact distance returned;
    * ``ORDERED`` (type 2): results in ascending distance order;
    * ``SET`` (type 3): the bare result set, no order, no distances.
    """

    EXACT_DISTANCES = 1
    ORDERED = 2
    SET = 3


def _require_objects(index: SignatureIndexProtocol) -> None:
    """kNN over an empty object dataset is a caller error (``k >= 1`` can
    never be satisfied); every engine raises the same ``QueryError`` so
    the serving layer maps it to HTTP 400."""
    if index.object_table.num_objects == 0:
        raise QueryError("kNN query requires a non-empty object dataset")


def _qualifies(index: SignatureIndexProtocol, node: int, rank: int,
               radius: float) -> bool:
    """Decide ``d(node, object) <= radius`` per Algorithm 5's three cases."""
    component = index.component(node, rank)
    lb, ub = index.partition.bounds(component.category)
    if ub <= radius:
        return True
    if lb > radius:
        return False
    # Third case: the category straddles the radius — scalar refinement.
    metrics = getattr(index, "metrics", None)
    if metrics is not None and metrics.enabled:
        metrics.counter("scalar.refinements").inc()
    delta = DistanceRange(radius, radius)
    with span_of(index, "refine", rank=rank) as span:
        tracker = Backtracker(index, node, rank)
        refined = tracker.refine(delta)
        span.set("hops", tracker.steps)
    if refined.is_exact:
        return refined.value <= radius
    return refined.ub <= radius


def range_query(
    index: SignatureIndexProtocol,
    node: int,
    radius: float,
    *,
    with_distances: bool = False,
) -> list[int] | list[tuple[int, float]]:
    """All objects within network distance ``radius`` of ``node`` (Alg 5).

    Returns object ranks in dataset order, or ``(rank, exact_distance)``
    pairs when ``with_distances`` is set (the exact retrieval is charged
    to the pager like any refinement).
    """
    if radius < 0:
        raise QueryError(f"range radius must be non-negative, got {radius}")
    index.touch_signature(node)
    hits = [
        rank
        for rank in range(index.object_table.num_objects)
        if _qualifies(index, node, rank, radius)
    ]
    if not with_distances:
        return hits
    return [(rank, retrieve_distance(index, node, rank)) for rank in hits]


def knn_query(
    index: SignatureIndexProtocol,
    node: int,
    k: int,
    *,
    knn_type: KnnType = KnnType.SET,
) -> list[int] | list[tuple[int, float]]:
    """The k nearest objects to ``node`` (Algorithm 6).

    * type 3 (``SET``): a list of object ranks, unordered;
    * type 2 (``ORDERED``): ranks in ascending distance order;
    * type 1 (``EXACT_DISTANCES``): ``(rank, distance)`` in ascending order.

    If fewer than ``k`` objects are reachable, all reachable ones are
    returned.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    _require_objects(index)
    index.touch_signature(node)
    partition = index.partition
    unreachable = partition.unreachable

    # Bucket objects by categorical distance (line 1 of Algorithm 6).
    buckets: dict[int, list[int]] = {}
    for rank in range(index.object_table.num_objects):
        category = index.component(node, rank).category
        if category == unreachable:
            continue
        buckets.setdefault(category, []).append(rank)

    ordered_categories = sorted(buckets)
    confirmed: list[list[int]] = []  # whole buckets below the boundary
    taken = 0
    boundary_bucket: list[int] = []
    needed_from_boundary = 0
    for category in ordered_categories:
        bucket = buckets[category]
        if taken + len(bucket) <= k:
            confirmed.append(bucket)
            taken += len(bucket)
            if taken == k:
                break
        else:
            boundary_bucket = bucket
            needed_from_boundary = k - taken
            break

    if needed_from_boundary:
        # Sort the boundary bucket (Algorithm 4) and take the remainder.
        with span_of(
            index,
            "boundary_sort",
            bucket=len(boundary_bucket),
            needed=needed_from_boundary,
        ):
            ordered_boundary = sort_by_distance(index, node, boundary_bucket)
        boundary_take = ordered_boundary[:needed_from_boundary]
    else:
        boundary_take = []

    if knn_type is KnnType.SET:
        return [rank for bucket in confirmed for rank in bucket] + boundary_take

    if knn_type is KnnType.ORDERED:
        ordered: list[int] = []
        for bucket in confirmed:
            ordered.extend(sort_by_distance(index, node, bucket))
        ordered.extend(boundary_take)
        return ordered

    # Type 1: exact distances for every result, then a plain sort.
    results = [rank for bucket in confirmed for rank in bucket] + boundary_take
    with_distances = [
        (rank, retrieve_distance(index, node, rank)) for rank in results
    ]
    with_distances.sort(key=lambda pair: (pair[1], pair[0]))
    return with_distances


def approximate_knn_query(
    index: SignatureIndexProtocol, node: int, k: int
) -> list[int]:
    """An approximate kNN answer from the signature alone (§3's low-cost
    approximate mode).

    Reads only the query node's signature: objects are bucketed by
    category, whole buckets below the boundary are confirmed exactly as in
    Algorithm 6, and the boundary bucket is resolved with the *approximate*
    comparison (observer voting, §3.2.2) instead of exact backtracking —
    so the whole query costs one signature record of I/O.  The result is
    a valid kNN set whenever the boundary bucket's approximate order is
    right; otherwise it errs only *within* the boundary category (every
    returned object is at most one category band from a true kNN).
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    _require_objects(index)
    index.touch_signature(node)
    partition = index.partition
    unreachable = partition.unreachable
    buckets: dict[int, list[int]] = {}
    for rank in range(index.object_table.num_objects):
        category = index.component(node, rank).category
        if category == unreachable:
            continue
        buckets.setdefault(category, []).append(rank)

    result: list[int] = []
    for category in sorted(buckets):
        bucket = buckets[category]
        remaining = k - len(result)
        if remaining <= 0:
            break
        if len(bucket) <= remaining:
            result.extend(bucket)
            continue
        ordered = sorted(
            bucket,
            key=functools.cmp_to_key(
                lambda a, b: compare_approximate(index, node, a, b)
            ),
        )
        result.extend(ordered[:remaining])
        break
    return result


_AGGREGATES: dict[str, Callable[[list[float]], float]] = {
    "count": lambda distances: float(len(distances)),
    "sum": lambda distances: float(sum(distances)),
    "min": lambda distances: min(distances) if distances else math.inf,
    "max": lambda distances: max(distances) if distances else -math.inf,
    "mean": lambda distances: (
        sum(distances) / len(distances) if distances else math.nan
    ),
}


def aggregate_range(
    index: SignatureIndexProtocol,
    node: int,
    radius: float,
    aggregate: str = "count",
) -> float:
    """Aggregate over objects within ``radius`` of ``node`` (§4.3).

    ``"count"`` needs no exact distances (the range decision suffices);
    every other aggregate (``sum``/``min``/``max``/``mean`` over the
    qualifying distances) triggers exact retrieval per qualifying object.
    """
    try:
        reducer = _AGGREGATES[aggregate]
    except KeyError:
        raise QueryError(
            f"unknown aggregate {aggregate!r}; pick one of "
            f"{sorted(_AGGREGATES)}"
        ) from None
    if aggregate == "count":
        return float(len(range_query(index, node, radius)))
    pairs = range_query(index, node, radius, with_distances=True)
    return reducer([distance for _, distance in pairs])


def epsilon_join(
    index_a: SignatureIndexProtocol,
    index_b: SignatureIndexProtocol,
    epsilon: float,
) -> list[tuple[int, int]]:
    """All object pairs ``(a, b)`` with ``d(a, b) <= epsilon`` (§4.3).

    ``index_a`` and ``index_b`` index two datasets over the *same*
    network; each object of dataset A issues a signature range query on
    index B at its own node ("joining the two signatures ... gradually
    retrieving more accurate distances for candidate pairs").  For a
    self-join pass the same index twice; identical pairs are skipped and
    each unordered pair is reported once (``a < b``).
    """
    if epsilon < 0:
        raise QueryError(f"epsilon must be non-negative, got {epsilon}")
    if index_a.network is not index_b.network:
        raise QueryError("epsilon join requires both datasets on one network")
    self_join = index_a is index_b
    pairs: list[tuple[int, int]] = []
    dataset_a = index_a.dataset
    for rank_a in range(len(dataset_a)):
        node_a = dataset_a[rank_a]
        for rank_b in range_query(index_b, node_a, epsilon):
            if self_join:
                if rank_b <= rank_a:
                    continue
            pairs.append((rank_a, rank_b))
    return pairs


def knn_join(
    index_a: SignatureIndexProtocol,
    index_b: SignatureIndexProtocol,
    k: int,
) -> list[tuple[int, list[int]]]:
    """kNN-join: for every object of dataset A, its k nearest in B (§4.3).

    The second flavor of network join the generalization paradigm covers:
    each A-object issues a type-3 kNN on B's index at its own node.
    Returns ``(rank_a, [rank_b, ...])`` pairs in dataset-A order.  A
    self-join excludes the identical object (the nearest neighbor of an
    object is never itself).
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if index_a.network is not index_b.network:
        raise QueryError("kNN join requires both datasets on one network")
    self_join = index_a is index_b
    results: list[tuple[int, list[int]]] = []
    for rank_a in range(len(index_a.dataset)):
        node_a = index_a.dataset[rank_a]
        want = k + 1 if self_join else k
        neighbors = knn_query(index_b, node_a, want)
        if self_join:
            neighbors = [rank for rank in neighbors if rank != rank_a][:k]
        results.append((rank_a, neighbors))
    return results
