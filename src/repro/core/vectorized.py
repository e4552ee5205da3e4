"""Vectorized batch query engine over distance signatures.

The §4 algorithms confirm or discard candidates by *categorical* bounds
before touching any per-object machinery.  The scalar reference
implementation (:mod:`repro.core.queries`) performs that step as D Python
calls to ``index.component`` per query; this module performs it as whole
signature-row array operations instead — one ``(D,)`` (or, for batches,
``(B, D)``) comparison against per-category bound arrays — and falls back
to the scalar :class:`~repro.core.operations.Backtracker` refinement only
for the *ambiguous boundary set* whose category straddles the decision
radius.

The paper's page-access semantics are preserved exactly:

* ``touch_signature`` is charged once per visited query node, as before;
* every refinement (guided backtracking, exact comparison, exact
  retrieval) runs through the same scalar code path as the reference
  implementation and is charged identically.

The property suite (``tests/test_vectorized.py``) asserts both result
*and* page-access equality with the scalar path on random configurations.

Decoding
--------
A signature row is *decoded* by resolving §5.3-compressed components to
their logical categories.  Every index carries a
:class:`~repro.core.columnar.ColumnarSignatureStore` that shares memory
with its signature table and holds the logical category even for
flagged components (compression is lossless by construction, and
persistence restores logical values on load), so a block of rows is one
fancy-indexed read of ``index.columnar.categories``.  Decompression
costs CPU, never I/O (§5.3): the read advances the index's
``decompressions`` tally and charges no pages.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.core.categories import CategoryPartition
from repro.core.operations import (
    Backtracker,
    SignatureIndexProtocol,
    _observer_vote,
    compare_exact,
    retrieve_distance,
)
from repro.core.queries import _AGGREGATES, KnnType, _pruned, _require_objects
from repro.core.signature import DistanceRange
from repro.errors import IndexError_, QueryError
from repro.obs.tracing import span_of

__all__ = [
    "category_bound_arrays",
    "decode_signature_row",
    "decode_signature_rows",
    "range_query",
    "range_query_batch",
    "knn_query",
    "knn_query_batch",
    "aggregate_range",
    "epsilon_join",
    "knn_join",
]


@functools.lru_cache(maxsize=64)
def category_bound_arrays(
    partition: CategoryPartition,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-category ``(lower_bounds, upper_bounds)`` arrays.

    Indexed by categorical value including the unreachable sentinel
    (``lb = ub = inf``), so a decoded row fancy-indexes straight into its
    per-object bounds.  Partitions are immutable and hashable, hence the
    module-level memoization.
    """
    m = partition.num_categories
    lbs = np.empty(m + 1, dtype=float)
    ubs = np.empty(m + 1, dtype=float)
    for category in range(m):
        lbs[category], ubs[category] = partition.bounds(category)
    lbs[m] = np.inf
    ubs[m] = np.inf
    lbs.setflags(write=False)
    ubs.setflags(write=False)
    return lbs, ubs


# ----------------------------------------------------------------------
# row reads
# ----------------------------------------------------------------------
def decode_signature_row(
    index: SignatureIndexProtocol, node: int
) -> np.ndarray:
    """The logical ``(D,)`` category row of ``node``."""
    return index.columnar.category_block(
        index, np.array([node], dtype=np.int64)
    )[0]


def decode_signature_rows(
    index: SignatureIndexProtocol, nodes: Sequence[int]
) -> np.ndarray:
    """The logical ``(B, D)`` category rows of ``nodes``."""
    with span_of(index, "decode", rows=len(nodes)):
        return index.columnar.category_block(
            index, np.asarray(list(nodes), dtype=np.int64)
        )


# ----------------------------------------------------------------------
# shared refinement helpers (scalar, identical I/O to the reference path)
# ----------------------------------------------------------------------
def _refine_qualifies(
    index: SignatureIndexProtocol, node: int, rank: int, radius: float
) -> bool:
    """Algorithm 5's third case: backtrack until the range decides."""
    delta = DistanceRange(radius, radius)
    with span_of(index, "refine", rank=rank) as span:
        tracker = Backtracker(index, node, rank)
        refined = tracker.refine(delta)
        span.set("hops", tracker.steps)
    if refined.is_exact:
        return refined.value <= radius
    return refined.ub <= radius


def _tally_masks(index, confirmed: int, ambiguous: int, total: int) -> None:
    """Record the categorical-phase outcome: how much of the candidate
    set the vectorized masks decided without scalar refinement."""
    metrics = getattr(index, "metrics", None)
    if metrics is not None and metrics.enabled:
        metrics.counter("vectorized.confirmed").inc(confirmed)
        metrics.counter("vectorized.ambiguous").inc(ambiguous)
    tracer = getattr(index, "tracer", None)
    if tracer is not None and tracer.current is not None:
        span = tracer.current
        span.set("confirmed", confirmed)
        span.set("ambiguous", ambiguous)
        if total:
            span.set("mask_pass_rate", round(1 - ambiguous / total, 4))


def _make_approx_comparator(index, node: int, cats_row: np.ndarray):
    """A drop-in for Algorithm 3 seeded from a decoded row.

    Byte-identical decisions to
    :func:`repro.core.operations.compare_approximate` — same observer set,
    same vote arithmetic — but the observer candidates (objects strictly
    closer to ``node`` than the compared pair) are read off ``cats_row``
    once per shared category instead of D ``component`` calls per
    comparison.  Zero I/O either way, so the ordering *and* the paging of
    the exact fix-up phase that follows are unchanged.
    """
    partition = index.partition
    unreachable = partition.unreachable
    table = index.object_table
    num_objects = table.num_objects
    candidates: dict[int, list[tuple[int, int]]] = {}

    def compare(rank_a: int, rank_b: int) -> int:
        cat_a = int(cats_row[rank_a])
        cat_b = int(cats_row[rank_b])
        if cat_a != cat_b:
            return -1 if cat_a < cat_b else 1
        shared = cat_a
        if shared >= unreachable:
            return 0
        if not table.has(rank_a, rank_b):
            return 0
        d_ab = table.distance(rank_a, rank_b)
        if d_ab <= 0:
            return 0
        observers = candidates.get(shared)
        if observers is None:
            observers = [
                (rank, int(cats_row[rank]))
                for rank in range(num_objects)
                if cats_row[rank] < shared
            ]
            candidates[shared] = observers
        votes = 0
        for rank, observer_category in observers:
            if rank == rank_a or rank == rank_b:
                continue
            if not (table.has(rank, rank_a) and table.has(rank, rank_b)):
                continue
            votes += _observer_vote(
                partition,
                shared,
                observer_category,
                d_ab,
                table.distance(rank, rank_a),
                table.distance(rank, rank_b),
            )
        if votes < 0:
            return -1
        if votes > 0:
            return 1
        return 0

    return compare


def _sort_ranks(index, node: int, ranks: list[int], comparator) -> list[int]:
    """Algorithm 4 with the cached approximate comparator.

    The exact bubble fix-up is the reference implementation verbatim
    (:func:`repro.core.operations.sort_by_distance`), so its I/O charges
    are identical.
    """
    ordered = sorted(ranks, key=functools.cmp_to_key(comparator))
    i = 0
    swaps = 0
    max_swaps = len(ordered) * (len(ordered) - 1) // 2 + 1
    while i < len(ordered) - 1:
        if compare_exact(index, node, ordered[i], ordered[i + 1]) > 0:
            swaps += 1
            if swaps > max_swaps:
                raise IndexError_(
                    "distance sorting did not converge: the exact "
                    "comparator is inconsistent (corrupted index)"
                )
            ordered[i], ordered[i + 1] = ordered[i + 1], ordered[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return ordered


# ----------------------------------------------------------------------
# range queries
# ----------------------------------------------------------------------
def _range_hits(
    index, node: int, radius: float, cats_row: np.ndarray
) -> list[int]:
    """Ranks within ``radius`` of ``node``, categorical phase vectorized."""
    lbs, ubs = category_bound_arrays(index.partition)
    confirmed = ubs[cats_row] <= radius
    ambiguous = ~confirmed & (lbs[cats_row] <= radius)
    _tally_masks(
        index, int(confirmed.sum()), int(ambiguous.sum()), cats_row.size
    )
    for rank in np.flatnonzero(ambiguous):
        if _refine_qualifies(index, node, int(rank), radius):
            confirmed[rank] = True
    return [int(rank) for rank in np.flatnonzero(confirmed)]


def range_query(
    index: SignatureIndexProtocol,
    node: int,
    radius: float,
    *,
    with_distances: bool = False,
) -> list[int] | list[tuple[int, float]]:
    """Vectorized Algorithm 5; result- and page-identical to the scalar
    :func:`repro.core.queries.range_query`."""
    if radius < 0:
        raise QueryError(f"range radius must be non-negative, got {radius}")
    index.touch_signature(node)
    hits = _range_hits(index, node, radius, decode_signature_row(index, node))
    if not with_distances:
        return hits
    return [(rank, retrieve_distance(index, node, rank)) for rank in hits]


def range_query_batch(
    index: SignatureIndexProtocol,
    nodes: Sequence[int],
    radius: float,
    *,
    with_distances: bool = False,
) -> list[list[int]] | list[list[tuple[int, float]]]:
    """One vectorized pass answering a range query per node of ``nodes``.

    All B signature rows decode in a single array operation; the
    confirm/discard masks for the whole batch are two comparisons on a
    ``(B, D)`` matrix.  Per node, only the ``touch_signature`` charge and
    the ambiguous-set refinements remain — identical to issuing the B
    scalar queries one by one.
    """
    if radius < 0:
        raise QueryError(f"range radius must be non-negative, got {radius}")
    nodes = [int(node) for node in nodes]
    if not nodes:
        return []
    rows = decode_signature_rows(index, nodes)
    lbs, ubs = category_bound_arrays(index.partition)
    confirmed = ubs[rows] <= radius
    ambiguous = ~confirmed & (lbs[rows] <= radius)
    _tally_masks(index, int(confirmed.sum()), int(ambiguous.sum()), rows.size)
    results: list = []
    for i, node in enumerate(nodes):
        index.touch_signature(node)
        for rank in np.flatnonzero(ambiguous[i]):
            if _refine_qualifies(index, node, int(rank), radius):
                confirmed[i, rank] = True
        hits = [int(rank) for rank in np.flatnonzero(confirmed[i])]
        if with_distances:
            results.append(
                [(rank, retrieve_distance(index, node, rank)) for rank in hits]
            )
        else:
            results.append(hits)
    return results


# ----------------------------------------------------------------------
# kNN queries
# ----------------------------------------------------------------------
def knn_query(
    index: SignatureIndexProtocol,
    node: int,
    k: int,
    *,
    knn_type: KnnType = KnnType.SET,
    cats_row: np.ndarray | None = None,
    ctx=None,
) -> list[int] | list[tuple[int, float]]:
    """Vectorized Algorithm 6; result- and page-identical to the scalar
    :func:`repro.core.queries.knn_query`.

    With ``knn_refine="pruned"`` (the index default) the boundary bucket
    resolves through :mod:`repro.core.knn_refine` — ``ctx`` lets batch
    entry points share one refinement frontier across queries.  On the
    legacy path the category bucketing (line 1) happens as one stable
    argsort of the decoded row; only the boundary bucket pays the
    Algorithm 4 sort, via the cached approximate comparator.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    _require_objects(index)
    if _pruned(index):
        from repro.core import knn_refine

        if cats_row is None:
            cats_row = decode_signature_row(index, node)
        if ctx is None:
            ctx = knn_refine.RefinementContext(index)
        return knn_refine.knn_select(
            index, node, k, knn_type=knn_type, cats_row=cats_row, ctx=ctx
        )
    index.touch_signature(node)
    if cats_row is None:
        cats_row = decode_signature_row(index, node)
    unreachable = index.partition.unreachable

    reachable = np.flatnonzero(cats_row != unreachable)
    order = np.argsort(cats_row[reachable], kind="stable")
    sorted_ranks = reachable[order]
    sorted_cats = cats_row[sorted_ranks]
    total = int(sorted_ranks.size)

    # Group boundaries: cumulative object count at the end of each
    # category bucket, ascending by category.
    if total:
        starts = np.flatnonzero(np.r_[True, np.diff(sorted_cats) != 0])
        ends = np.r_[starts[1:], total]
    else:
        starts = ends = np.empty(0, dtype=np.int64)

    if k >= total:
        confirmed_cut = total
        boundary: list[int] = []
        needed = 0
    else:
        g = int(np.searchsorted(ends, k, side="left"))
        if int(ends[g]) == k:
            confirmed_cut = k
            boundary = []
            needed = 0
        else:
            confirmed_cut = int(ends[g - 1]) if g > 0 else 0
            boundary = sorted_ranks[confirmed_cut : int(ends[g])].tolist()
            needed = k - confirmed_cut

    comparator = None
    if needed:
        comparator = _make_approx_comparator(index, node, cats_row)
        with span_of(
            index, "boundary_sort", bucket=len(boundary), needed=needed
        ):
            boundary_take = _sort_ranks(index, node, boundary, comparator)[
                :needed
            ]
    else:
        boundary_take = []

    if knn_type is KnnType.SET:
        return sorted_ranks[:confirmed_cut].tolist() + boundary_take

    if knn_type is KnnType.ORDERED:
        if comparator is None:
            comparator = _make_approx_comparator(index, node, cats_row)
        ordered: list[int] = []
        for start, end in zip(starts, ends):
            if end > confirmed_cut:
                break
            bucket = sorted_ranks[start:end].tolist()
            ordered.extend(_sort_ranks(index, node, bucket, comparator))
        ordered.extend(boundary_take)
        return ordered

    results = sorted_ranks[:confirmed_cut].tolist() + boundary_take
    with_distances = [
        (rank, retrieve_distance(index, node, rank)) for rank in results
    ]
    with_distances.sort(key=lambda pair: (pair[1], pair[0]))
    return with_distances


def knn_query_batch(
    index: SignatureIndexProtocol,
    nodes: Sequence[int],
    k: int,
    *,
    knn_type: KnnType = KnnType.SET,
) -> list:
    """A kNN query per node of ``nodes``, rows decoded in one pass.

    On the pruned path the whole batch shares one refinement context:
    backtracking walks that revisit a signature or adjacency record any
    query of the batch already read charge no further pages.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    _require_objects(index)
    nodes = [int(node) for node in nodes]
    if not nodes:
        return []
    rows = decode_signature_rows(index, nodes)
    ctx = None
    if _pruned(index):
        from repro.core import knn_refine

        ctx = knn_refine.RefinementContext(index)
    return [
        knn_query(index, node, k, knn_type=knn_type, cats_row=rows[i], ctx=ctx)
        for i, node in enumerate(nodes)
    ]


# ----------------------------------------------------------------------
# aggregation and joins
# ----------------------------------------------------------------------
def aggregate_range(
    index: SignatureIndexProtocol,
    node: int,
    radius: float,
    aggregate: str = "count",
) -> float:
    """Vectorized §4.3 aggregation (same reducers as the scalar path)."""
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
    """Vectorized ε-join (§4.3): every per-object range scan issues
    through one decoded ``(B, D)`` pass over index B's signatures.

    Result- and page-identical to :func:`repro.core.queries.epsilon_join`.
    """
    if epsilon < 0:
        raise QueryError(f"epsilon must be non-negative, got {epsilon}")
    if index_a.network is not index_b.network:
        raise QueryError("epsilon join requires both datasets on one network")
    self_join = index_a is index_b
    nodes = [int(node) for node in index_a.dataset]
    if not nodes:
        return []
    rows = decode_signature_rows(index_b, nodes)
    lbs, ubs = category_bound_arrays(index_b.partition)
    confirmed = ubs[rows] <= epsilon
    ambiguous = ~confirmed & (lbs[rows] <= epsilon)
    _tally_masks(
        index_b, int(confirmed.sum()), int(ambiguous.sum()), rows.size
    )
    pairs: list[tuple[int, int]] = []
    for rank_a, node_a in enumerate(nodes):
        index_b.touch_signature(node_a)
        for rank in np.flatnonzero(ambiguous[rank_a]):
            if _refine_qualifies(index_b, node_a, int(rank), epsilon):
                confirmed[rank_a, rank] = True
        hits = np.flatnonzero(confirmed[rank_a])
        if self_join:
            hits = hits[hits > rank_a]
        pairs.extend((rank_a, int(rank_b)) for rank_b in hits)
    return pairs


def knn_join(
    index_a: SignatureIndexProtocol,
    index_b: SignatureIndexProtocol,
    k: int,
) -> list[tuple[int, list[int]]]:
    """Vectorized kNN-join (§4.3): all per-object type-3 kNN scans share
    one decoded pass over index B's signature rows.

    Result- and page-identical to :func:`repro.core.queries.knn_join`.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if index_a.network is not index_b.network:
        raise QueryError("kNN join requires both datasets on one network")
    self_join = index_a is index_b
    nodes = [int(node) for node in index_a.dataset]
    if not nodes:
        return []
    rows = decode_signature_rows(index_b, nodes)
    ctx = None
    if _pruned(index_b):
        # One refinement context per probe side (mirrors the scalar join).
        from repro.core import knn_refine

        ctx = knn_refine.RefinementContext(index_b)
    results: list[tuple[int, list[int]]] = []
    for rank_a, node_a in enumerate(nodes):
        want = k + 1 if self_join else k
        neighbors = knn_query(
            index_b, node_a, want, cats_row=rows[rank_a], ctx=ctx
        )
        if self_join:
            neighbors = [rank for rank in neighbors if rank != rank_a][:k]
        results.append((rank_a, neighbors))
    return results
