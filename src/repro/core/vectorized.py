"""Vectorized batch query engine over distance signatures.

The §4 algorithms confirm or discard candidates by *categorical* bounds
before touching any per-object machinery.  The scalar reference
implementation (:mod:`repro.core.queries`) performs that step as D Python
calls to ``index.component`` per query; this module performs it as whole
signature-row array operations instead — one ``(D,)`` (or, for batches,
``(B, D)``) comparison against per-category bound arrays — and backtracks
(Algorithm 1) only for the *ambiguous boundary set* whose category
straddles the decision radius.

Range, distance, aggregate and ε-join keep the paper's page-access
semantics exactly: ``touch_signature`` is charged once per visited query
node, and every backtracking walk (refinement, exact distances) runs
through :func:`_walk`, which reads the columnar store directly but
performs the scalar :class:`~repro.core.operations.Backtracker`'s checks,
page charges, decompression tallies and hop counts operation for
operation.  kNN differs by design: its boundary bucket resolves through
the bound-pruned refinement of :mod:`repro.core.knn_refine` instead of
the paper's pairwise sort, so it returns the same answers from far fewer
pages.

The property suite (``tests/test_vectorized.py``) asserts result
equality with the scalar path on random configurations, page equality
for range, aggregate and ε-join, and ``columnar <= scalar`` pages for
kNN; ``tests/test_columnar.py`` compares the walk's answers, pages,
decompressions and hops with the scalar engine's.

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

import math
from collections.abc import Sequence

import numpy as np

from repro.core import knn_refine
from repro.core.categories import category_bound_arrays, category_bound_lists
from repro.core.operations import SignatureIndexProtocol, link_out_of_range
from repro.core.queries import _AGGREGATES, KnnType, _require_objects
from repro.core.signature import LINK_HERE, LINK_NONE
from repro.errors import DisconnectedError, IndexError_, QueryError
from repro.obs.tracing import NULL_SPAN, span_of

__all__ = [
    "decode_signature_row",
    "decode_signature_rows",
    "range_query",
    "range_query_batch",
    "distance",
    "distance_batch",
    "knn_query",
    "knn_query_batch",
    "aggregate_range",
    "epsilon_join",
    "knn_join",
]


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
# Algorithm 1 over the columnar store (identical I/O to the reference path)
# ----------------------------------------------------------------------
def _walk(
    index: SignatureIndexProtocol,
    node: int,
    rank: int,
    radius: float | None = None,
    *,
    span=NULL_SPAN,
) -> float | bool:
    """Guided backtracking (Algorithm 1) from ``node`` toward ``rank``.

    Without ``radius``, the exact distance, as
    :func:`~repro.core.operations.retrieve_distance` returns it
    (:class:`~repro.errors.DisconnectedError` when ``node``'s signature
    marks the object unreachable).  With ``radius``, whether the distance
    is within it: the walk steps only while the range straddles the
    radius, which is what refining against ``DistanceRange(radius,
    radius)`` decides.

    Operation for operation a :class:`~repro.core.operations.Backtracker`
    walk, minus its per-hop objects: components come straight from the
    columnar store (logical categories, so a flagged one needs no
    summation, but each read of it still tallies one decompression), each
    hop charges ``touch_adjacency`` at the current node and
    ``touch_signature`` at the next, the accumulator sums edge weights
    left to right, and shifted bounds are ``lb + acc`` / ``ub + acc``, a
    range counting as exact once they are equal.  The hop count goes to
    ``backtrack.hops`` and to ``span``'s ``hops`` attribute.
    """
    store = index.columnar
    categories = store.categories
    links = store.links
    compressed = store.compressed
    lower, upper = category_bound_lists(index.partition)
    adjacency = index.network.adjacency_lists()
    touch_adjacency = index.touch_adjacency
    touch_signature = index.touch_signature
    max_steps = index.network.num_nodes
    cur = node
    acc = 0.0
    steps = 0
    decompressed = 0
    try:
        decompressed += compressed.item(cur, rank)
        link = links.item(cur, rank)
        if link == LINK_HERE:
            lo = hi = 0.0
        elif link == LINK_NONE:
            lo = hi = math.inf
        else:
            category = categories.item(cur, rank)
            lo, hi = lower[category], upper[category]
        if radius is None and lo == math.inf:
            raise DisconnectedError(node, rank)
        while lo != hi:
            if radius is not None and not lo <= radius < hi:
                return hi <= radius
            steps += 1
            if steps > max_steps:
                raise IndexError_(
                    f"backtracking toward object {rank} exceeded "
                    f"{max_steps} hops: the link table is corrupt"
                )
            touch_adjacency(cur)
            row = adjacency[cur]
            if not 0 <= link < len(row):
                raise link_out_of_range(cur, link, rank)
            cur, weight = row[link]
            acc += weight
            touch_signature(cur)
            decompressed += compressed.item(cur, rank)
            link = links.item(cur, rank)
            if link == LINK_HERE:
                lo = hi = acc
            elif link == LINK_NONE:
                raise IndexError_(
                    f"backtracking reached node {cur} whose signature "
                    f"marks object {rank} unreachable"
                )
            else:
                category = categories.item(cur, rank)
                lo, hi = lower[category] + acc, upper[category] + acc
        return lo if radius is None else lo <= radius
    finally:
        index.decompressions += decompressed
        hops = getattr(index, "_metric_backtrack_hops", None)
        if steps and hops is not None:
            hops.inc(steps)
        span.set("hops", steps)


def _refine_qualifies(
    index: SignatureIndexProtocol, node: int, rank: int, radius: float
) -> bool:
    """Algorithm 5's third case: backtrack until the range decides."""
    with span_of(index, "refine", rank=rank) as span:
        return _walk(index, node, rank, radius, span=span)


def distance(index: SignatureIndexProtocol, node: int, rank: int) -> float:
    """Exact distance retrieval (Algorithm 1); raises
    :class:`~repro.errors.DisconnectedError` when ``node``'s signature
    marks the object unreachable."""
    return _walk(index, node, rank)


def distance_batch(
    index: SignatureIndexProtocol, nodes: Sequence[int], ranks: Sequence[int]
) -> list[float]:
    """Exact distance per aligned ``(nodes[i], ranks[i])`` pair, ``inf``
    for a pair whose signature marks the object unreachable."""
    out = []
    for node, rank in zip(nodes, ranks):
        try:
            out.append(_walk(index, node, rank))
        except DisconnectedError:
            out.append(math.inf)
    return out


def _tally_masks(index, confirmed: int, ambiguous: int, total: int) -> None:
    """Record the categorical-phase outcome: how much of the candidate
    set the vectorized masks decided without backtracking."""
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
    return [(rank, _walk(index, node, rank)) for rank in hits]


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
                [(rank, _walk(index, node, rank)) for rank in hits]
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
    ctx: knn_refine.RefinementContext | None = None,
) -> list[int] | list[tuple[int, float]]:
    """Algorithm 6 with the boundary bucket resolved by the bound-pruned
    refinement of :mod:`repro.core.knn_refine`.

    Results are bit-identical to the scalar
    :func:`repro.core.queries.knn_query`; pages differ, since the paper's
    pairwise boundary sort re-reads what the shared frontier charges
    once.  Batch entry points pass the decoded ``cats_row`` and one
    ``ctx`` shared across their queries.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    _require_objects(index)
    if cats_row is None:
        cats_row = decode_signature_row(index, node)
    if ctx is None:
        ctx = knn_refine.RefinementContext(index)
    return knn_refine.knn_select(
        index, node, k, knn_type=knn_type, cats_row=cats_row, ctx=ctx
    )


def knn_query_batch(
    index: SignatureIndexProtocol,
    nodes: Sequence[int],
    k: int,
    *,
    knn_type: KnnType = KnnType.SET,
) -> list:
    """A kNN query per node of ``nodes``, rows decoded in one pass.

    The whole batch shares one refinement context: backtracking walks
    that revisit a signature or adjacency record any query of the batch
    already read charge no further pages.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    _require_objects(index)
    nodes = [int(node) for node in nodes]
    if not nodes:
        return []
    rows = decode_signature_rows(index, nodes)
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
    one decoded pass over index B's signature rows and one refinement
    context.

    Result-identical to :func:`repro.core.queries.knn_join`.
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
    # One refinement context for the whole probe side: page reads and
    # decompressions amortize across every per-object kNN scan.
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
