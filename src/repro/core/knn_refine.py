"""Bound-pruned, frontier-shared kNN refinement (§3.2 + Algorithm 6).

The boundary bucket of a kNN query is the expensive part of Algorithm 6:
every member historically went through exact pairwise comparison
(Algorithm 2), re-reading the same signature and adjacency pages once
per comparison.  This module replaces that resolution with three pieces:

* :func:`candidate_bounds` — vectorized §3.2 observer-embedding bounds.
  Every object ``c`` with a known distance to candidate ``o`` acts as an
  anchor: ``d(q, o) >= d(c, o) - d(q, c)`` and ``d(q, o) <= d(q, c) +
  d(c, o)``, with ``d(q, c)`` ranged by ``c``'s categorical bounds from
  the (already read) signature row.  One numpy pass over the in-memory
  object distance table bounds the whole candidate set.
* a best-k pool of upper bounds: candidates whose lower bound exceeds
  the current k-th smallest pool value can never enter the result, under
  *any* tie-break, because at least k candidates are strictly nearer.
* :class:`RefinementContext` — a shared backtracking frontier.  Signature
  and adjacency pages are charged once per node per context (honest
  working-memory accounting: the walk keeps visited records in memory),
  and decompressed components are memoized, so refinement cost is
  amortized across candidates — and, when the context is shared by
  ``knn_query_batch`` / ``knn_join``, across queries.

This is the columnar engine's kNN (:mod:`repro.core.vectorized`).  The
scalar engine keeps the paper's pairwise resolution
(:func:`repro.core.queries.knn_query`), whose page counts Fig 6.6
reports.  Results are bit-identical between the two: the same
approximate pre-sort (Algorithm 3) seeds the order, and the exact
fix-up — the paper's adjacent-swap pass with a *strictly-greater*
comparator — is equivalent to a stable sort by exact distance over the
pre-sort order, which is what the survivors get here.  Bounds carry a
relative ``1e-9`` slack so accumulated floating-point error in the bound
arithmetic can never prune a candidate the left-to-right exact
accumulation would keep.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.core.operations import SignatureIndexProtocol
from repro.core.queries import KnnType
from repro.core.signature import LINK_HERE, LINK_NONE
from repro.errors import IndexError_
from repro.obs.tracing import span_of

__all__ = [
    "RefinementContext",
    "candidate_bounds",
    "knn_select",
]

#: Relative slack applied to every computed bound: admissibility must
#: survive float rounding both in the bound arithmetic and in the exact
#: walk's left-to-right accumulation (whose relative error is ~hops·eps,
#: many orders of magnitude below 1e-9 — while category widths are
#: macroscopic, so the pruning power lost is nil).
_SLACK = 1e-9
_UNDER = 1.0 - _SLACK
_OVER = 1.0 + _SLACK


def _inc(index, attr: str, amount: int = 1) -> None:
    """Advance a cached instrument if the index carries one (stubs don't)."""
    metric = getattr(index, attr, None)
    if metric is not None and amount:
        metric.inc(amount)


class RefinementContext:
    """A shared backtracking frontier over one index.

    Tracks which signature/adjacency records the refinement has already
    read (charging each page once — the walk's working set stays in
    memory for the duration of the context) and memoizes decompressed
    components per ``(node, rank)``.  Exact distances are **never**
    memoized: every walk accumulates edge weights left-to-right from its
    own start node, reproducing the scalar engine's accumulator bit for
    bit (float addition is not associative, so sharing suffixes would
    not).
    """

    __slots__ = (
        "index",
        "partition",
        "reuse_hits",
        "_seen_sig",
        "_seen_adj",
        "_components",
        "_hops_metric",
        "_reuse_metric",
    )

    def __init__(self, index: SignatureIndexProtocol) -> None:
        self.index = index
        self.partition = index.partition
        self.reuse_hits = 0
        self._seen_sig: set[int] = set()
        self._seen_adj: set[int] = set()
        self._components: dict[tuple[int, int], tuple[int, int]] = {}
        self._hops_metric = getattr(index, "_metric_backtrack_hops", None)
        self._reuse_metric = getattr(index, "_metric_refine_reuse", None)

    def touch_signature(self, node: int) -> None:
        """Charge ``node``'s signature pages, once per context."""
        if node in self._seen_sig:
            self.reuse_hits += 1
            if self._reuse_metric is not None:
                self._reuse_metric.inc()
            return
        self._seen_sig.add(node)
        self.index.touch_signature(node)

    def touch_adjacency(self, node: int) -> None:
        """Charge ``node``'s adjacency pages, once per context."""
        if node in self._seen_adj:
            self.reuse_hits += 1
            if self._reuse_metric is not None:
                self._reuse_metric.inc()
            return
        self._seen_adj.add(node)
        self.index.touch_adjacency(node)

    def component(self, node: int, rank: int) -> tuple[int, int]:
        """The ``(category, link)`` of object ``rank`` at ``node``, memoized."""
        key = (node, rank)
        cached = self._components.get(key)
        if cached is None:
            component = self.index.component(node, rank)
            cached = (component.category, component.link)
            self._components[key] = cached
        return cached

    def exact_distance(
        self, node: int, rank: int, *, stop_above: float | None = None
    ) -> float | None:
        """Guided backtracking (Algorithm 1) through the shared frontier.

        Returns the exact distance, ``inf`` when ``node``'s signature
        marks the object unreachable, or ``None`` when ``stop_above`` is
        given and the walk proves ``d > stop_above`` mid-way (the
        abandoned candidate cannot be a k-nearest result).
        """
        index = self.index
        partition = self.partition
        max_steps = index.network.num_nodes
        hops_metric = self._hops_metric
        acc = 0.0
        cur = node
        steps = 0
        while True:
            category, link = self.component(cur, rank)
            if link == LINK_HERE:
                return acc
            if link == LINK_NONE:
                if cur == node:
                    return math.inf
                raise IndexError_(
                    f"backtracking reached node {cur} whose signature marks "
                    f"object {rank} unreachable"
                )
            if stop_above is not None:
                remaining_lb = partition.lower_bound(category)
                if (acc + remaining_lb) * _UNDER > stop_above:
                    return None
            steps += 1
            if steps > max_steps:
                raise IndexError_(
                    f"backtracking toward object {rank} exceeded "
                    f"{max_steps} hops: the link table is corrupt"
                )
            if hops_metric is not None:
                hops_metric.inc()
            self.touch_adjacency(cur)
            next_node, weight = index.network.neighbor_at(cur, link)
            acc += weight
            cur = next_node
            self.touch_signature(cur)


def candidate_bounds(
    index: SignatureIndexProtocol,
    cats_row: np.ndarray,
    candidates: list[int] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper distance bounds for ``candidates``, one numpy pass.

    Combines each candidate's own categorical bounds with the §3.2
    observer-embedding triangle inequalities against *every* object as
    anchor.  ``NaN`` entries of the object table (finite last-category
    pairs dropped per §3.2.2) still carry information: the true pair
    distance is at least the last category's lower bound.  Returned
    arrays align with ``candidates`` and carry the admissibility slack
    (lower bounds shrunk, upper bounds grown, by 1e-9 relative).
    """
    from repro.core.vectorized import category_bound_arrays

    partition = index.partition
    lbs, ubs = category_bound_arrays(partition)
    cats = np.asarray(cats_row, dtype=np.int64)
    clb_all = lbs[cats]
    cub_all = ubs[cats]
    cand = np.asarray(candidates, dtype=np.int64)
    clb = clb_all[cand].copy()
    cub = cub_all[cand].copy()
    matrix = index.object_table.matrix_view()
    if matrix.shape[0] == 0 or cand.size == 0:
        return clb, cub
    last_lb = partition.lower_bound(partition.num_categories - 1)
    block = matrix[:, cand]  # (anchors, candidates)
    dropped = np.isnan(block)
    pair_lb = np.where(dropped, last_lb, block)
    pair_ub = np.where(dropped, np.inf, block)
    anchor_lb = clb_all[:, None]
    anchor_ub = cub_all[:, None]
    with np.errstate(invalid="ignore"):
        # d(q,o) >= max(d(c,o) - d(q,c), d(q,c) - d(c,o)) per anchor c.
        low_terms = np.maximum(pair_lb - anchor_ub, anchor_lb - pair_ub)
        up_terms = anchor_ub + pair_ub
    # inf - inf artifacts (disconnected anchors) assert nothing.
    low_terms = np.nan_to_num(
        low_terms, nan=-np.inf, posinf=np.inf, neginf=-np.inf
    )
    lower = np.maximum(clb, low_terms.max(axis=0) * _UNDER)
    upper = np.minimum(cub, up_terms.min(axis=0) * _OVER)
    return lower, upper


def _kth_smallest(values: np.ndarray, k: int) -> float:
    return float(np.partition(values, k - 1)[k - 1])


def _approx_comparator(index, node: int, cats_row: np.ndarray):
    """The Algorithm 3 comparator seeded from the decoded row —
    decision-identical to the scalar engine's pre-sort."""
    from repro.core.vectorized import _make_approx_comparator

    return _make_approx_comparator(index, node, cats_row)


def _refine_boundary(
    index,
    node: int,
    bucket: list[int],
    needed: int,
    cats_row: np.ndarray,
    comparator,
    ctx: RefinementContext,
) -> tuple[list[int], dict[int, float]]:
    """Resolve the boundary bucket: the first ``needed`` members in exact
    ascending order (the scalar engine's tie-breaks preserved), pruning
    by bounds.

    Returns ``(take, exact)`` where ``exact`` also holds every distance
    the refinement computed (reused by the EXACT_DISTANCES result type).
    """
    presorted = sorted(bucket, key=functools.cmp_to_key(comparator))
    position = {rank: i for i, rank in enumerate(presorted)}
    with span_of(
        index, "refine.bound", bucket=len(bucket), needed=needed
    ) as span:
        lower, upper = candidate_bounds(index, cats_row, presorted)
        span.set("finite_uppers", int(np.isfinite(upper).sum()))
    metrics = getattr(index, "metrics", None)
    if metrics is not None and metrics.enabled:
        tightness = metrics.histogram("knn_refine.bound_tightness")
        for i in range(len(presorted)):
            if math.isfinite(upper[i]) and upper[i] > 0:
                tightness.observe(max(1.0 - lower[i] / upper[i], 0.0))

    # Best-k pool: each candidate enters at its upper bound and drops to
    # its exact distance once refined; the k-th smallest pool value only
    # ever decreases, so every pruning decision stays valid.
    values = upper.copy()
    threshold = _kth_smallest(values, needed)
    exact: dict[int, float] = {}
    pruned = 0
    order = sorted(range(len(presorted)), key=lambda i: (lower[i], i))
    with span_of(
        index, "refine.exact", bucket=len(bucket), needed=needed
    ) as span:
        for i in order:
            if lower[i] > threshold:
                pruned += 1
                continue
            rank = presorted[i]
            distance = ctx.exact_distance(node, rank, stop_above=threshold)
            if distance is None:
                pruned += 1
                continue
            exact[rank] = distance
            values[i] = distance
            threshold = _kth_smallest(values, needed)
        if len(exact) < needed:  # pragma: no cover - admissibility guard
            for i in order:
                rank = presorted[i]
                if rank not in exact:
                    exact[rank] = ctx.exact_distance(node, rank)
                if len(exact) >= needed:
                    break
        span.set("pruned", pruned)
        span.set("refined", len(exact))
    _inc(index, "_metric_refine_pruned", pruned)
    _inc(index, "_metric_refine_refined", len(exact))
    # Stable sort by exact distance over the pre-sort order == the paper's
    # adjacent-swap fix-up's final order; pruned candidates are strictly
    # farther than at least `needed` survivors, so the head is identical.
    take = sorted(exact, key=lambda rank: (exact[rank], position[rank]))
    return take[:needed], exact


def _order_bucket(
    index,
    node: int,
    bucket: list[int],
    comparator,
    ctx: RefinementContext,
    exact: dict[int, float],
) -> list[int]:
    """A confirmed bucket in exact ascending order (Algorithm 4's result),
    refined through the shared frontier instead of pairwise comparison."""
    if len(bucket) == 1:
        return list(bucket)
    presorted = sorted(bucket, key=functools.cmp_to_key(comparator))
    walked = 0
    for rank in presorted:
        if rank not in exact:
            exact[rank] = ctx.exact_distance(node, rank)
            walked += 1
    _inc(index, "_metric_refine_refined", walked)
    position = {rank: i for i, rank in enumerate(presorted)}
    return sorted(presorted, key=lambda rank: (exact[rank], position[rank]))


def knn_select(
    index: SignatureIndexProtocol,
    node: int,
    k: int,
    *,
    knn_type: KnnType,
    cats_row: np.ndarray,
    ctx: RefinementContext,
) -> list[int] | list[tuple[int, float]]:
    """Algorithm 6 on a decoded row, boundary resolved by pruned
    refinement — bit-identical results (ties, order, per ``KnnType``) to
    the scalar engine's :func:`repro.core.queries.knn_query`."""
    ctx.touch_signature(node)
    partition = index.partition
    unreachable = partition.unreachable
    cats_row = np.asarray(cats_row, dtype=np.int64)

    reachable = np.flatnonzero(cats_row != unreachable)
    order = np.argsort(cats_row[reachable], kind="stable")
    sorted_ranks = reachable[order]
    sorted_cats = cats_row[sorted_ranks]
    total = int(sorted_ranks.size)
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
    exact: dict[int, float] = {}
    if needed:
        comparator = _approx_comparator(index, node, cats_row)
        boundary_take, exact = _refine_boundary(
            index, node, boundary, needed, cats_row, comparator, ctx
        )
    else:
        boundary_take = []

    if knn_type is KnnType.SET:
        return sorted_ranks[:confirmed_cut].tolist() + boundary_take

    if knn_type is KnnType.ORDERED:
        if comparator is None:
            comparator = _approx_comparator(index, node, cats_row)
        ordered: list[int] = []
        for start, end in zip(starts, ends):
            if end > confirmed_cut:
                break
            bucket = sorted_ranks[start:end].tolist()
            ordered.extend(
                _order_bucket(index, node, bucket, comparator, ctx, exact)
            )
        ordered.extend(boundary_take)
        return ordered

    results = sorted_ranks[:confirmed_cut].tolist() + boundary_take
    with_distances = []
    for rank in results:
        distance = exact.get(rank)
        if distance is None:
            distance = ctx.exact_distance(node, rank)
        with_distances.append((rank, distance))
    with_distances.sort(key=lambda pair: (pair[1], pair[0]))
    return with_distances
