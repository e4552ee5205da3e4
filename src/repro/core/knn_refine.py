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
  and each flagged component's decompression is tallied once, so
  refinement cost is amortized across candidates — and, when the context
  is shared by ``knn_query_batch`` / ``knn_join``, across queries.  Walks
  read categories and links straight from the columnar store.

This is the columnar engine's kNN (:mod:`repro.core.vectorized`).  The
scalar engine keeps the paper's pairwise resolution
(:func:`repro.core.queries.knn_query`), whose page counts Fig 6.6
reports.  Results are bit-identical between the two: the same
approximate pre-sort (Algorithm 3, here voted from the decoded row by
:func:`_make_approx_comparator`) seeds the order, and the exact
fix-up — the paper's adjacent-swap pass with a *strictly-greater*
comparator — is equivalent to a stable sort by exact distance over the
pre-sort order, which is what the survivors get here.  Bounds carry a
relative ``1e-9`` slack so accumulated floating-point error in the bound
arithmetic can never prune a candidate the left-to-right exact
accumulation would keep.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from repro.core.categories import category_bound_arrays, category_bound_lists
from repro.core.operations import SignatureIndexProtocol, link_out_of_range
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
    memory for the duration of the context) and which flagged
    ``(node, rank)`` components it has decompressed (tallied once each).
    Exact distances are **never** memoized: every walk accumulates edge
    weights left-to-right from its own start node, reproducing the scalar
    engine's accumulator bit for bit (float addition is not associative,
    so sharing suffixes would not).
    """

    __slots__ = (
        "index",
        "reuse_hits",
        "_seen_sig",
        "_seen_adj",
        "_decompressed",
        "_lower_bounds",
        "_hops_metric",
        "_reuse_metric",
    )

    def __init__(self, index: SignatureIndexProtocol) -> None:
        self.index = index
        self.reuse_hits = 0
        self._seen_sig: set[int] = set()
        self._seen_adj: set[int] = set()
        self._decompressed: set[tuple[int, int]] = set()
        self._lower_bounds = category_bound_lists(index.partition)[0]
        self._hops_metric = getattr(index, "_metric_backtrack_hops", None)
        self._reuse_metric = getattr(index, "_metric_refine_reuse", None)

    def _reused(self, hits: int) -> None:
        self.reuse_hits += hits
        if self._reuse_metric is not None:
            self._reuse_metric.inc(hits)

    def touch_signature(self, node: int) -> None:
        """Charge ``node``'s signature pages, once per context."""
        if node in self._seen_sig:
            self._reused(1)
            return
        self._seen_sig.add(node)
        self.index.touch_signature(node)

    def exact_distance(
        self, node: int, rank: int, *, stop_above: float | None = None
    ) -> float | None:
        """Guided backtracking (Algorithm 1) through the shared frontier.

        Returns the exact distance, ``inf`` when ``node``'s signature
        marks the object unreachable, or ``None`` when ``stop_above`` is
        given and the walk proves ``d > stop_above`` mid-way (the
        abandoned candidate cannot be a k-nearest result).

        Each hop reads the component at the current node straight from
        the columnar store (which holds logical categories, so a flagged
        component needs no summation) and charges what the scalar
        walk's ``index.component`` would: one decompression per flagged
        ``(node, rank)``, here once per context.
        """
        index = self.index
        store = index.columnar
        categories = store.categories
        links = store.links
        compressed = store.compressed
        adjacency = index.network.adjacency_lists()
        touch_adjacency = index.touch_adjacency
        touch_signature = index.touch_signature
        lower_bounds = self._lower_bounds
        seen_sig = self._seen_sig
        seen_adj = self._seen_adj
        decompressed = self._decompressed
        max_steps = index.network.num_nodes
        acc = 0.0
        cur = node
        steps = 0
        reused = 0
        try:
            while True:
                if compressed.item(cur, rank):
                    key = (cur, rank)
                    if key not in decompressed:
                        decompressed.add(key)
                        index.decompressions += 1
                link = links.item(cur, rank)
                if link == LINK_HERE:
                    return acc
                if link == LINK_NONE:
                    if cur == node:
                        return math.inf
                    raise IndexError_(
                        f"backtracking reached node {cur} whose signature "
                        f"marks object {rank} unreachable"
                    )
                if stop_above is not None:
                    remaining_lb = lower_bounds[categories.item(cur, rank)]
                    if (acc + remaining_lb) * _UNDER > stop_above:
                        return None
                if steps >= max_steps:
                    raise IndexError_(
                        f"backtracking toward object {rank} exceeded "
                        f"{max_steps} hops: the link table is corrupt"
                    )
                steps += 1
                if cur in seen_adj:
                    reused += 1
                else:
                    seen_adj.add(cur)
                    touch_adjacency(cur)
                row = adjacency[cur]
                if not 0 <= link < len(row):
                    raise link_out_of_range(cur, link, rank)
                cur, weight = row[link]
                acc += weight
                if cur in seen_sig:
                    reused += 1
                else:
                    seen_sig.add(cur)
                    touch_signature(cur)
        finally:
            if steps and self._hops_metric is not None:
                self._hops_metric.inc(steps)
            if reused:
                self._reused(reused)


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
    low_terms = np.where(np.isnan(low_terms), -np.inf, low_terms)
    lower = np.maximum(clb, low_terms.max(axis=0) * _UNDER)
    upper = np.minimum(cub, up_terms.min(axis=0) * _OVER)
    return lower, upper


def _kth_smallest(values: list[float], k: int) -> float:
    # Bounds and exact distances are never NaN, so the order is total.
    return sorted(values)[k - 1]


def _make_approx_comparator(index, cats_row: np.ndarray):
    """Algorithm 3 (approximate comparison) seeded from a decoded row.

    Decision-identical to :func:`repro.core.operations.compare_approximate`
    — same observer set, same NaN/inf exclusions, and the float
    operations of ``_observer_vote`` / ``_embed_observer`` /
    ``_foot_distance`` in the same order — but built once per query: the
    category bounds are plain tuples, each shared category's observers
    (objects strictly closer to the query node than the compared pair)
    are read off ``cats_row`` once as ``(rank, obs_lb, obs_ub,
    object-table row)``, and the terms that depend only on the compared
    pair are computed once per comparison instead of once per observer.
    Zero I/O either way, so the ordering *and* the paging of the exact
    phase that follows are unchanged.
    """
    unreachable = index.partition.unreachable
    lbs, ubs = category_bound_lists(index.partition)
    matrix = index.object_table.matrix_view()
    cats = cats_row.tolist()
    rows: dict[int, list[float]] = {}
    observers_of: dict[int, list[tuple[int, float, float, list[float]]]] = {}
    sqrt = math.sqrt
    hypot = math.hypot
    inf = math.inf

    def row(rank: int) -> list[float]:
        values = rows.get(rank)
        if values is None:
            values = rows[rank] = matrix[rank].tolist()
        return values

    def compare(rank_a: int, rank_b: int) -> int:
        shared = cats[rank_a]
        cat_b = cats[rank_b]
        if shared != cat_b:
            return -1 if shared < cat_b else 1
        if shared >= unreachable:
            return 0
        d_ab = row(rank_a)[rank_b]
        # Dropped (NaN) and disconnected (inf) pairs are not stored.
        if not -inf < d_ab < inf or d_ab <= 0:
            return 0
        half = d_ab / 2.0
        r_lo = max(lbs[shared], half)
        r_hi = ubs[shared]
        if r_lo > r_hi:
            return 0  # every observer abstains: no bisector point fits
        bounded = r_hi != inf
        y_lo = sqrt(max(r_lo * r_lo - half * half, 0.0))
        if bounded:
            y_hi = sqrt(max(r_hi * r_hi - half * half, 0.0))
        ab_sq = d_ab * d_ab
        two_ab = 2.0 * d_ab
        observers = observers_of.get(shared)
        if observers is None:
            observers = observers_of[shared] = [
                (rank, lbs[category], ubs[category], row(rank))
                for rank, category in enumerate(cats)
                if category < shared
            ]
        votes = 0
        for rank, obs_lb, obs_ub, distances in observers:
            if rank == rank_a or rank == rank_b:
                continue
            d_ca = distances[rank_a]
            d_cb = distances[rank_b]
            if not (-inf < d_ca < inf and -inf < d_cb < inf):
                continue
            if d_ca == d_cb:
                continue  # the observer cannot pick a side
            # The observer embedded with a at (0, 0) and b at (d_ab, 0).
            cx = (d_ca * d_ca - d_cb * d_cb + ab_sq) / two_ab
            y_sq = d_ca * d_ca - cx * cx
            cy = sqrt(y_sq) if y_sq > 0 else 0.0
            dx = cx - half
            lo_plus = hypot(dx, cy - y_lo)
            lo_minus = hypot(dx, cy + y_lo)
            if bounded:
                hi_plus = hypot(dx, cy - y_hi)
                hi_minus = hypot(dx, cy + y_hi)
                d_min = min(lo_plus, lo_minus, hi_plus, hi_minus)
                d_max = max(lo_plus, lo_minus, hi_plus, hi_minus)
            else:
                d_min = min(lo_plus, lo_minus)
                d_max = inf
            if r_lo <= hypot(half, abs(cy)) <= r_hi:
                d_min = min(d_min, abs(dx))
            if d_max < obs_lb:
                votes += 1 if d_ca < d_cb else -1
            elif d_min > obs_ub:
                votes += -1 if d_ca < d_cb else 1
        if votes < 0:
            return -1
        if votes > 0:
            return 1
        return 0

    return compare


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
    lower = lower.tolist()
    upper = upper.tolist()
    metrics = getattr(index, "metrics", None)
    if metrics is not None and metrics.enabled:
        tightness = metrics.histogram("knn_refine.bound_tightness")
        for low, up in zip(lower, upper):
            if math.isfinite(up) and up > 0:
                tightness.observe(max(1.0 - low / up, 0.0))

    # Best-k pool: each candidate enters at its upper bound and drops to
    # its exact distance once refined; the k-th smallest pool value only
    # ever decreases, so every pruning decision stays valid.
    values = list(upper)
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
    unreachable = index.partition.unreachable
    cats_row = np.asarray(cats_row)
    cats = cats_row.tolist()
    # Reachable ranks by ascending category, ties in rank order.
    sorted_ranks = sorted(
        [rank for rank, cat in enumerate(cats) if cat != unreachable],
        key=cats.__getitem__,
    )
    sorted_cats = [cats[rank] for rank in sorted_ranks]
    total = len(sorted_ranks)
    # ends[g]: one past the last position of the g-th category bucket.
    ends = [
        i for i in range(1, total) if sorted_cats[i] != sorted_cats[i - 1]
    ]
    if total:
        ends.append(total)

    if k >= total:
        confirmed_cut = total
        boundary: list[int] = []
        needed = 0
    else:
        g = bisect.bisect_left(ends, k)
        if ends[g] == k:
            confirmed_cut = k
            boundary = []
            needed = 0
        else:
            confirmed_cut = ends[g - 1] if g > 0 else 0
            boundary = sorted_ranks[confirmed_cut : ends[g]]
            needed = k - confirmed_cut

    comparator = None
    exact: dict[int, float] = {}
    if needed:
        comparator = _make_approx_comparator(index, cats_row)
        boundary_take, exact = _refine_boundary(
            index, node, boundary, needed, cats_row, comparator, ctx
        )
    else:
        boundary_take = []

    if knn_type is KnnType.SET:
        return sorted_ranks[:confirmed_cut] + boundary_take

    if knn_type is KnnType.ORDERED:
        if comparator is None:
            comparator = _make_approx_comparator(index, cats_row)
        ordered: list[int] = []
        for start, end in zip([0] + ends, ends):
            if end > confirmed_cut:
                break
            bucket = sorted_ranks[start:end]
            ordered.extend(
                _order_bucket(index, node, bucket, comparator, ctx, exact)
            )
        ordered.extend(boundary_take)
        return ordered

    results = sorted_ranks[:confirmed_cut] + boundary_take
    with_distances = []
    for rank in results:
        distance = exact.get(rank)
        if distance is None:
            distance = ctx.exact_distance(node, rank)
        with_distances.append((rank, distance))
    with_distances.sort(key=lambda pair: (pair[1], pair[0]))
    return with_distances
