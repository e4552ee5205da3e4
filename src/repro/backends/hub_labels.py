"""Hub labels distilled from CH search spaces (2-hop distance labels).

The point-to-point index family beside the paper's signatures: it runs
every node's upward contraction-hierarchy search at preprocessing time
and stores the result.  Every node ``v`` gets a label ``L(v)`` — hub
ids and exact distances, sorted by hub id in one contiguous CSR — such
that for any ``s, t`` the minimum of ``d_s(h) + d_t(h)`` over hubs
shared by ``L(s)`` and ``L(t)`` is the exact network distance (the
2-hop cover property, cf. "Hop Doubling Label Indexing" in PAPERS.md;
the construction here is the CH-based one of Abraham et al. as
engineered by Zhu et al.).

Construction: labels are the upward search spaces of
:class:`~repro.backends.ch.ContractionHierarchy`, pruned of
overestimates.  Once ranks are fixed the distillation runs in two
phases: (1) every node's *unstalled* search space, from one
rank-descending dynamic program
(:meth:`~repro.backends.ch.ContractionHierarchy.batch_search_spaces`)
that yields one CSR in node order; (2) per-entry pruning, where
``(h, d)`` survives iff joining ``v``'s space against ``h``'s *space*
cannot beat ``d``.  A search space is itself a valid hub label, so that
join already equals the exact distance ``d(v, h)`` — the keep rule is
"the entry is exact", the same set the classic
prune-against-finished-labels recurrence keeps — which removes the
rank-order data dependency between nodes: phase (2) is a series of
:func:`~repro.backends.base.batch_label_join_csr` kernel calls over
blocks of the shared phase-(1) CSR.  Pruning only removes entries that
were never shortest-path witnesses, so the cover property is inherited
from the search spaces; and since the unstalled space adds only inexact
entries to the stalled one, the labels equal those distilled from
stalled per-node sweeps.  The index keeps the phase-(1) CSR: it is the
base incremental maintenance diffs against.

``distance()`` is then a sorted-merge intersection of two label slices —
no graph traversal at all — and ``distance_batch()`` runs the same join
for a whole batch in one vectorized kernel pass, which is what buys the
distance-qps lead over the signature index (``BENCH_backends.json``,
``BENCH_scale.json``).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from repro.backends.base import (
    BucketLists,
    RepairPhases,
    _expand_side,
    batch_label_join_csr,
    label_join,
    pairwise_label_distances,
    release_join_workspace,
)
from repro.backends.ch import (
    WITNESS_SETTLE_CAP,
    ContractionHierarchy,
    changed_rows,
    splice_rows,
)
from repro.core.categories import CategoryPartition, optimal_partition
from repro.core.index import (
    _NULL_SCOPE,
    _coerce_batch_nodes,
    _coerce_k,
    _coerce_radius,
)
from repro.core.queries import _AGGREGATES, KnnType
from repro.core.signature import ObjectDistanceTable
from repro.core.update import UpdateReport
from repro.errors import IndexError_, QueryError
from repro.network.graph import RoadNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, span_of
from repro.storage.pager import PageAccessCounter

__all__ = ["HubLabelIndex", "build_labels"]


#: Gathered label entries per pruning join call.  The batch kernel's
#: thread-local workspace (``repro.backends.base._JOIN_WORKSPACE``)
#: grows to the largest call it has served and keeps that size for the
#: thread's life, so blocks are bounded by the label mass they gather
#: (both sides' slices), not by pair count: 2^17 entries cap the
#: workspace near 9 MB while each call still spans hundreds of pairs.
_JOIN_BLOCK_ENTRIES = 1 << 17

#: Relative slack of the crossing tests (:func:`_toward`,
#: :func:`_moved`, :func:`_straddlers`).  Each compares sums of one
#: path's weights added in different orders — label joins against
#: space-DP entries — which can disagree in the last bits when weights
#: are not dyadic.  A wider test only sends more entries to the
#: exactness join, which makes the final decision, so the tests err
#: wide: ``x`` counts as no longer than ``bound`` while
#: ``x <= bound * (1 + _SLACK)``.
_SLACK = 1e-9


def _within(x: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """``x <= bound`` up to the rounding slack (``NaN`` never is)."""
    return x <= bound * (1.0 + _SLACK)


def _exact_mask(indptr, hubs, dists, owners, entry_hubs, entry_dists):
    """Which space entries ``(owners[i], entry_hubs[i], entry_dists[i])``
    carry the exact distance.

    Each entry's owner space is joined against its hub's space — both
    slices of the space CSR ``indptr`` / ``hubs`` / ``dists`` — with
    :func:`batch_label_join_csr`; an entry is kept iff the join cannot
    beat its distance.  Calls cover consecutive entries and gather at
    most :data:`_JOIN_BLOCK_ENTRIES` label entries each (a single pair
    over the budget gets a call of its own); the verdicts do not depend
    on the blocking.
    """
    lengths = np.diff(indptr)
    gathered = np.cumsum(lengths[owners] + lengths[entry_hubs])
    keep = np.empty(len(owners), dtype=bool)
    start = 0
    while start < len(owners):
        before = int(gathered[start - 1]) if start else 0
        stop = int(
            np.searchsorted(
                gathered, before + _JOIN_BLOCK_ENTRIES, side="right"
            )
        )
        stop = max(stop, start + 1)
        exact = batch_label_join_csr(
            indptr, hubs, dists, owners[start:stop], entry_hubs[start:stop]
        )
        keep[start:stop] = ~(exact < entry_dists[start:stop])
        start = stop
    return keep


def _distil(
    spaces: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exactness pruning of a search-space CSR into the label CSR."""
    indptr, hubs, dists = spaces
    n = len(indptr) - 1
    owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keep = _exact_mask(indptr, hubs, dists, owners, hubs, dists)
    label_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners[keep], minlength=n), out=label_indptr[1:])
    return label_indptr, hubs[keep].astype(np.int32), dists[keep]


def _toward(network, labels, source: int, target: int, weight: float):
    """``d(x, source)`` for the nodes ``x`` with
    ``d(x, source) + weight == d(x, target)``, ``inf`` elsewhere.

    The equality is tested up to the rounding slack (:func:`_within`),
    so the set may hold a few near-ties besides: every caller only
    needs a superset.  ``labels`` is any valid labeling CSR of
    ``network``.  The set is closed under stepping toward ``source``
    along a shortest path — if ``x`` is in it, so is the next hop of
    any shortest ``x``–``source`` path — so it is grown breadth-first
    from ``source`` through graph neighbors, one frontier at a time,
    and the work is proportional to the set and its boundary rather
    than to the network.  A frontier's
    distances to ``source`` and ``target`` are one-to-many label joins:
    each candidate's label entries against the two endpoints' labels
    spread over dense hub-indexed arrays (the same shared-hub sums
    :func:`label_join` minimizes).
    """
    indptr, hubs, dists = labels
    n = network.num_nodes
    ends = []
    for end in (source, target):
        dense = np.full(n, np.inf)
        lo, hi = indptr[end], indptr[end + 1]
        dense[hubs[lo:hi]] = dists[lo:hi]
        ends.append(dense)
    to_source, to_target = ends
    near = np.full(n, np.inf)
    seen = {source}
    frontier = [source]
    while frontier:
        candidates = np.asarray(frontier, dtype=np.int64)
        positions, counts = _expand_side(indptr, candidates)
        starts = np.cumsum(counts) - counts
        entry_hubs = hubs[positions]
        entry_dists = dists[positions]
        d_source = np.minimum.reduceat(entry_dists + to_source[entry_hubs],
                                       starts)
        d_target = np.minimum.reduceat(entry_dists + to_target[entry_hubs],
                                       starts)
        inside = _within(d_source + weight, d_target)
        members = candidates[inside]
        near[members] = d_source[inside]
        frontier = []
        for x in members.tolist():
            for y, _ in network.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return near


class _Crossing(NamedTuple):
    """The two sides of one changed edge ``(a, b)``.

    ``near_a[x]`` is ``d(x, a)`` for the nodes some shortest path to
    ``b`` leaves through the edge (``inf`` for every other node), and
    ``near_b`` likewise with the endpoints swapped, both measured with
    edge weight ``weight`` in the pre-mutation graph for an
    ``increase`` (weight increase or removal), the post-mutation graph
    otherwise.
    """

    near_a: np.ndarray
    near_b: np.ndarray
    weight: float
    increase: bool

    @classmethod
    def measure(cls, network, labels, a, b, weight, increase):
        return cls(
            _toward(network, labels, a, b, weight),
            _toward(network, labels, b, a, weight),
            weight,
            increase,
        )

    def through(self, owners, hubs) -> np.ndarray:
        """Length of the shortest owner-to-hub path that crosses the
        edge from one side to the other; ``inf`` for pairs that do not
        straddle it."""
        return np.minimum(
            self.near_a[owners] + self.near_b[hubs],
            self.near_b[owners] + self.near_a[hubs],
        ) + self.weight

    def sides(self) -> np.ndarray:
        """The nodes on either side."""
        return np.flatnonzero(
            np.isfinite(self.near_a) | np.isfinite(self.near_b)
        )


def _moved(crossing: _Crossing, owners, hubs, dists, old_dists, in_old,
           in_label):
    """Which entries ``(owners[i], hubs[i], dists[i])`` may flip their
    keep verdict because of ``crossing``.

    By subpath optimality, ``d(v, h)`` can change through a changed edge
    only if some shortest ``v``–``h`` path crosses it — in the
    pre-mutation graph for an increase, the post-mutation one for a
    decrease — and such a path has length ``through``, no longer than
    any known ``v``–``h`` path: the entry's old space distance for an
    increase, its new one for a decrease.  An entry whose distance did
    not change flips only one way: an exact one (``in_label``) becomes
    inexact when a decrease gives a strictly shorter path, an inexact
    one becomes exact when an increase lifts ``d(v, h)`` — from
    ``through`` — to it.  An increase can never make an exact entry
    inexact there, nor a decrease an inexact one exact.  Lengths are
    compared up to the rounding slack (:func:`_within`), so ties and
    near-ties count as moved.
    """
    through = crossing.through(owners, hubs)
    unchanged = in_old & (dists == old_dists)
    reaches = _within(through, dists)
    if crossing.increase:
        moved = _within(through, old_dists) | (
            ~in_old & np.isfinite(through)
        )
        return np.where(unchanged, ~in_label & reaches, moved)
    return np.where(unchanged, in_label & reaches, reaches)


def _straddlers(spaces, crossing: _Crossing) -> np.ndarray:
    """Mask of nodes with a space entry whose keep verdict ``crossing``
    may flip while their (unchanged) space stays the same — a superset
    of :func:`_moved` that needs no label lookup."""
    indptr, hubs, dists = spaces
    out = np.zeros(len(indptr) - 1, dtype=bool)
    nodes = crossing.sides()
    if len(nodes):
        positions, counts = _expand_side(indptr, nodes)
        owners = np.repeat(nodes, counts)
        through = crossing.through(owners, hubs[positions])
        out[owners[_within(through, dists[positions])]] = True
    return out


def _find_keys(keys, indptr, hubs, rows, base):
    """Where the node-prefixed ``keys`` (``owner * base + hub``, sorted,
    owners among ``rows``) sit in the CSR ``indptr`` / ``hubs``:
    ``(found, position)`` per key, reading only the ``rows`` slices."""
    positions, counts = _expand_side(indptr, rows)
    row_keys = (
        np.repeat(rows.astype(np.int64), counts) * base + hubs[positions]
    )
    if not len(row_keys):
        return np.zeros(len(keys), dtype=bool), np.zeros(
            len(keys), dtype=np.int64
        )
    at = np.minimum(np.searchsorted(row_keys, keys), len(row_keys) - 1)
    return row_keys[at] == keys, positions[at]


def _redistill(spaces, old_spaces, labels, affected_nodes, crossings):
    """The labels of ``affected_nodes`` recomputed, as a fresh label CSR.

    Returns ``(labels, joined)``: the label CSR ``labels`` with the
    affected rows replaced (the inputs are only read) and the number of
    entries that needed a join.

    The keep rule — retain a space entry iff its settled distance
    is exact — normally costs one label join per entry.  But for an
    entry ``(u, d)`` of node ``v`` whose true distance
    ``d_G(v, u)`` did not change, exactness is decided by comparing
    against the *old* space and label:

    * ``d`` unchanged from the old space → the old verdict stands
      (exact iff the entry survived the previous pruning);
    * ``d`` increased → it was ``≥ d_G(v, u)`` before and ``d_G``
      did not move, so it is now strictly inexact — drop;
    * ``d`` decreased, or the entry is new → it may have become
      exact; only these need a join.

    ``crossings`` guard those carried verdicts: ``d_G(v, u)`` can
    change only if a shortest ``v``–``u`` path crosses a changed
    edge (:func:`_moved`).  Entries that may have moved always go
    through the join, in the same entry-bounded blocks as the
    build.
    The joins run against the maintained unstalled space CSR
    ``spaces`` with the exact same rule as ``build_labels`` (spaces are
    valid labels carrying exact entries), so the resulting label arrays
    match a full redistillation bit for bit.  Only the affected
    rows of the space, old-space and label CSRs are read, and the
    new label rows are spliced into a copy of the label CSR.
    """
    sp_indptr, sp_hubs, sp_dists = spaces
    label_indptr, label_hubs, label_dists = labels
    base = np.int64(len(sp_indptr))
    positions, counts = _expand_side(sp_indptr, affected_nodes)
    total = len(positions)
    owner = np.repeat(affected_nodes.astype(np.int64), counts)
    entry_hubs = sp_hubs[positions]
    entry_dists = sp_dists[positions]
    # Node-prefixed keys make every lookup one searchsorted over the
    # affected rows, already sorted (CSRs are node-major and
    # hub-sorted within each node).
    keys = owner * base + entry_hubs
    old_sp_indptr, old_sp_hubs, old_sp_dists = old_spaces
    in_old, old_at = _find_keys(
        keys, old_sp_indptr, old_sp_hubs, affected_nodes, base
    )
    old_vals = np.where(in_old, old_sp_dists[old_at], np.nan)
    in_label, _ = _find_keys(
        keys, label_indptr, label_hubs, affected_nodes, base
    )
    unchanged = in_old & (entry_dists == old_vals)
    pair_marked = np.zeros(total, dtype=bool)
    for crossing in crossings:
        pair_marked |= _moved(
            crossing, owner, entry_hubs, entry_dists, old_vals, in_old,
            in_label,
        )
    carried = ~pair_marked & (
        unchanged | (in_old & (entry_dists > old_vals))
    )
    keep = carried & unchanged & in_label
    join_at = np.flatnonzero(~carried)
    keep[join_at] = _exact_mask(
        sp_indptr,
        sp_hubs,
        sp_dists,
        owner[join_at],
        entry_hubs[join_at],
        entry_dists[join_at],
    )
    # Kept entries per affected node (owners are ascending).
    kept_counts = np.diff(
        np.searchsorted(owner[keep], np.r_[affected_nodes, base])
    )
    indptr, (hubs, dists) = splice_rows(
        label_indptr,
        (label_hubs, label_dists),
        affected_nodes,
        kept_counts,
        (entry_hubs[keep], entry_dists[keep]),
    )
    return (indptr, hubs, dists), len(join_at)


def _object_entries(dataset, labels) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-object ``(hubs, dists)`` label slices, in dataset order."""
    indptr, hubs, dists = labels
    return [
        (hubs[indptr[obj]:indptr[obj + 1]],
         dists[indptr[obj]:indptr[obj + 1]])
        for obj in dataset
    ]


class _HubRepair(NamedTuple):
    """One prepared incremental hub write: the read-visible structures
    to swap in, the space CSR that goes with them, and the telemetry
    recorded at commit."""

    labels: tuple[np.ndarray, np.ndarray, np.ndarray]
    #: ``(buckets, partition, object_table)``, or ``None`` when no
    #: object's label changed.
    objects: tuple | None
    spaces: tuple[np.ndarray, np.ndarray, np.ndarray]
    phases: RepairPhases
    damaged: int
    relabeled: int
    join_entries: int
    affected_objects: set[int]


def build_labels(
    hierarchy: ContractionHierarchy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pruned hub labels for every node, as one CSR.

    Returns ``(label_indptr, label_hubs, label_dists)``; node ``v``'s
    label is the slice ``label_indptr[v]:label_indptr[v+1]``, sorted by
    hub id with exact distances.
    """
    return _distil(hierarchy.batch_search_spaces())


class HubLabelIndex:
    """The hub-label backend behind ``DistanceIndex``.

    Queries touch only label arrays: ``distance()`` joins two label
    slices; range/kNN join the query label against the bucket lists
    (built from the *object labels*, so every bucket entry is an exact
    distance).  The price is paid up front — labels for all n nodes
    dominate the index size — which is exactly the trade the
    head-to-head benchmark quantifies against the signature index.

    The surface mirrors the signature index: batch inputs go through
    :func:`~repro.core.index._coerce_batch_nodes`, radii and k through
    the same coercions, and empty-dataset kNN raises the identical
    :class:`~repro.errors.QueryError`.  Ties are resolved by
    ``(distance, dataset rank)`` — the ordering the signature index's
    ``EXACT_DISTANCES`` results pin.

    Because queries read nothing else, a write never edits a structure
    a query reads: ``prepare_updates`` repairs the writer-owned
    hierarchy and space CSR and builds fresh label, bucket, partition
    and object-table objects (:meth:`_prepare_repair`), and the patch's
    ``commit`` swaps the references in (:meth:`_publish`).
    """

    backend_name = "hub"

    #: Committed writes so far; a patch commits only at the generation
    #: it was prepared at (:class:`~repro.core.changeset.Patch`).
    write_generation = 0

    #: ``apply_updates`` falls back to a full rebuild once the
    #: hierarchy repair's damage set exceeds this fraction of the
    #: network's nodes (replaying a mostly-damaged contraction costs as
    #: much as contracting afresh).
    repair_threshold = 0.25

    def __init__(
        self,
        network,
        dataset,
        order: np.ndarray,
        label_indptr: np.ndarray,
        label_hubs: np.ndarray,
        label_dists: np.ndarray,
        partition: CategoryPartition,
        object_table: ObjectDistanceTable,
        buckets: BucketLists,
        *,
        settle_cap: int = WITNESS_SETTLE_CAP,
        hierarchy: ContractionHierarchy | None = None,
        spaces: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.network = network
        self.dataset = dataset
        self.order = order
        self.label_indptr = label_indptr
        self.label_hubs = label_hubs
        self.label_dists = label_dists
        self.partition = partition
        self.object_table = object_table
        self.buckets = buckets
        self.settle_cap = int(settle_cap)
        # The hierarchy the labels were distilled from — kept so
        # incremental repair can replay contractions and recompute only
        # the affected labels.  ``None`` for indexes restored from
        # snapshots that predate the stored hierarchy; the first
        # apply_updates then rebuilds.
        self.hierarchy = hierarchy
        # Unstalled search-space CSR (indptr, hubs, dists) the labels
        # were distilled from, maintained across repairs.  Diffing
        # old-vs-new spaces is what lets updates re-prune only the
        # labels that actually changed.  Indexes restored from a
        # snapshot derive it on their first write.
        self._spaces = spaces
        # Set while a prepared write has begun rewriting the hierarchy
        # and has not been committed: the hierarchy and ``_spaces`` then
        # run ahead of the published labels, and the next prepare
        # rebuilds instead of repairing.
        self._writer_ahead = False
        # The index is array-resident, not page-simulated: the counter
        # exists for surface compatibility (serving telemetry, CLI
        # reporting) and stays at zero.
        self.counter = PageAccessCounter()
        self.buffer_pool = None
        self.tracer: Tracer | None = None
        self.build_trace: Tracer | None = None
        self.use_metrics(metrics if metrics is not None else MetricsRegistry())

    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        dataset,
        *,
        settle_cap: int = WITNESS_SETTLE_CAP,
        metrics=None,
    ) -> "HubLabelIndex":
        """Contract, distill labels, bucket the object labels.

        ``settle_cap`` bounds each witness search; it persists with the
        index and is reused on §5.4 rebuilds.

        Build phases — ``build.contract``, ``build.labels``,
        ``build.buckets``, ``build.object_table`` — land on
        ``index.build_trace`` spans and ``backend.hub.build.*_seconds``
        gauges.  The calling thread's join workspace is released on
        return (:func:`~repro.backends.base.release_join_workspace`).
        """
        trace = Tracer()
        with trace.span("build.hub", nodes=network.num_nodes):
            with trace.span("build.contract") as span:
                hierarchy = ContractionHierarchy.build(
                    network, settle_cap=settle_cap, metrics=metrics
                )
                span.set("shortcuts", hierarchy.num_shortcuts)
            with trace.span("build.labels") as span:
                spaces = hierarchy.batch_search_spaces()
                indptr, hubs, dists = _distil(spaces)
                span.set("entries", len(hubs))
            with trace.span("build.buckets") as span:
                entries = _object_entries(dataset, (indptr, hubs, dists))
                buckets = BucketLists.build(network.num_nodes, entries)
                span.set("entries", buckets.num_entries)
            with trace.span("build.object_table"):
                distances = pairwise_label_distances(entries)
                partition = cls._derive_partition(distances)
                object_table = ObjectDistanceTable(
                    distances, partition, drop_last_category=False
                )
        index = cls(
            network, dataset, hierarchy.order, indptr, hubs, dists,
            partition, object_table, buckets,
            settle_cap=settle_cap, hierarchy=hierarchy, spaces=spaces,
            metrics=metrics,
        )
        index._record_build_trace(trace)
        release_join_workspace()
        return index

    @staticmethod
    def _derive_partition(object_distances: np.ndarray) -> CategoryPartition:
        """A partition scaled to the dataset's distance spread.

        The index needs no categories to answer queries (it holds exact
        distances); the partition exists for surface parity — serving
        clients read its boundaries to form workload radii.  The scale
        comes from the largest finite object-to-object distance.
        """
        finite = object_distances[np.isfinite(object_distances)]
        spread = float(finite.max()) if finite.size else 0.0
        if spread <= 0.0:
            return CategoryPartition([])
        return optimal_partition(spread)

    def _record_build_trace(self, trace: Tracer) -> None:
        self.build_trace = trace
        for span in trace.walk():
            if span.name.startswith("build.") and span.name != "build.hub":
                phase = span.name.removeprefix("build.")
                self.metrics.gauge(
                    f"backend.hub.build.{phase}_seconds"
                ).set(span.seconds)

    # ------------------------------------------------------------------
    # observability (mirrors SignatureIndex)
    # ------------------------------------------------------------------
    @property
    def num_label_entries(self) -> int:
        return len(self.label_hubs)

    @contextmanager
    def trace(self):
        """Record a span tree for everything run inside the block."""
        tracer = Tracer(self.counter)
        previous = self.tracer
        self.tracer = tracer
        try:
            yield tracer
        finally:
            self.tracer = previous

    def use_metrics(self, registry: MetricsRegistry) -> None:
        """Swap the metrics registry and set the label-size gauge on it."""
        self.metrics = registry
        self._set_label_gauge()

    def _set_label_gauge(self) -> None:
        self.metrics.gauge("backend.hub.label_entries").set(
            self.num_label_entries
        )

    @contextmanager
    def _observed(self, kind: str, *, count: int, lead: float, attrs: dict):
        start = time.perf_counter() - lead
        with span_of(self, kind, **attrs) as span:
            yield span
            elapsed = time.perf_counter() - start
        metrics = self.metrics
        metrics.counter(f"{kind}.count").inc(count)
        if count > 0:
            metrics.histogram(f"{kind}.seconds").observe(elapsed / count)

    def _scope(self, kind: str, *, count: int = 1, lead: float = 0.0,
               **attrs):
        """One instrumented region; ``lead`` seconds spent on it before
        the block (a write's prepare) count toward ``kind.seconds``."""
        if self.tracer is None and not self.metrics.enabled:
            return _NULL_SCOPE
        return self._observed(kind, count=count, lead=lead, attrs=attrs)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self.network.num_nodes:
            raise QueryError(
                f"node {node} does not exist "
                f"(network has {self.network.num_nodes} nodes)"
            )
        return node

    def _require_objects(self) -> None:
        # Same message (and QueryError/ValueError typing) as
        # repro.core.queries._require_objects, so HTTP 400 mapping and
        # caller handling are backend-agnostic.
        if len(self.dataset) == 0:
            raise QueryError("kNN query requires a non-empty object dataset")

    # ------------------------------------------------------------------
    # label and bucket query core
    # ------------------------------------------------------------------
    def _label(self, node: int):
        lo = int(self.label_indptr[node])
        hi = int(self.label_indptr[node + 1])
        return self.label_hubs[lo:hi], self.label_dists[lo:hi]

    def _point_distance(self, node: int, target: int) -> float:
        hubs_a, dists_a = self._label(node)
        hubs_b, dists_b = self._label(target)
        return label_join(hubs_a, dists_a, hubs_b, dists_b)

    def _range_row(
        self, fwd_hubs: np.ndarray, fwd_dists: np.ndarray, radius: float
    ) -> np.ndarray:
        """Best candidate sum per object rank, scanning only entries
        whose sum can land within ``radius`` (``inf`` elsewhere).

        For every object whose true distance is within ``radius`` the
        minimizing hub pair sums to that distance and survives the cut,
        so qualifying entries of the returned row are *exact*.
        """
        best = np.full(len(self.dataset), math.inf)
        indptr, ranks, dists = (
            self.buckets.indptr, self.buckets.ranks, self.buckets.dists,
        )
        for i in range(len(fwd_hubs)):
            hub = int(fwd_hubs[i])
            lo, hi = int(indptr[hub]), int(indptr[hub + 1])
            if lo == hi:
                continue
            reach = radius - float(fwd_dists[i])
            if reach < 0:
                continue
            cut = lo + int(
                np.searchsorted(dists[lo:hi], reach, side="right")
            )
            if cut > lo:
                np.minimum.at(
                    best, ranks[lo:cut], fwd_dists[i] + dists[lo:cut]
                )
        return best

    def _knn_pairs(
        self, fwd_hubs: np.ndarray, fwd_dists: np.ndarray, k: int
    ) -> list[tuple[int, float]]:
        """The k nearest ``(rank, distance)`` pairs, ascending.

        Lazy k-way merge over the touched buckets: candidates pop in
        globally ascending ``(sum, rank)`` order, the first pop of each
        rank carries its exact distance, and ties at the k-th distance
        resolve to the lowest dataset rank.
        """
        indptr, ranks, dists = (
            self.buckets.indptr, self.buckets.ranks, self.buckets.dists,
        )
        heap: list[tuple[float, int, int, int]] = []
        ends: list[int] = []
        for i in range(len(fwd_hubs)):
            hub = int(fwd_hubs[i])
            lo, hi = int(indptr[hub]), int(indptr[hub + 1])
            ends.append(hi)
            if lo < hi:
                heappush(
                    heap,
                    (
                        float(fwd_dists[i] + dists[lo]),
                        int(ranks[lo]),
                        i,
                        lo,
                    ),
                )
        seen: set[int] = set()
        out: list[tuple[int, float]] = []
        while heap and len(out) < k:
            total, rank, i, pos = heappop(heap)
            if rank not in seen:
                seen.add(rank)
                out.append((rank, total))
            pos += 1
            if pos < ends[i]:
                heappush(
                    heap,
                    (
                        float(fwd_dists[i] + dists[pos]),
                        int(ranks[pos]),
                        i,
                        pos,
                    ),
                )
        return out

    def _knn_result(self, pairs: list[tuple[int, float]], knn_type: KnnType):
        if knn_type is KnnType.EXACT_DISTANCES:
            return [(self.dataset[rank], d) for rank, d in pairs]
        return [self.dataset[rank] for rank, _ in pairs]

    # ------------------------------------------------------------------
    # queries (§4 surface)
    # ------------------------------------------------------------------
    def distance(self, node: int, object_node: int) -> float:
        """Exact network distance from ``node`` to the object at
        ``object_node``."""
        self.dataset.rank(object_node)  # same not-an-object error surface
        node = self._check_node(node)
        with self._scope("query.distance", node=node):
            return self._point_distance(node, int(object_node))

    def distance_batch(self, nodes, object_nodes) -> list[float]:
        """One distance per aligned ``(nodes[i], object_nodes[i])`` pair.

        The whole batch runs in one vectorized label-join pass — the
        same minimum over the same shared-hub sums the scalar
        sorted-merge computes, so answers are bit-identical.
        Disconnected pairs yield ``math.inf`` — never a per-element
        exception, so one unreachable pair cannot poison a coalesced
        batch.  Validation (unknown node, non-object target) still
        raises for the whole call, before any distance is computed.
        """
        nodes = _coerce_batch_nodes(nodes)
        object_nodes = _coerce_batch_nodes(object_nodes)
        if len(nodes) != len(object_nodes):
            raise QueryError(
                f"distance_batch needs aligned inputs: {len(nodes)} nodes "
                f"vs {len(object_nodes)} objects"
            )
        for object_node in object_nodes:
            self.dataset.rank(object_node)
        nodes = [self._check_node(node) for node in nodes]
        with self._scope("query.distance_batch", count=len(nodes)):
            self.metrics.counter("query.distance_batch.kernel_pairs").inc(
                len(nodes)
            )
            joined = batch_label_join_csr(
                self.label_indptr,
                self.label_hubs,
                self.label_dists,
                np.asarray(nodes, dtype=np.int64),
                np.asarray(object_nodes, dtype=np.int64),
            )
            return [float(value) for value in joined]

    def range_query(
        self, node: int, radius: float, *, with_distances: bool = False
    ):
        """Objects within ``radius`` of ``node``, in dataset order."""
        node = self._check_node(node)
        radius = _coerce_radius(radius)
        with self._scope("query.range", node=node, radius=radius) as span:
            fwd_hubs, fwd_dists = self._label(node)
            best = self._range_row(fwd_hubs, fwd_dists, radius)
            hits = np.nonzero(best <= radius)[0]
            span.set("results", len(hits))
        if with_distances:
            return [
                (self.dataset[int(rank)], float(best[rank])) for rank in hits
            ]
        return [self.dataset[int(rank)] for rank in hits]

    def range_query_batch(
        self, nodes, radius: float, *, with_distances: bool = False
    ):
        """One range query per node, results aligned with ``nodes``."""
        nodes = _coerce_batch_nodes(nodes)
        radius = _coerce_radius(radius)
        with self._scope(
            "query.range_batch", count=len(nodes), radius=radius
        ):
            return [
                self.range_query(node, radius, with_distances=with_distances)
                for node in nodes
            ]

    def knn(self, node: int, k: int, *, knn_type: KnnType = KnnType.SET):
        """The k nearest objects to ``node``; ties break by dataset rank."""
        node = self._check_node(node)
        k = _coerce_k(k)
        self._require_objects()
        with self._scope(
            "query.knn", node=node, k=k, knn_type=knn_type.name
        ) as span:
            fwd_hubs, fwd_dists = self._label(node)
            pairs = self._knn_pairs(fwd_hubs, fwd_dists, k)
            span.set("results", len(pairs))
        return self._knn_result(pairs, knn_type)

    def knn_batch(self, nodes, k: int, *, knn_type: KnnType = KnnType.SET):
        """One kNN query per node, results aligned with ``nodes``."""
        nodes = _coerce_batch_nodes(nodes)
        k = _coerce_k(k)
        self._require_objects()
        with self._scope("query.knn_batch", count=len(nodes), k=k):
            return [self.knn(node, k, knn_type=knn_type) for node in nodes]

    def knn_approximate(self, node: int, k: int) -> list[int]:
        """Degraded-mode kNN.  Backends hold exact distances — there is
        no cheaper category-only representation to fall back to — so the
        "approximation" is the exact answer set."""
        node = self._check_node(node)
        k = _coerce_k(k)
        self._require_objects()
        with self._scope("query.knn_approximate", node=node, k=k):
            fwd_hubs, fwd_dists = self._label(node)
            pairs = self._knn_pairs(fwd_hubs, fwd_dists, k)
        return [self.dataset[rank] for rank, _ in pairs]

    def approximate_range(self, node: int, radius: float) -> list[int]:
        """Degraded-mode range (serving §3.2 fallback): exact here."""
        return self.range_query(node, radius)

    def aggregate_range(
        self, node: int, radius: float, aggregate: str = "count"
    ) -> float:
        """Aggregate over the objects within ``radius`` of ``node``."""
        try:
            reducer = _AGGREGATES[aggregate]
        except KeyError:
            raise QueryError(
                f"unknown aggregate {aggregate!r}; pick one of "
                f"{sorted(_AGGREGATES)}"
            ) from None
        with self._scope(
            "query.aggregate_range", node=node, radius=radius,
            aggregate=aggregate,
        ):
            pairs = self.range_query(node, radius, with_distances=True)
            return reducer([distance for _, distance in pairs])

    def _object_rows(self, entries, ranks):
        """Fresh ``(buckets, partition, object_table)`` after the
        per-object ``(hubs, dists)`` entries of object ``ranks`` changed.

        Only those rows (and columns) of the object distance matrix are
        re-joined; the rest carry over from the current table, which is
        only read.  Each pair goes through the same :func:`label_join`
        the build's :func:`pairwise_label_distances` runs, so the result
        equals a fresh derivation from ``entries``.
        """
        distances = np.array(self.object_table.matrix_view())
        for i in ranks:
            hubs_i, dists_i = entries[i]
            for j, (hubs_j, dists_j) in enumerate(entries):
                if j != i:
                    distances[i, j] = distances[j, i] = label_join(
                        hubs_i, dists_i, hubs_j, dists_j
                    )
        partition = self._derive_partition(distances)
        return (
            BucketLists.build(self.network.num_nodes, entries),
            partition,
            ObjectDistanceTable(distances, partition, drop_last_category=False),
        )

    # ------------------------------------------------------------------
    # updates (§5.4): prepare privately, commit by reference swap
    # ------------------------------------------------------------------
    def apply_updates(self, changeset):
        """Apply a coalesced batch of edge deltas under one maintenance
        pass: ``prepare_updates(changeset).commit()``.

        Returns an :class:`~repro.core.changeset.ApplyResult`.
        """
        return self.prepare_updates(changeset).commit()

    def prepare_updates(self, changeset):
        """Validate ``changeset`` and prepare its write, unpublished.

        The whole batch is validated before anything is computed
        (structural problems raise :class:`~repro.errors.QueryError`,
        unknown nodes and edges :class:`~repro.errors.DatasetError`),
        then prepared by :meth:`_prepare_repair`, which reads the live
        index and writes only state no query reads — so queries may run
        on another thread meanwhile — and records no metric and no span.
        The calling thread's join workspace is released afterwards.
        Returns a :class:`~repro.core.changeset.Patch` whose ``commit``
        publishes the write.
        """
        from repro.core.changeset import Patch, as_changeset

        start = time.perf_counter()
        changeset = as_changeset(changeset)
        changeset.validate(self.network)
        try:
            prepared = self._prepare_repair(changeset)
        finally:
            release_join_workspace()
        return Patch(
            self, changeset, prepared,
            prepare_seconds=time.perf_counter() - start,
        )

    def _prepare_repair(self, changeset):
        """Incremental §5.4 maintenance into private state: repair the
        hierarchy, then redistill only the labels the changeset
        actually invalidated.

        Runs against writer-owned state only — the hierarchy and the
        space CSR, which no query reads — and a copy-on-write view of
        the network carrying the changeset; every read-visible structure
        (labels, buckets, partition, object table) comes out as a fresh
        object.  :meth:`_publish` swaps them in and applies the same
        deltas to the live network.  Nothing here touches a metric, a
        span or the index's tracer, so the prepare may run on a thread
        beside the queries.

        A node ``x``'s pruned label is a pure function of two things —
        its upward search space and the true network distances from
        ``x`` (the keep rule retains exactly the space entries whose
        settled distance is exact).  So ``x`` needs redistillation iff
        (a) its search space changed, or (b) the true distance to the
        hub of one of its space entries changed, which can flip that
        entry's keep decision even when the space is intact.

        (a) comes out of :meth:`~repro.backends.ch.ContractionHierarchy.patch_search_spaces`:
        starting from the nodes whose upward rows the repair changed,
        it recomputes spaces in descending rank and stops wherever a
        recomputed space equals the stored one.

        (b) is detected per changed edge ``(a, b)`` by the classic
        subpath-optimality criterion: a weight increase / removal
        rerouted some old shortest path from ``x`` iff
        ``d(x,a) + w = d(x,b)`` (or symmetrically) held in the
        *pre-mutation* graph; a decrease / insertion attracts a new
        shortest path iff the same equality holds *post-mutation*.
        Each side of that test is a set grown from one endpoint
        (:func:`_toward`), and a distance ``d(x, h)`` can change only if
        ``x`` and ``h`` lie on opposite sides of some changed edge.

        Affected nodes are re-pruned against the updated space CSR with
        the same keep rule the build distils with, so the resulting
        label arrays stay bit-identical to ``build_labels`` on the
        repaired hierarchy.  Phase wall times travel in the prepared
        write and land on ``backend.hub.update.<phase>_seconds``
        histograms at commit, once per repaired write: ``replay``,
        ``spaces``, ``masks``, ``redistill`` and ``objects``.

        Prepares a full rebuild instead when no repair recording exists
        (indexes loaded from older snapshots), when an earlier prepare
        was never committed (or raised) after it began rewriting the
        hierarchy, or when hierarchy damage exceeds
        ``repair_threshold`` × nodes.
        """
        from repro.core.changeset import apply_changeset_to_network

        network = self.network.copy_on_write()
        hierarchy = self.hierarchy
        if (
            self._writer_ahead
            or hierarchy is None
            or hierarchy.repair_state is None
        ):
            apply_changeset_to_network(network, changeset)
            return self._prepare_rebuild(network)
        n = network.num_nodes
        if self._spaces is None:
            self._spaces = hierarchy.batch_search_spaces()
        limit = max(1, int(self.repair_threshold * n))
        phases = RepairPhases(
            ("replay", "spaces", "masks", "redistill", "objects")
        )
        # Classify deltas: increases are checked against the
        # pre-mutation graph, decreases against the post-mutation one.
        increases: list[tuple[int, int, float]] = []
        decreases: list[tuple[int, int, float]] = []
        for delta in changeset:
            if delta.op == "add":
                decreases.append((delta.u, delta.v, delta.weight))
            elif delta.op == "remove":
                increases.append(
                    (delta.u, delta.v, network.edge_weight(delta.u, delta.v))
                )
            else:
                old = network.edge_weight(delta.u, delta.v)
                if delta.weight < old:
                    decreases.append((delta.u, delta.v, delta.weight))
                elif delta.weight > old:
                    increases.append((delta.u, delta.v, old))
        # Each changed edge splits into two sides (_Crossing): the
        # nodes some shortest path to ``b`` leaves through the edge via
        # ``a``, and symmetrically.  A pairwise distance d(v, u) can
        # change only when a shortest path between them crosses a
        # changed edge, so v and u sit on *opposite* sides of it; nodes
        # on the same side keep every mutual distance bit-identical.
        # Pre-mutation distances come from the current labels.
        labels = (self.label_indptr, self.label_hubs, self.label_dists)
        with phases("masks"):
            crossings = [
                _Crossing.measure(network, labels, a, b, w, True)
                for a, b, w in increases
            ]
        apply_changeset_to_network(network, changeset)
        # From here on the hierarchy runs ahead of the published labels
        # until this write commits.
        self._writer_ahead = True
        with phases("replay"):
            outcome = hierarchy.repair(
                network, changeset.edges(), damage_limit=limit
            )
        if outcome is None:
            return self._prepare_rebuild(network)
        old_spaces = self._spaces
        with phases("spaces"):
            spaces, space_changed = hierarchy.patch_search_spaces(
                old_spaces, outcome.changed_up
            )
        # Post-mutation distances: the repaired spaces are a valid
        # labeling of the updated graph.
        with phases("masks"):
            crossings += [
                _Crossing.measure(network, spaces, a, b, w, False)
                for a, b, w in decreases
            ]
            affected = np.zeros(n, dtype=bool)
            affected[space_changed] = True
            for crossing in crossings:
                affected |= _straddlers(spaces, crossing)
            affected_nodes = np.flatnonzero(affected)
        new_labels, join_entries = labels, 0
        with phases("redistill"):
            if len(affected_nodes):
                new_labels, join_entries = _redistill(
                    spaces, old_spaces, labels, affected_nodes, crossings
                )
        objects = None
        with phases("objects"):
            object_rows = np.asarray(self.dataset, dtype=np.int64)
            moved = np.flatnonzero(
                changed_rows(
                    labels,
                    new_labels,
                    rows=object_rows[affected[object_rows]],
                )[object_rows]
            )
            if len(moved):
                objects = self._object_rows(
                    _object_entries(self.dataset, new_labels), moved
                )
        return _HubRepair(
            labels=new_labels,
            objects=objects,
            spaces=spaces,
            phases=phases,
            damaged=outcome.damaged,
            relabeled=len(affected_nodes),
            join_entries=join_entries,
            affected_objects={
                rank
                for rank, object_node in enumerate(self.dataset)
                if affected[int(object_node)]
            },
        )

    def _prepare_rebuild(self, network) -> "HubLabelIndex":
        """A fresh index over ``network`` with a registry of its own;
        :meth:`_publish` adopts its structures and folds the registry
        into the index's."""
        return type(self).build(
            network, self.dataset, settle_cap=self.settle_cap,
            metrics=MetricsRegistry(),
        )

    def _commit_patch(self, patch):
        """Publish a prepared write (called by ``Patch.commit``)."""
        from repro.core.changeset import ApplyResult

        changeset = patch.changeset
        result = ApplyResult(applied=len(changeset))
        with self._scope(
            "update.apply", lead=patch.prepare_seconds, deltas=len(changeset)
        ):
            self._publish(changeset, patch.prepared, result)
        self.metrics.counter("backend.hub.update.applied").inc(
            len(changeset)
        )
        return result

    def _publish(self, changeset, prepared, result) -> None:
        """Swap a prepared write's structures in and apply its deltas to
        the live network — reference assignments plus O(changed edges)
        of adjacency edits — then record its telemetry."""
        from repro.core.changeset import apply_changeset_to_network

        apply_changeset_to_network(self.network, changeset)
        if isinstance(prepared, HubLabelIndex):
            self.order = prepared.order
            self.label_indptr = prepared.label_indptr
            self.label_hubs = prepared.label_hubs
            self.label_dists = prepared.label_dists
            self.buckets = prepared.buckets
            self.partition = prepared.partition
            self.object_table = prepared.object_table
            self.build_trace = prepared.build_trace
            self.hierarchy = prepared.hierarchy
            self._spaces = prepared._spaces
            self._writer_ahead = False
            self.metrics.merge(prepared.metrics)
            self._set_label_gauge()
            self._count_rebuild(result)
            return
        self.label_indptr, self.label_hubs, self.label_dists = prepared.labels
        if prepared.objects is not None:
            self.buckets, self.partition, self.object_table = prepared.objects
        self._spaces = prepared.spaces
        self._writer_ahead = False
        metrics = self.metrics
        if prepared.relabeled:
            metrics.counter("backend.hub.update.join_entries").inc(
                prepared.join_entries
            )
            self._set_label_gauge()
        prepared.phases.observe(metrics, "hub")
        metrics.counter("backend.hub.update.repaired").inc()
        metrics.counter("backend.hub.update.damaged_nodes").inc(
            prepared.damaged
        )
        metrics.counter("backend.hub.update.relabeled_nodes").inc(
            prepared.relabeled
        )
        result.bump("repaired")
        result.bump("damaged_nodes", prepared.damaged)
        result.bump("relabeled_nodes", prepared.relabeled)
        result.report.merge(
            UpdateReport(
                affected_objects=prepared.affected_objects,
                changed_components=0,
                touched_nodes=prepared.relabeled,
                recompressed_nodes=0,
            )
        )

    def _count_rebuild(self, result) -> None:
        self.metrics.counter("backend.rebuilds").inc()
        self.metrics.counter("backend.hub.update.rebuilt").inc()
        result.bump("rebuilt")
        # A rebuild touches everything; report it honestly.
        result.report.merge(
            UpdateReport(
                affected_objects=set(range(len(self.dataset))),
                changed_components=0,
                touched_nodes=self.network.num_nodes,
                recompressed_nodes=0,
            )
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Surface parity with the signature index (pages stay zero)."""
        self.counter.reset()

    def refresh_storage(self) -> None:
        """No-op: the index holds plain arrays, nothing paged to re-pack.

        Exists so the serving tier's maintenance endpoint works
        unchanged against any backend.
        """

    def stats(self) -> dict:
        """Structural summary as plain data (CLI ``info``/``stats``)."""
        return {
            "type": self.backend_name,
            "backend": self.backend_name,
            "nodes": self.network.num_nodes,
            "edges": self.network.num_edges,
            "objects": len(self.dataset),
            "categories": self.partition.num_categories,
            "bucket_entries": self.buckets.num_entries,
            "index_bytes": (
                self.order.nbytes
                + self.label_indptr.nbytes
                + self.label_hubs.nbytes
                + self.label_dists.nbytes
                + self.buckets.nbytes()
            ),
            "object_table_bytes": self.object_table.size_bytes(),
            "label_entries": self.num_label_entries,
            "mean_label_size": (
                self.num_label_entries / self.network.num_nodes
                if self.network.num_nodes
                else 0.0
            ),
            "settle_cap": self.settle_cap,
        }

    def verify(self, *, sample_nodes: int = 16, seed: int = 0) -> None:
        """Self-check sampled distances against fresh Dijkstra runs."""
        from repro.network.dijkstra import shortest_path_tree

        rng = np.random.default_rng(seed)
        nodes = rng.choice(
            self.network.num_nodes,
            size=min(sample_nodes, self.network.num_nodes),
            replace=False,
        )
        for object_node in self.dataset:
            tree = shortest_path_tree(self.network, object_node)
            for node in nodes:
                node = int(node)
                truth = tree.distance[node]
                got = self._point_distance(node, int(object_node))
                if got != truth:
                    raise IndexError_(
                        f"node {node} object {object_node}: "
                        f"{self.backend_name} distance {got} != "
                        f"Dijkstra {truth}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(nodes={self.network.num_nodes}, "
            f"objects={len(self.dataset)}, "
            f"bucket_entries={self.buckets.num_entries})"
        )
