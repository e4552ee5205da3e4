"""Hub labels distilled from CH search spaces (2-hop distance labels).

The third index family: where the CH backend runs an upward search per
query, this one runs *all* the searches at preprocessing time and stores
the result.  Every node ``v`` gets a label ``L(v)`` — hub ids and exact
distances, sorted by hub id in one contiguous CSR — such that for any
``s, t`` the minimum of ``d_s(h) + d_t(h)`` over hubs shared by
``L(s)`` and ``L(t)`` is the exact network distance (the 2-hop cover
property, cf. "Hop Doubling Label Indexing" in PAPERS.md; the
construction here is the CH-based one of Abraham et al. as engineered by
Zhu et al.).

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
order-of-magnitude qps gap over both other backends
(``BENCH_backends.json``, ``BENCH_scale.json``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.backends.base import (
    BucketLists,
    HierarchyIndexBase,
    RepairPhases,
    _expand_side,
    batch_label_join_csr,
    label_join,
    pairwise_label_distances,
)
from repro.backends.ch import (
    WITNESS_SETTLE_CAP,
    ContractionHierarchy,
    changed_rows,
    splice_rows,
)
from repro.core.signature import ObjectDistanceTable
from repro.core.update import UpdateReport
from repro.network.graph import RoadNetwork
from repro.obs.tracing import Tracer

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


def build_labels(
    hierarchy: ContractionHierarchy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pruned hub labels for every node, as one CSR.

    Returns ``(label_indptr, label_hubs, label_dists)``; node ``v``'s
    label is the slice ``label_indptr[v]:label_indptr[v+1]``, sorted by
    hub id with exact distances.
    """
    return _distil(hierarchy.batch_search_spaces())


class HubLabelIndex(HierarchyIndexBase):
    """The hub-label backend behind ``DistanceIndex``.

    Queries touch only label arrays: ``distance()`` joins two label
    slices; range/kNN join the query label against the shared bucket
    lists (built from the *object labels*, so every bucket entry is an
    exact distance).  The price is paid up front — labels for all n
    nodes dominate the index size — which is exactly the trade the
    head-to-head benchmark quantifies against CH and the signature
    index.
    """

    backend_name = "hub"

    #: ``apply_updates`` falls back to a full rebuild once the
    #: hierarchy repair's damage set exceeds this fraction of the
    #: network's nodes (replaying a mostly-damaged contraction costs as
    #: much as contracting afresh).
    repair_threshold = 0.25

    #: Separate fallback for the *redistillation* phase: rebuild only
    #: when more than this fraction of labels needs recomputation.
    #: Defaults to 1.0 — never — because redistillation on a repaired
    #: hierarchy is vectorized CSR work that measures several times
    #: cheaper than a full rebuild even when every label is affected
    #: (the rebuild's contraction dominates); the knob exists for
    #: deployments that would rather re-derive the contraction order
    #: than serve from an aging one.
    relabel_threshold = 1.0

    def __init__(
        self,
        network,
        dataset,
        order: np.ndarray,
        label_indptr: np.ndarray,
        label_hubs: np.ndarray,
        label_dists: np.ndarray,
        partition,
        object_table,
        buckets,
        *,
        settle_cap: int = WITNESS_SETTLE_CAP,
        hierarchy: ContractionHierarchy | None = None,
        spaces: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        metrics=None,
    ) -> None:
        self.order = order
        self.label_indptr = label_indptr
        self.label_hubs = label_hubs
        self.label_dists = label_dists
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
        super().__init__(
            network, dataset, partition, object_table, buckets,
            metrics=metrics,
        )

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
        gauges.
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
                entries = [
                    (
                        hubs[indptr[obj]:indptr[obj + 1]],
                        dists[indptr[obj]:indptr[obj + 1]],
                    )
                    for obj in dataset
                ]
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
        return index

    def _record_build_trace(self, trace: Tracer) -> None:
        self.build_trace = trace
        for span in trace.walk():
            if span.name.startswith("build.") and span.name != "build.hub":
                phase = span.name.removeprefix("build.")
                self.metrics.gauge(
                    f"backend.hub.build.{phase}_seconds"
                ).set(span.seconds)

    # ------------------------------------------------------------------
    # HierarchyIndexBase hooks
    # ------------------------------------------------------------------
    @property
    def num_label_entries(self) -> int:
        return len(self.label_hubs)

    def _bind_backend_metrics(self, registry) -> None:
        registry.gauge("backend.hub.label_entries").set(
            self.num_label_entries
        )

    def _forward_entries(self, node: int):
        lo = int(self.label_indptr[node])
        hi = int(self.label_indptr[node + 1])
        return self.label_hubs[lo:hi], self.label_dists[lo:hi]

    def _point_distance(self, node: int, target: int) -> float:
        hubs_a, dists_a = self._forward_entries(node)
        hubs_b, dists_b = self._forward_entries(target)
        return label_join(hubs_a, dists_a, hubs_b, dists_b)

    def _distance_batch_values(
        self, nodes: list[int], object_nodes: list[int]
    ) -> list[float]:
        # The whole batch in one vectorized label-join pass — the same
        # minimum over the same shared-hub sums the scalar sorted-merge
        # computes, so answers are bit-identical.
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

    def _rebuild(self) -> None:
        rebuilt = type(self).build(
            self.network,
            self.dataset,
            settle_cap=self.settle_cap,
            metrics=self.metrics,
        )
        self.order = rebuilt.order
        self.label_indptr = rebuilt.label_indptr
        self.label_hubs = rebuilt.label_hubs
        self.label_dists = rebuilt.label_dists
        self.buckets = rebuilt.buckets
        self.partition = rebuilt.partition
        self.object_table = rebuilt.object_table
        self.build_trace = rebuilt.build_trace
        self.hierarchy = rebuilt.hierarchy
        self._spaces = rebuilt._spaces
        self._bind_backend_metrics(self.metrics)

    def _apply_changeset(self, changeset, result) -> None:
        """Incremental §5.4 maintenance: repair the hierarchy, then
        redistill only the labels the changeset actually invalidated.

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
        repaired hierarchy.  Phase wall times land on
        ``backend.hub.update.<phase>_seconds`` histograms, once per
        repaired write: ``replay``, ``spaces``, ``masks``,
        ``redistill`` and ``objects``.

        Falls back to a full rebuild when no repair recording exists
        (indexes loaded from older snapshots), hierarchy damage exceeds
        ``repair_threshold`` × nodes, or the affected-label count
        exceeds ``relabel_threshold`` × nodes.
        """
        from repro.core.changeset import apply_changeset_to_network

        hierarchy = self.hierarchy
        n = self.network.num_nodes
        if hierarchy is None or hierarchy.repair_state is None:
            apply_changeset_to_network(self.network, changeset)
            self._note_rebuilt(result)
            return
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
                    (delta.u, delta.v,
                     self.network.edge_weight(delta.u, delta.v))
                )
            else:
                old = self.network.edge_weight(delta.u, delta.v)
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
                _Crossing.measure(self.network, labels, a, b, w, True)
                for a, b, w in increases
            ]
        apply_changeset_to_network(self.network, changeset)
        with phases("replay"):
            outcome = hierarchy.repair(
                self.network, changeset.edges(), damage_limit=limit
            )
        if outcome is None:
            self._note_rebuilt(result)
            return
        old_spaces = self._spaces
        with phases("spaces"):
            spaces, space_changed = hierarchy.patch_search_spaces(
                old_spaces, outcome.changed_up
            )
        # Post-mutation distances: the repaired spaces are a valid
        # labeling of the updated graph.
        with phases("masks"):
            crossings += [
                _Crossing.measure(self.network, spaces, a, b, w, False)
                for a, b, w in decreases
            ]
            affected = np.zeros(n, dtype=bool)
            affected[space_changed] = True
            for crossing in crossings:
                affected |= _straddlers(spaces, crossing)
            affected_nodes = np.flatnonzero(affected)
        if len(affected_nodes) > self.relabel_threshold * n:
            self._note_rebuilt(result)
            return
        self._spaces = spaces
        old_labels = labels
        with phases("redistill"):
            if len(affected_nodes):
                self._redistill(affected_nodes, old_spaces, crossings)
        with phases("objects"):
            object_rows = np.asarray(self.dataset, dtype=np.int64)
            moved = np.flatnonzero(
                changed_rows(
                    old_labels,
                    (self.label_indptr, self.label_hubs, self.label_dists),
                    rows=object_rows[affected[object_rows]],
                )[object_rows]
            )
            if len(moved):
                self._refresh_object_rows(self._object_entries(), moved)
        phases.observe(self.metrics, "hub")
        self.metrics.counter("backend.hub.update.repaired").inc()
        self.metrics.counter("backend.hub.update.damaged_nodes").inc(
            outcome.damaged
        )
        self.metrics.counter("backend.hub.update.relabeled_nodes").inc(
            len(affected_nodes)
        )
        result.bump("repaired")
        result.bump("damaged_nodes", outcome.damaged)
        result.bump("relabeled_nodes", len(affected_nodes))
        affected_ranks = {
            rank
            for rank, object_node in enumerate(self.dataset)
            if affected[int(object_node)]
        }
        result.report.merge(
            UpdateReport(
                affected_objects=affected_ranks,
                changed_components=0,
                touched_nodes=int(len(affected_nodes)),
                recompressed_nodes=0,
            )
        )

    def _redistill(
        self,
        affected_nodes: np.ndarray,
        old_spaces: tuple[np.ndarray, np.ndarray, np.ndarray],
        crossings: list[_Crossing],
    ) -> None:
        """Recompute the labels of ``affected_nodes`` in place.

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
        The joins run against the maintained unstalled space CSR with
        the exact same rule as ``build_labels`` (spaces are valid
        labels carrying exact entries), so the resulting label arrays
        match a full redistillation bit for bit.  Only the affected
        rows of the space, old-space and label CSRs are read, and the
        new label rows are spliced into the label CSR.
        """
        sp_indptr, sp_hubs, sp_dists = self._spaces
        base = np.int64(self.network.num_nodes + 1)
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
            keys, self.label_indptr, self.label_hubs, affected_nodes, base
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
        self.metrics.counter("backend.hub.update.join_entries").inc(
            len(join_at)
        )
        # Kept entries per affected node (owners are ascending).
        kept_counts = np.diff(
            np.searchsorted(owner[keep], np.r_[affected_nodes, base])
        )
        self.label_indptr, (self.label_hubs, self.label_dists) = splice_rows(
            self.label_indptr,
            (self.label_hubs, self.label_dists),
            affected_nodes,
            kept_counts,
            (entry_hubs[keep], entry_dists[keep]),
        )
        self._bind_backend_metrics(self.metrics)

    def _object_entries(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-object ``(hubs, dists)`` label slices, in dataset order."""
        indptr, hubs, dists = (
            self.label_indptr, self.label_hubs, self.label_dists,
        )
        return [
            (hubs[indptr[obj]:indptr[obj + 1]],
             dists[indptr[obj]:indptr[obj + 1]])
            for obj in self.dataset
        ]

    def _structure_bytes(self) -> int:
        return (
            self.order.nbytes
            + self.label_indptr.nbytes
            + self.label_hubs.nbytes
            + self.label_dists.nbytes
            + self.buckets.nbytes()
        )

    def stats(self) -> dict:
        report = super().stats()
        report["label_entries"] = self.num_label_entries
        report["mean_label_size"] = (
            self.num_label_entries / self.network.num_nodes
            if self.network.num_nodes
            else 0.0
        )
        report["settle_cap"] = self.settle_cap
        return report
