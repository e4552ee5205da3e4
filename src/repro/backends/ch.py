"""Contraction hierarchies: the preprocessing and the upward search.

The second index family (see ``docs/BACKENDS.md``): instead of
precomputing per-object distance *signatures*, preprocess the network
itself.  Nodes are contracted one by one in importance order; each
contraction inserts *shortcut* edges between the removed node's
neighbors whenever the two-hop path through it was a shortest path
(checked by a bounded *witness search*).  The surviving structure — the
original edges plus the shortcuts, each directed from its lower-ranked
to its higher-ranked endpoint — is the *upward graph*, stored here as a
CSR over contiguous numpy arrays so it can be persisted and mmapped
verbatim.

Two query primitives come out of it:

* :meth:`ContractionHierarchy.distance` — a bidirectional Dijkstra that
  only relaxes upward edges from both endpoints; the exact distance is
  the best meeting point (Geisberger et al.'s CH query, engineered as in
  Zhu et al., "Shortest Path and Distance Queries on Road Networks:
  Towards Bridging Theory and Practice");
* :meth:`ContractionHierarchy.search_space` — one upward sweep with
  stall-on-demand, the building block for hub labels and for the
  object-bucket lists both backends use for range/kNN
  (:mod:`repro.backends.base`).

Node ordering is *edge difference over independent-set rounds*: the
priority of a node is (shortcuts its contraction would insert) − (edges
it removes) + (already-contracted former neighbors, which spreads the
contraction evenly).  Each round selects every live node that is the
strict minimum of ``priority`` (ties broken by node id) over its closed
two-hop neighborhood — a set whose members provably have pairwise
disjoint closed neighborhoods, so their witness searches read the same
frozen round-start graph and their contractions commute.  Each round
evaluates its witness searches against that frozen graph, then
contracts the selected set in ascending priority order, so the shortcut
set, node order and every output array are deterministic.

Everything is exact: witness searches are *bounded* (settle cap) which
may only insert redundant shortcuts, never miss a needed one, and
stall-on-demand only suppresses settled entries whose upward distance is
provably not a shortest path.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from heapq import heapify, heappop, heappush

import numpy as np

from repro.backends.base import (
    BucketLists,
    HierarchyIndexBase,
    RepairPhases,
    _expand_side,
    pairwise_label_distances,
)
from repro.core.signature import ObjectDistanceTable
from repro.core.update import UpdateReport
from repro.network.graph import RoadNetwork
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.tracing import Tracer

__all__ = ["CHIndex", "ContractionHierarchy"]

#: Witness searches give up after settling this many nodes.  A missed
#: witness only costs one redundant shortcut (correctness is unaffected),
#: so the cap trades preprocessing time against upward-graph size.  It is
#: a build parameter — ``build(settle_cap=...)``, surfaced through
#: ``repro build --settle-cap`` — persisted with the index so rebuilds
#: keep the choice.
WITNESS_SETTLE_CAP = 60

_INT64_MAX = np.iinfo(np.int64).max


def _witness_distances(
    adj: list[dict[int, float]],
    contracted: np.ndarray,
    source: int,
    excluded: int,
    targets: set[int],
    bound: float,
    settle_cap: int = WITNESS_SETTLE_CAP,
    visited: set[int] | None = None,
) -> dict[int, float]:
    """Bounded Dijkstra over the *uncontracted* graph minus ``excluded``.

    Returns the exact distances found to ``targets`` (missing targets
    were not proven reachable within ``bound`` under the settle cap —
    the caller must then insert a shortcut).  When ``visited`` is given,
    every node the search assigned a tentative distance is added to it —
    the witness-dependency set incremental repair records (the search's
    outcome depends only on edges among those nodes).
    """
    inf = math.inf
    dist: dict[int, float] = {source: 0.0}
    tentative = dist.get
    heap: list[tuple[float, int]] = [(0.0, source)]
    push, pop = heappush, heappop
    found: dict[int, float] = {}
    remaining = set(targets)
    settled = 0
    while heap and remaining and settled < settle_cap:
        d, u = pop(heap)
        if d > tentative(u, inf):
            continue  # stale heap entry
        if d > bound:
            break
        settled += 1
        if u in remaining:
            found[u] = d
            remaining.discard(u)
        for w, weight in adj[u].items():
            if w == excluded or contracted[w]:
                continue
            nd = d + weight
            if nd < tentative(w, inf):
                dist[w] = nd
                push(heap, (nd, w))
    if visited is not None:
        visited.update(dist)
    return found


def _shortcuts_for(
    adj: list[dict[int, float]],
    contracted: np.ndarray,
    v: int,
    settle_cap: int,
):
    """``(shortcuts, live_degree, visited)`` for contracting ``v``.

    ``shortcuts`` are the pairs contraction of ``v`` needs (u < w, both
    live); ``live_degree`` comes free with the witness work.
    ``visited`` is ``v``'s witness-dependency set, sorted: ``v`` itself,
    its live neighbors, and every node any witness search touched — the
    complete read set of this contraction decision.  An edge none of
    those nodes is an endpoint of cannot change the decision (witness
    paths lie entirely inside the touched set, and weight *decreases*
    elsewhere only make kept shortcuts redundant, never incorrect).
    """
    neighbors = [
        (u, weight) for u, weight in adj[v].items() if not contracted[u]
    ]
    visited = {v}
    visited.update(u for u, _ in neighbors)
    needed: list[tuple[int, int, float]] = []
    for i, (u, wu) in enumerate(neighbors):
        targets = {w for w, _ in neighbors[i + 1:]}
        if not targets:
            continue
        bound = wu + max(ww for w, ww in neighbors[i + 1:])
        witness = _witness_distances(
            adj, contracted, u, v, targets, bound, settle_cap,
            visited=visited,
        )
        for w, ww in neighbors[i + 1:]:
            through = wu + ww
            if witness.get(w, math.inf) > through:
                needed.append((u, w, through))
    return needed, len(neighbors), sorted(visited)


def changed_rows(old_csr, new_csr, rows=None) -> np.ndarray:
    """Boolean mask of the CSR rows that differ between two versions.

    ``old_csr`` / ``new_csr`` are ``(indptr, column, column, ...)``
    tuples with the same number of rows and aligned columns.  A row
    differs if its length or any element of any column does.  With
    ``rows`` (row ids), only those rows are compared; the rest report
    unchanged.  All rows go through one segmented compare, so the cost
    is a few numpy passes over their entries, not a Python loop.
    """
    old_indptr, *old_columns = old_csr
    new_indptr, *new_columns = new_csr
    n = len(new_indptr) - 1
    rows = np.arange(n) if rows is None else np.asarray(rows, np.int64)
    changed = np.zeros(n, dtype=bool)
    counts = new_indptr[rows + 1] - new_indptr[rows]
    resized = counts != old_indptr[rows + 1] - old_indptr[rows]
    changed[rows[resized]] = True
    same, counts = rows[~resized], counts[~resized]
    total = int(counts.sum())
    if total:
        offsets = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        old_pos = np.repeat(old_indptr[same], counts) + offsets
        new_pos = np.repeat(new_indptr[same], counts) + offsets
        differs = np.zeros(total, dtype=bool)
        for old_column, new_column in zip(old_columns, new_columns):
            differs |= old_column[old_pos] != new_column[new_pos]
        changed[np.repeat(same, counts)[differs]] = True
    return changed


def splice_rows(indptr: np.ndarray, columns, rows, counts, values):
    """A CSR with ``rows`` replaced, as fresh arrays.

    ``columns`` are the CSR's aligned value arrays; ``rows`` are sorted
    row ids, ``counts[i]`` is the new length of ``rows[i]`` and
    ``values`` holds, per column, the new rows' contents back to back.
    The new rows land with one scatter per column; the unchanged rows
    move as one block copy per gap between replaced rows.  So the cost
    is one ``memcpy`` pass over the arrays plus numpy work per replaced
    row — the form every maintained CSR (upward graph, search spaces,
    labels) takes a per-write patch in.  Returns ``(indptr, columns)``;
    the inputs are left untouched.
    """
    rows = np.asarray(rows, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    lengths = np.diff(indptr)
    lengths[rows] = counts
    out_indptr = _csr_indptr(lengths)
    out = [np.empty(int(out_indptr[-1]), dtype=col.dtype) for col in columns]
    if len(rows):
        offsets = np.cumsum(counts) - counts
        dst = np.repeat(out_indptr[rows] - offsets, counts) + np.arange(
            int(counts.sum())
        )
        for value, target in zip(values, out):
            target[dst] = value
    block_lo = np.r_[0, rows + 1]
    block_hi = np.r_[rows, len(lengths)]
    gaps = np.flatnonzero(indptr[block_hi] > indptr[block_lo])
    for lo, hi, dst in zip(
        indptr[block_lo[gaps]].tolist(),
        indptr[block_hi[gaps]].tolist(),
        out_indptr[block_lo[gaps]].tolist(),
    ):
        for col, target in zip(columns, out):
            target[dst:dst + hi - lo] = col[lo:hi]
    return out_indptr, out


def _csr_indptr(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


class _SpaceRows:
    """Search-space rows under recomputation: a base CSR plus the rows
    recomputed so far, kept in an append-only store.

    :meth:`merge` runs the space DP for a batch of nodes whose upward
    neighbors' rows are final, in one vectorized pass: every upward
    neighbor's current row shifted by the edge weight, plus the node
    itself at distance 0, sorted by ``(node, hub)`` and reduced to the
    minimum per hub.  The minimum does not depend on the order of the
    merged entries, so each row equals the per-node DP bit for bit.
    """

    __slots__ = ("base", "n", "at", "length", "hubs", "dists", "used")

    def __init__(self, spaces, n: int) -> None:
        self.base = spaces
        self.n = n
        #: Store offset of each recomputed row; -1 while a node's row
        #: is still the base one.
        self.at = np.full(n, -1, dtype=np.int64)
        self.length = np.zeros(n, dtype=np.int64)
        self.hubs = np.empty(1024, dtype=np.int32)
        self.dists = np.empty(1024, dtype=np.float64)
        self.used = 0

    def gather(self, nodes: np.ndarray):
        """The current rows of ``nodes`` back to back:
        ``(hubs, dists, counts)``."""
        base_indptr, base_hubs, base_dists = self.base
        at = self.at[nodes]
        fresh = at >= 0
        counts = np.where(
            fresh,
            self.length[nodes],
            base_indptr[nodes + 1] - base_indptr[nodes],
        )
        total = int(counts.sum())
        offsets = np.cumsum(counts) - counts
        source = np.repeat(
            np.where(fresh, at, base_indptr[nodes]) - offsets, counts
        ) + np.arange(total)
        if not fresh.any():
            return base_hubs[source], base_dists[source], counts
        stored = np.repeat(fresh, counts)
        based = ~stored
        hubs = np.empty(total, dtype=np.int32)
        dists = np.empty(total, dtype=np.float64)
        hubs[stored] = self.hubs[source[stored]]
        dists[stored] = self.dists[source[stored]]
        hubs[based] = base_hubs[source[based]]
        dists[based] = base_dists[source[based]]
        return hubs, dists, counts

    def merge(self, nodes, edge_owner, edge_targets, edge_weights):
        """Recompute the rows of ``nodes`` (``edge_*``: their upward
        edges, ``edge_owner`` indexing ``nodes``); store the rows that
        changed and return those nodes."""
        k = len(nodes)
        up_hubs, up_dists, up_counts = self.gather(edge_targets)
        owner = np.concatenate(
            [np.repeat(edge_owner, up_counts), np.arange(k)]
        )
        hubs = np.concatenate([up_hubs, nodes.astype(np.int32)])
        dists = np.concatenate(
            [up_dists + np.repeat(edge_weights, up_counts), np.zeros(k)]
        )
        key = owner * self.n + hubs
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.empty(len(key), dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        new_hubs = hubs[order][starts]
        new_dists = np.minimum.reduceat(dists[order], starts)
        new_counts = np.bincount(owner[order][starts], minlength=k)
        old_hubs, old_dists, old_counts = self.gather(nodes)
        changed = changed_rows(
            (_csr_indptr(old_counts), old_hubs, old_dists),
            (_csr_indptr(new_counts), new_hubs, new_dists),
        )
        if changed.any():
            kept = np.repeat(changed, new_counts)
            stored_hubs = new_hubs[kept]
            stored_dists = new_dists[kept]
            end = self.used + len(stored_hubs)
            if end > len(self.hubs):
                size = max(end, 2 * len(self.hubs))
                self.hubs = np.resize(self.hubs, size)
                self.dists = np.resize(self.dists, size)
            self.hubs[self.used:end] = stored_hubs
            self.dists[self.used:end] = stored_dists
            lengths = new_counts[changed]
            self.at[nodes[changed]] = self.used + np.cumsum(lengths) - lengths
            self.length[nodes[changed]] = lengths
            self.used = end
        return nodes[changed]

    def result(self):
        """``(spaces, changed nodes ascending)``: the base CSR with
        every recomputed row that differs from it spliced in."""
        rows = np.flatnonzero(self.at >= 0)
        if not len(rows):
            return self.base, rows
        hubs, dists, counts = self.gather(rows)
        indptr, columns = splice_rows(
            self.base[0], self.base[1:], rows, counts, (hubs, dists)
        )
        spaces = (indptr, *columns)
        moved = changed_rows(self.base, spaces, rows=rows)
        return spaces, rows[moved[rows]]


class _KeyedCSR:
    """A sorted ``row * n + column`` key array with its row pointer.

    The in-memory form of the two inverted indexes repair maintains —
    the witness-dependency index and the reverse upward graph.  A patch
    removes and inserts individual keys (``np.delete`` / ``np.insert``
    at ``searchsorted`` positions) and shifts the row pointer by the
    per-row count change, so it costs a few numpy passes, never a
    rebuild from the forward lists.
    """

    __slots__ = ("n", "indptr", "keys")

    def __init__(self, n: int, rows: np.ndarray, columns: np.ndarray):
        self.n = n
        self.keys = np.sort(
            rows.astype(np.int64) * n + columns.astype(np.int64)
        )
        self.indptr = np.searchsorted(
            self.keys, np.arange(n + 1, dtype=np.int64) * n
        )

    def row(self, x: int) -> list[int]:
        """Columns of row ``x``, ascending."""
        lo, hi = self.indptr[x], self.indptr[x + 1]
        return (self.keys[lo:hi] - x * self.n).tolist()

    def patch(self, removed: list[int], added: list[int]) -> None:
        """Drop the ``removed`` keys (all present) and insert ``added``."""
        n = self.n
        delta = np.zeros(n, dtype=np.int64)
        if removed:
            gone = np.sort(np.asarray(removed, dtype=np.int64))
            self.keys = np.delete(self.keys, np.searchsorted(self.keys, gone))
            np.subtract.at(delta, gone // n, 1)
        if added:
            new = np.sort(np.asarray(added, dtype=np.int64))
            self.keys = np.insert(
                self.keys, np.searchsorted(self.keys, new), new
            )
            np.add.at(delta, new // n, 1)
        self.indptr[1:] += np.cumsum(delta)


class RepairState:
    """What incremental repair needs to replay a contraction.

    Recorded by every :meth:`ContractionHierarchy.build`: for every
    node, the shortcut pairs its contraction decided on (with weights)
    and its witness-dependency set (see :func:`_shortcuts_for`).  The
    inverted *dependency index* — for node ``x``, which contractions
    read ``x`` — is derived once, on the first repair, and then patched
    in place whenever a repair re-records a node whose dependency set
    changed.  :meth:`to_arrays` / :meth:`from_arrays` flatten the
    recording into CSR arrays for the on-disk snapshots.
    """

    __slots__ = ("pairs", "visited", "_deps")

    #: Array names of the flattened recording, in :meth:`to_arrays`
    #: order (the snapshot layouts store them under these names).
    ARRAYS = (
        "repair_pair_indptr",
        "repair_pair_ends",
        "repair_pair_weights",
        "repair_visited_indptr",
        "repair_visited",
    )

    def __init__(
        self,
        pairs: list[list[tuple[int, int, float]]],
        visited: list[list[int]],
    ) -> None:
        self.pairs = pairs
        self.visited = visited
        self._deps: _KeyedCSR | None = None

    def nbytes(self) -> int:
        """Approximate footprint (ints assumed 8 bytes, pairs 24)."""
        return 8 * sum(len(s) for s in self.visited) + 24 * sum(
            len(p) for p in self.pairs
        )

    def _dependency_index(self) -> _KeyedCSR:
        if self._deps is None:
            n = len(self.visited)
            counts = [len(seen) for seen in self.visited]
            read = np.fromiter(
                (x for seen in self.visited for x in seen),
                dtype=np.int64,
                count=sum(counts),
            )
            contractor = np.repeat(np.arange(n, dtype=np.int64), counts)
            self._deps = _KeyedCSR(n, read, contractor)
        return self._deps

    def readers(self, x: int) -> list[int]:
        """The contractions whose recorded decision read node ``x``."""
        return self._dependency_index().row(x)

    def rerecord(self, recorded: dict) -> None:
        """Commit re-run contractions: ``{v: (pairs, visited)}``.

        Only dependency entries whose membership changed are patched.
        """
        n = len(self.visited)
        removed: list[int] = []
        added: list[int] = []
        for v, (pairs, visited) in recorded.items():
            old = self.visited[v]
            if visited != old:
                before, after = set(old), set(visited)
                removed.extend(x * n + v for x in before - after)
                added.extend(x * n + v for x in after - before)
            self.pairs[v] = pairs
            self.visited[v] = visited
        if self._deps is not None and (removed or added):
            self._deps.patch(removed, added)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The recording as CSR arrays keyed by :attr:`ARRAYS`."""
        pair_counts = [len(p) for p in self.pairs]
        pair_indptr = np.zeros(len(self.pairs) + 1, dtype=np.int64)
        np.cumsum(pair_counts, out=pair_indptr[1:])
        flat = [pair for pairs in self.pairs for pair in pairs]
        ends = np.array(
            [(a, b) for a, b, _ in flat], dtype=np.int32
        ).reshape(-1, 2)
        weights = np.array([w for _, _, w in flat], dtype=np.float64)
        visited_indptr = np.zeros(len(self.visited) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in self.visited], out=visited_indptr[1:])
        visited = np.fromiter(
            (x for seen in self.visited for x in seen),
            dtype=np.int32,
            count=int(visited_indptr[-1]),
        )
        return dict(
            zip(
                self.ARRAYS,
                (pair_indptr, ends, weights, visited_indptr, visited),
            )
        )

    @classmethod
    def from_arrays(cls, arrays, n: int) -> "RepairState":
        """Inverse of :meth:`to_arrays` for an ``n``-node hierarchy.

        Raises ``ValueError`` when the arrays do not describe ``n``
        nodes consistently.
        """
        pair_indptr, ends, weights, visited_indptr, visited = (
            np.asarray(arrays[name]) for name in cls.ARRAYS
        )
        if (
            len(pair_indptr) != n + 1
            or len(visited_indptr) != n + 1
            or ends.shape != (int(pair_indptr[-1]), 2)
            or len(weights) != int(pair_indptr[-1])
            or len(visited) != int(visited_indptr[-1])
        ):
            raise ValueError(
                f"repair recording arrays do not describe {n} nodes"
            )
        flat = list(zip(ends[:, 0].tolist(), ends[:, 1].tolist(),
                        weights.tolist()))
        seen = visited.tolist()
        bounds = pair_indptr.tolist()
        vbounds = visited_indptr.tolist()
        return cls(
            [flat[bounds[v]:bounds[v + 1]] for v in range(n)],
            [seen[vbounds[v]:vbounds[v + 1]] for v in range(n)],
        )


class _Overlay:
    """The contraction overlay, kept across repairs and patched per write.

    The overlay is the base graph plus every recorded shortcut.  Each
    overlay edge keeps its shortcut *contributions* — ``(rank, seq,
    weight)``: the contractor's rank, the pair's index in that
    contractor's recording, the shortcut weight — sorted by rank.  So
    the overlay a contraction at rank ``r`` saw is recoverable exactly
    (:meth:`view`): an edge exists there if it is a base edge or has a
    contribution below ``r``, weighs the minimum of its base weight and
    those contributions, and sits at the adjacency position the
    build's insertion order gave it — base edges in network order, then
    shortcut-only edges by their first contribution.  That is the
    overlay a full rank-order replay would rebuild from scratch, so a
    damaged node can be re-contracted without replaying anything below
    it.

    A node's view only changes where ``r`` crosses a neighbor's rank or
    a contribution's, so each node caches its last view with the rank
    interval it holds for; witness searches of nearby damaged nodes
    mostly read the same interval.
    """

    __slots__ = ("rank", "base", "shortcuts", "num_shortcuts", "_entries",
                 "_views", "none_contracted")

    def __init__(self, network: RoadNetwork, order: np.ndarray, pairs):
        n = network.num_nodes
        self.rank: list[int] = order.tolist()
        self.base = [dict(network.neighbors(x)) for x in range(n)]
        self.shortcuts: list[dict[int, list]] = [{} for _ in range(n)]
        self.num_shortcuts = 0
        self._entries: list[tuple | None] = [None] * n
        self._views: list[tuple | None] = [None] * n
        #: Views hold live nodes only; witness searches get this as
        #: their (never set) contracted mask.
        self.none_contracted = bytes(n)
        for v in np.argsort(order, kind="stable").tolist():
            self.add(v, pairs[v])

    def _invalidate(self, x: int) -> None:
        self._entries[x] = self._views[x] = None

    def add(self, v: int, pairs) -> None:
        """Insert contractor ``v``'s shortcut pairs."""
        rank = self.rank[v]
        shortcuts, base = self.shortcuts, self.base
        for seq, (a, b, weight) in enumerate(pairs):
            contributions = shortcuts[a].get(b)
            if contributions is None:
                contributions = shortcuts[a][b] = shortcuts[b][a] = []
                if b not in base[a]:
                    self.num_shortcuts += 1
            insort(contributions, (rank, seq, weight))
            self._invalidate(a)
            self._invalidate(b)

    def remove(self, v: int, pairs) -> None:
        """Withdraw contractor ``v``'s (previously added) pairs."""
        rank = self.rank[v]
        shortcuts, base = self.shortcuts, self.base
        for seq, (a, b, weight) in enumerate(pairs):
            contributions = shortcuts[a][b]
            contributions.remove((rank, seq, weight))
            if not contributions:
                del shortcuts[a][b], shortcuts[b][a]
                if b not in base[a]:
                    self.num_shortcuts -= 1
            self._invalidate(a)
            self._invalidate(b)

    def sync_base(self, network: RoadNetwork, edges) -> None:
        """Re-read the base adjacency of every endpoint of ``edges``."""
        shortcuts = self.shortcuts
        for a, b in edges:
            if b in shortcuts[a] and (b in self.base[a]) != network.has_edge(
                a, b
            ):
                # The edge flips between shortcut-only and base.
                self.num_shortcuts += 1 if b in self.base[a] else -1
        for x in {x for edge in edges for x in edge}:
            self.base[x] = dict(network.neighbors(x))
            self._invalidate(x)

    def _ordered(self, x: int) -> tuple[list, list[int]]:
        """``(entries, events)`` of node ``x``.

        ``entries`` is ``(neighbor, base weight or inf, contributions)``
        for every overlay edge of ``x`` in insertion order; ``events``
        the sorted ranks at which :meth:`view` can change — each
        neighbor's rank (it stops being live) and one past each
        contribution's (it starts to count).
        """
        cached = self._entries[x]
        if cached is None:
            shortcuts = self.shortcuts[x]
            base = self.base[x]
            rank = self.rank
            entries = [
                (w, weight, shortcuts.get(w, ()))
                for w, weight in base.items()
            ]
            entries.extend(
                (w, math.inf, contributions)
                for _, w, contributions in sorted(
                    (contributions[0], w, contributions)
                    for w, contributions in shortcuts.items()
                    if w not in base
                )
            )
            events = [rank[w] for w, _, _ in entries]
            events.extend(
                contributor + 1
                for contributions in shortcuts.values()
                for contributor, _, _ in contributions
            )
            events.sort()
            cached = self._entries[x] = (entries, events)
        return cached

    def view(self, x: int, r: int) -> dict[int, float]:
        """``x``'s live neighbors at rank ``r`` (rank above ``r``) with
        the weights the contraction at rank ``r`` saw, in the replay's
        adjacency order.  The returned dict is shared: read only."""
        cached = self._views[x]
        if cached is not None and cached[0] <= r < cached[1]:
            return cached[2]
        entries, events = self._ordered(x)
        at = bisect_right(events, r)
        rank = self.rank
        live: dict[int, float] = {}
        for w, weight, contributions in entries:
            if rank[w] <= r:
                continue
            for contributor, _, shortcut in contributions:
                if contributor >= r:
                    break
                if shortcut < weight:
                    weight = shortcut
            if weight != math.inf:
                live[w] = weight
        self._views[x] = (
            events[at - 1] if at else -1,
            events[at] if at < len(events) else len(rank) + 1,
            live,
        )
        return live


class _RankView(dict):
    """Adjacency of the overlay as the contraction at one rank saw it,
    materialized per node on first access (what witness searches read)."""

    __slots__ = ("overlay", "r")

    def __init__(self, overlay: _Overlay, r: int) -> None:
        super().__init__()
        self.overlay = overlay
        self.r = r

    def __missing__(self, x: int) -> dict[int, float]:
        live = self[x] = self.overlay.view(x, self.r)
        return live


class RepairOutcome:
    """What one :meth:`ContractionHierarchy.repair` pass changed."""

    __slots__ = ("changed_up", "damaged", "repaired", "removed_up")

    def __init__(self, changed_up, damaged, repaired, removed_up) -> None:
        #: Nodes whose upward edge list (targets or weights) changed,
        #: ascending.
        self.changed_up = changed_up
        #: Size of the final damage set (re-contracted nodes).
        self.damaged = damaged
        #: Damaged nodes whose witness searches actually re-ran.
        self.repaired = repaired
        #: Upward edges ``(v, target)`` the repair dropped — with the
        #: maintained reverse CSR, the union of old and new upward
        #: graphs that :meth:`ContractionHierarchy.downward_closure`
        #: walks.
        self.removed_up = removed_up


class ContractionHierarchy:
    """The preprocessed hierarchy: contraction order plus upward CSR.

    Attributes
    ----------
    order:
        ``order[node]`` is the node's contraction rank (0 = contracted
        first = least important).
    up_indptr / up_targets / up_weights:
        CSR of the upward graph: node ``v``'s upward edges are
        ``up_targets[up_indptr[v]:up_indptr[v+1]]`` (all higher-ranked)
        with weights ``up_weights[...]``.  Because the network is
        undirected the same CSR serves both search directions.
    num_shortcuts:
        Shortcut edges inserted during contraction (the preprocessing
        cost the §6-style bench reports).
    """

    def __init__(
        self,
        order: np.ndarray,
        up_indptr: np.ndarray,
        up_targets: np.ndarray,
        up_weights: np.ndarray,
        num_shortcuts: int,
        *,
        metrics=None,
    ) -> None:
        self.order = order
        self.up_indptr = up_indptr
        self.up_targets = up_targets
        self.up_weights = up_weights
        self.num_shortcuts = int(num_shortcuts)
        # Build provenance; overwritten by build(), defaults for
        # hierarchies restored from disk.
        self.settle_cap = WITNESS_SETTLE_CAP
        self.rounds: int | None = None
        #: Witness-dependency recording, set by :meth:`build` and by
        #: snapshots that stored it; ``None`` for hierarchies restored
        #: from older snapshots — :meth:`repair` then declines and the
        #: caller must rebuild.
        self.repair_state: RepairState | None = None
        # Repair's maintained state, derived on the first repair (or
        # first use) and patched by every later one: the contraction
        # overlay and the reverse upward CSR.
        self._overlay: _Overlay | None = None
        self._reverse: _KeyedCSR | None = None
        self.bind_metrics(metrics)

    def bind_metrics(self, metrics) -> None:
        """Bind (or rebind) the ``backend.ch.settled`` counter."""
        if metrics is None:
            metrics = NULL_REGISTRY
        self._metric_settled = metrics.counter("backend.ch.settled")

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        *,
        settle_cap: int = WITNESS_SETTLE_CAP,
        metrics=None,
    ) -> "ContractionHierarchy":
        """Contract every node of ``network`` and assemble the upward CSR.

        Round-based edge-difference ordering: every round (1) refreshes
        priority + shortcut candidates for nodes whose neighborhood
        changed, (2) selects the independent set of strict two-hop
        priority minima with one vectorized pass over the live edge
        list, (3) recomputes witnesses for any selected node whose
        candidates predate this round (an old witness path may route
        through since-contracted nodes), and (4) contracts the whole set
        in ascending priority order.  Selected nodes have pairwise
        disjoint closed neighborhoods, so steps (1) and (3) read a
        frozen snapshot.

        Witness searches are bounded by ``settle_cap``.  Parallel edges
        (possible when a shortcut doubles an original edge) keep the
        minimum weight, so the upward graph stays simple.

        Each node's final shortcut decision and witness-dependency set
        are retained on ``hierarchy.repair_state``, so :meth:`repair` can
        replay the contraction incrementally from the first write on.
        Recording costs memory proportional to the total witness work;
        its bookkeeping time is within the build's run-to-run noise.
        """
        registry = metrics if metrics is not None else NULL_REGISTRY
        round_sizes = registry.histogram("backend.ch.contract.round_size")

        n = network.num_nodes
        adj: list[dict[int, float]] = [dict() for _ in range(n)]
        for node in range(n):
            for neighbor, weight in network.neighbors(node):
                current = adj[node].get(neighbor)
                if current is None or weight < current:
                    adj[node][neighbor] = weight
        # Live undirected edges, one row per edge; compacted every round
        # so the vectorized independent-set pass scans only live pairs.
        edge_u = np.array(
            [v for v in range(n) for u in adj[v] if v < u], dtype=np.int64
        )
        edge_v = np.array(
            [u for v in range(n) for u in adj[v] if v < u], dtype=np.int64
        )
        contracted = np.zeros(n, dtype=bool)
        deleted_neighbors = np.zeros(n, dtype=np.int64)
        order = np.zeros(n, dtype=np.int32)
        up_edges: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        num_shortcuts = 0
        priorities = np.zeros(n, dtype=np.int64)
        cached: list[list[tuple[int, int, float]] | None] = [None] * n
        visited_sets: list[list[int] | None] = [None] * n
        stamp = np.full(n, -1, dtype=np.int64)
        dirty = np.ones(n, dtype=bool)
        node_ids = np.arange(n, dtype=np.int64)

        rank = 0
        rounds = 0
        while rank < n:
            rounds += 1
            # Phase A: refresh candidates for nodes whose neighborhood
            # changed since their last evaluation.
            for v in np.flatnonzero(dirty & ~contracted).tolist():
                shortcuts, live_degree, visited = _shortcuts_for(
                    adj, contracted, v, settle_cap
                )
                cached[v] = shortcuts
                visited_sets[v] = visited
                stamp[v] = rounds
                priorities[v] = (
                    len(shortcuts) - live_degree + int(deleted_neighbors[v])
                )
            # Vectorized independent-set selection.  key encodes
            # (priority, node id) in one int64; a node is selected iff
            # its key is the minimum over its *closed two-hop*
            # neighborhood, which two minimum-scatter passes over the
            # live edge list compute exactly.  Keys are unique, so two
            # selected nodes can never be adjacent or share a neighbor:
            # their closed neighborhoods are disjoint and their
            # contractions commute.
            key = priorities * np.int64(n + 1) + node_ids
            key[contracted] = _INT64_MAX
            n2 = np.full(n, _INT64_MAX, dtype=np.int64)
            if edge_u.size:
                n1 = np.full(n, _INT64_MAX, dtype=np.int64)
                np.minimum.at(n1, edge_u, key[edge_v])
                np.minimum.at(n1, edge_v, key[edge_u])
                best1 = np.minimum(key, n1)
                np.minimum.at(n2, edge_u, best1[edge_v])
                np.minimum.at(n2, edge_v, best1[edge_u])
            sel = np.flatnonzero(~contracted & (key <= n2))
            sel = sel[np.argsort(key[sel], kind="stable")]
            round_sizes.observe(len(sel))
            # Phase B: selected nodes carrying candidates from an
            # earlier round must recompute them against this round's
            # graph — an old witness may have routed through a node
            # contracted since, whose replacement path uses v itself.
            for v in sel[stamp[sel] != rounds].tolist():
                shortcuts, _, visited = _shortcuts_for(
                    adj, contracted, v, settle_cap
                )
                cached[v] = shortcuts
                visited_sets[v] = visited
                stamp[v] = rounds
            # Merge: contract in ascending key order.  Disjoint closed
            # neighborhoods mean nothing below reads state another
            # selected node wrote, so the result is order-independent —
            # the fixed order only pins the rank numbering.
            dirty[:] = False
            new_u: list[int] = []
            new_v: list[int] = []
            for v in sel:
                v = int(v)
                live = [
                    (u, weight)
                    for u, weight in adj[v].items()
                    if not contracted[u]
                ]
                up_edges[v] = live
                for u, _ in live:
                    deleted_neighbors[u] += 1
                    dirty[u] = True
                for u, w, weight in cached[v]:
                    existing = adj[u].get(w)
                    if existing is None or weight < existing:
                        adj[u][w] = weight
                        adj[w][u] = weight
                        if existing is None:
                            num_shortcuts += 1
                            new_u.append(u)
                            new_v.append(w)
                contracted[v] = True
                order[v] = rank
                rank += 1
            if edge_u.size:
                keep = ~(contracted[edge_u] | contracted[edge_v])
                edge_u = edge_u[keep]
                edge_v = edge_v[keep]
            if new_u:
                edge_u = np.concatenate(
                    [edge_u, np.asarray(new_u, dtype=np.int64)]
                )
                edge_v = np.concatenate(
                    [edge_v, np.asarray(new_v, dtype=np.int64)]
                )

        indptr = np.zeros(n + 1, dtype=np.int64)
        for v in range(n):
            indptr[v + 1] = indptr[v] + len(up_edges[v])
        targets = np.zeros(int(indptr[-1]), dtype=np.int32)
        weights = np.zeros(int(indptr[-1]), dtype=np.float64)
        for v in range(n):
            start = int(indptr[v])
            for offset, (u, weight) in enumerate(up_edges[v]):
                targets[start + offset] = u
                weights[start + offset] = weight
        hierarchy = cls(
            order, indptr, targets, weights, num_shortcuts, metrics=metrics
        )
        hierarchy.settle_cap = int(settle_cap)
        hierarchy.rounds = rounds
        hierarchy.repair_state = RepairState(cached, visited_sets)
        registry.gauge("backend.ch.contract.rounds").set(rounds)
        return hierarchy

    # ------------------------------------------------------------------
    # incremental repair (§5.4 for hierarchies)
    # ------------------------------------------------------------------
    def repair(
        self,
        network: RoadNetwork,
        changed_edges,
        *,
        damage_limit: int | None = None,
    ) -> RepairOutcome | None:
        """Re-contract the damaged nodes against the *updated* network.

        ``network`` must already carry the mutations; ``changed_edges``
        are the canonical endpoint pairs of every added / removed /
        re-weighted edge.  The node order stays fixed; the result is
        the upward CSR a rank-order replay of every contraction over a
        fresh overlay of the updated graph would produce, but only the
        damaged contractions run:

        * a node is *damaged* if any witness search it ran (or its own
          neighborhood) touched a changed edge's endpoint — the inverted
          dependency index answers that in one slice per endpoint.
          Damaged nodes re-run their witness searches, in rank order,
          against the maintained overlay as it stood at their rank
          (:class:`_Overlay`); any difference between the new shortcut
          decision and the recorded one propagates damage to the
          higher-ranked contractions that read either endpoint;
        * an *undamaged* node's local overlay is bit-identical to what
          the original build saw (every incident edge change damages it
          directly, and every incoming-shortcut change is a recorded
          pair diff of a damaged lower node), so its recorded shortcut
          pairs — already in the overlay — stand.

        Only upward rows with an endpoint of a changed base edge or of
        a changed shortcut pair are rewritten; the dependency index and
        the reverse upward CSR are patched to match.  Replayed
        decisions keep the CH invariant (witness paths lie in the
        recorded dependency sets; unseen weight decreases only make
        kept shortcuts redundant), so queries stay exact.  Returns a
        :class:`RepairOutcome`, or ``None`` — without committing
        anything to the recording or the upward graph — when no
        recording exists, the node count changed, or the damage set
        exceeds ``damage_limit`` (the caller should then rebuild from
        scratch, recording).
        """
        state = self.repair_state
        n = self.num_nodes
        if state is None or network.num_nodes != n:
            return None
        if damage_limit is None:
            damage_limit = n
        edges = {(min(a, b), max(a, b)) for a, b in changed_edges}
        damaged: set[int] = set()
        for edge in edges:
            for x in edge:
                damaged.update(state.readers(x))
        if len(damaged) > damage_limit:
            self._overlay = None
            return None
        if self._overlay is None:
            self._overlay = _Overlay(network, self.order, state.pairs)
        else:
            self._overlay.sync_base(network, edges)
        overlay = self._overlay
        rank = overlay.rank
        settle_cap = self.settle_cap
        touched = {x for edge in edges for x in edge}
        recorded: dict[int, tuple[list, list[int]]] = {}
        heap = [(rank[v], v) for v in damaged]
        heapify(heap)
        while heap:
            r, v = heappop(heap)
            pairs, _, visited = _shortcuts_for(
                _RankView(overlay, r), overlay.none_contracted, v,
                settle_cap,
            )
            old = state.pairs[v]
            if pairs != old:
                old_map = {(a, b): w for a, b, w in old}
                cur_map = {(a, b): w for a, b, w in pairs}
                for pair in old_map.keys() | cur_map.keys():
                    if old_map.get(pair) == cur_map.get(pair):
                        continue
                    for x in pair:
                        for reader in state.readers(x):
                            if rank[reader] > r and reader not in damaged:
                                damaged.add(reader)
                                heappush(heap, (rank[reader], reader))
                if len(damaged) > damage_limit:
                    # The overlay already carries re-run decisions the
                    # recording will not: drop it (the next repair
                    # rebuilds it from the recording).
                    self._overlay = None
                    return None
                overlay.remove(v, old)
                overlay.add(v, pairs)
                for a, b, _ in old:
                    touched.update((a, b))
                for a, b, _ in pairs:
                    touched.update((a, b))
            recorded[v] = (pairs, visited)
        state.rerecord(recorded)
        changed_up, removed_up = self._rewrite_up_rows(sorted(touched))
        self.num_shortcuts = overlay.num_shortcuts
        return RepairOutcome(
            changed_up=changed_up,
            damaged=len(damaged),
            repaired=len(recorded),
            removed_up=removed_up,
        )

    def _rewrite_up_rows(self, rows: list[int]):
        """Re-derive the upward rows of ``rows`` from the overlay and
        splice the ones that differ into the CSR (and the reverse CSR).

        Returns ``(changed rows, removed upward edges)``.
        """
        overlay = self._overlay
        rank = overlay.rank
        indptr, targets, weights = (
            self.up_indptr, self.up_targets, self.up_weights,
        )
        n = self.num_nodes
        changed: list[int] = []
        counts: list[int] = []
        row_targets: list[int] = []
        row_weights: list[float] = []
        removed: list[tuple[int, int]] = []
        gone: list[int] = []
        added: list[int] = []
        for x in rows:
            live = overlay.view(x, rank[x])
            lo, hi = int(indptr[x]), int(indptr[x + 1])
            old_targets = targets[lo:hi].tolist()
            new_targets = list(live)
            new_weights = list(live.values())
            if (
                new_targets == old_targets
                and new_weights == weights[lo:hi].tolist()
            ):
                continue
            changed.append(x)
            counts.append(len(new_targets))
            row_targets += new_targets
            row_weights += new_weights
            before, after = set(old_targets), set(new_targets)
            removed.extend((x, t) for t in before - after)
            gone.extend(t * n + x for t in before - after)
            added.extend(t * n + x for t in after - before)
        if changed:
            self.up_indptr, (self.up_targets, self.up_weights) = splice_rows(
                indptr, (targets, weights), changed, counts,
                (row_targets, row_weights),
            )
            if self._reverse is not None:
                self._reverse.patch(gone, added)
        return np.asarray(changed, dtype=np.int64), removed

    def reverse_csr(self) -> _KeyedCSR:
        """The reverse upward graph: row ``x`` lists the nodes whose
        upward edges point at ``x``.  Derived on the first repair, then
        kept in step with every later one; building and querying never
        derive it."""
        if self._reverse is None:
            n = self.num_nodes
            owners = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.up_indptr)
            )
            self._reverse = _KeyedCSR(n, self.up_targets, owners)
        return self._reverse

    def downward_closure(self, seeds, removed_up=()) -> np.ndarray:
        """Nodes whose stalled upward search space may differ after repair.

        A node's upward sweep reads only the upward edges of nodes it
        reaches, so its search space can change only if it reaches — in
        the old upward graph or the new one — a node whose upward edges
        changed.  Returns a boolean mask of that reverse-reachable
        closure over the union of both graphs (seeds included): the
        maintained reverse CSR covers the new graph, ``removed_up``
        (:attr:`RepairOutcome.removed_up`) the edges only the old one
        had.
        """
        reverse = self.reverse_csr()
        dropped: dict[int, list[int]] = {}
        for v, target in removed_up:
            dropped.setdefault(target, []).append(v)
        affected = np.zeros(self.num_nodes, dtype=bool)
        stack = [int(s) for s in seeds]
        seen = set(stack)
        while stack:
            x = stack.pop()
            for v in reverse.row(x) + dropped.get(x, []):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        affected[list(seen)] = True
        return affected

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.order)

    @property
    def num_upward_edges(self) -> int:
        return len(self.up_targets)

    def nbytes(self) -> int:
        """In-memory footprint of the hierarchy arrays."""
        return (
            self.order.nbytes
            + self.up_indptr.nbytes
            + self.up_targets.nbytes
            + self.up_weights.nbytes
        )

    def _upward_dijkstra(self, source: int, *, stall: bool) -> dict[int, float]:
        """All settled upward distances from ``source`` (possibly > exact).

        With ``stall`` (stall-on-demand), a popped node whose tentative
        distance is beaten by a settled neighbor plus the connecting
        edge is suppressed: that entry provably is not a shortest path,
        and — because an exact entry can never be beaten by a real path
        — every exact-distance entry survives.  The settled map is
        therefore still a valid hub label for ``source``.
        """
        indptr, targets, weights = (
            self.up_indptr, self.up_targets, self.up_weights,
        )
        dist: dict[int, float] = {source: 0.0}
        settled: dict[int, float] = {}
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heappop(heap)
            if u in settled or d > dist.get(u, math.inf):
                continue
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            if stall:
                stalled = False
                for pos in range(lo, hi):
                    w = int(targets[pos])
                    if settled.get(w, math.inf) + weights[pos] < d:
                        stalled = True
                        break
                if stalled:
                    continue
            settled[u] = d
            for pos in range(lo, hi):
                w = int(targets[pos])
                nd = d + weights[pos]
                if nd < dist.get(w, math.inf):
                    dist[w] = nd
                    heappush(heap, (nd, w))
        self._metric_settled.inc(len(settled))
        return settled

    def search_space(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """The stalled upward search space, sorted by node id.

        Returns ``(nodes, distances)`` — a valid (unpruned) hub label
        for ``source``: for every target ``t`` the minimum of
        ``d_s(m) + d_t(m)`` over shared entries ``m`` is the exact
        network distance.
        """
        settled = self._upward_dijkstra(source, stall=True)
        nodes = np.fromiter(settled.keys(), dtype=np.int64, count=len(settled))
        dists = np.fromiter(
            settled.values(), dtype=np.float64, count=len(settled)
        )
        ordered = np.argsort(nodes, kind="stable")
        return nodes[ordered].astype(np.int32), dists[ordered]

    def batch_search_spaces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """*Unstalled* upward search spaces for every node, as one CSR.

        Every upward path is strictly rank-ascending, so node ``v``'s
        full settled set is ``{v: 0}`` merged with each upward
        neighbor's set shifted by the edge weight — a dynamic program
        in descending rank order that matches the non-stalling upward
        Dijkstra without running ``n`` heap searches.  The DP adds a
        path's weights from the hub end, the Dijkstra from the source
        end; the sums agree bit for bit whenever they are exact, as
        they are for the integer and dyadic weights the generators and
        the traffic simulator emit.

        Unstalled spaces are supersets of the stalled ones, but only by
        entries whose settled distance exceeds the true network
        distance (stalling suppresses an entry only when a real
        witness path beats it), so exactness pruning produces the
        *same* labels from either — which is why the incremental hub
        maintenance can diff and re-prune these cheaply
        (:meth:`patch_search_spaces`; this runs the same DP from an
        empty CSR with every node a candidate, so nothing propagates
        and the reverse upward CSR is not needed).
        """
        n = self.num_nodes
        empty = (
            np.zeros(n + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.float64),
        )
        spaces, _ = self._space_dp(empty, range(n), None)
        return spaces

    def patch_search_spaces(self, spaces, seeds):
        """Bring a :meth:`batch_search_spaces` CSR up to date after a
        repair whose changed upward rows are ``seeds``.

        A node's space is a function of its upward row and its upward
        neighbors' spaces, so it can differ only if its row changed (a
        seed) or an upward neighbor's space actually changed.
        Candidates leave a heap in descending rank, in *batches*: the
        longest run whose upward neighbors are all settled, which the
        DP then merges in one vectorized pass (:class:`_SpaceRows`).  A
        recomputed space equal to the one its readers saw stops the
        propagation there; a changed one makes its reverse-upward
        neighbors candidates again, even if they already ran (a
        candidate found late can sit above a node an earlier batch
        computed).  Every other node carries over from ``spaces``.
        Returns ``(new spaces, changed nodes ascending)``.
        """
        return self._space_dp(spaces, seeds, self.reverse_csr())

    def _space_dp(self, spaces, seeds, reverse: _KeyedCSR | None):
        """The DP behind :meth:`patch_search_spaces`; with ``reverse``
        ``None`` (every node a seed) changed spaces propagate nowhere."""
        indptr, targets, weights = (
            self.up_indptr, self.up_targets, self.up_weights,
        )
        rank = self._ranks()
        rows = _SpaceRows(spaces, self.num_nodes)
        heap = [(-rank[v], v) for v in {int(s) for s in seeds}]
        pending = {v for _, v in heap}
        heapify(heap)
        while heap:
            batch: list[int] = []
            while heap:
                v = heap[0][1]
                lo, hi = indptr[v], indptr[v + 1]
                if batch and not pending.isdisjoint(targets[lo:hi].tolist()):
                    break
                heappop(heap)
                batch.append(v)
            nodes = np.asarray(batch, dtype=np.int64)
            edges, counts = _expand_side(indptr, nodes)
            changed = rows.merge(
                nodes,
                np.repeat(np.arange(len(batch)), counts),
                targets[edges],
                weights[edges],
            )
            pending.difference_update(batch)
            if reverse is None:
                continue
            for v in changed.tolist():
                for u in reverse.row(v):
                    if u not in pending:
                        pending.add(u)
                        heappush(heap, (-rank[u], u))
        return rows.result()

    def _ranks(self) -> list[int]:
        if self._overlay is not None:
            return self._overlay.rank
        return self.order.tolist()

    def distance(self, source: int, target: int) -> float:
        """Exact point-to-point distance (bidirectional upward Dijkstra).

        Both directions relax only upward edges; every shortest path has
        a unique highest-ranked node, reached upward from both ends, so
        the best meeting point is exact.  A direction stops once its
        queue head can no longer improve the incumbent.
        """
        if source == target:
            return 0.0
        indptr, targets, weights = (
            self.up_indptr, self.up_targets, self.up_weights,
        )
        dist_f: dict[int, float] = {source: 0.0}
        dist_b: dict[int, float] = {target: 0.0}
        heap_f: list[tuple[float, int]] = [(0.0, source)]
        heap_b: list[tuple[float, int]] = [(0.0, target)]
        done_f: set[int] = set()
        done_b: set[int] = set()
        best = math.inf
        settled = 0
        while heap_f or heap_b:
            if heap_f and (not heap_b or heap_f[0][0] <= heap_b[0][0]):
                heap, dist, done, other = heap_f, dist_f, done_f, dist_b
            else:
                heap, dist, done, other = heap_b, dist_b, done_b, dist_f
            d, u = heappop(heap)
            if d >= best:
                # Nothing on this side can improve the incumbent; drain it.
                heap.clear()
                continue
            if u in done or d > dist.get(u, math.inf):
                continue
            done.add(u)
            settled += 1
            if u in other:
                total = d + other[u]
                if total < best:
                    best = total
            for pos in range(int(indptr[u]), int(indptr[u + 1])):
                w = int(targets[pos])
                nd = d + weights[pos]
                if nd < dist.get(w, math.inf):
                    dist[w] = nd
                    heappush(heap, (nd, w))
        self._metric_settled.inc(settled)
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContractionHierarchy(nodes={self.num_nodes}, "
            f"upward_edges={self.num_upward_edges}, "
            f"shortcuts={self.num_shortcuts})"
        )


class CHIndex(HierarchyIndexBase):
    """The contraction-hierarchy backend behind ``DistanceIndex``.

    Point-to-point ``distance()`` is the bidirectional upward Dijkstra.
    Range/kNN use the shared bucket lists of :mod:`repro.backends.base`,
    fed from each *object's* stalled upward search space; the query side
    runs one upward sweep per query (its search space is computed on the
    fly, not stored), which keeps the index small at the cost of per-
    query settle work — the trade-off the hub-label backend flips.

    Bucket entries taken from raw search spaces may overestimate
    individual hub distances, but for every object the minimum over
    shared hubs is exact (a search space is a valid hub label), which is
    all the bucket algorithms rely on.
    """

    backend_name = "ch"

    #: ``apply_updates`` falls back to a full rebuild once the repair
    #: damage set exceeds this fraction of the network's nodes.
    repair_threshold = 0.25

    def __init__(
        self,
        network,
        dataset,
        hierarchy: ContractionHierarchy,
        partition,
        object_table,
        buckets,
        *,
        settle_cap: int = WITNESS_SETTLE_CAP,
        object_entries=None,
        metrics=None,
    ) -> None:
        self.hierarchy = hierarchy
        self.settle_cap = int(settle_cap)
        # Per-object search spaces, aligned with dataset rank — kept so
        # incremental repair recomputes only the affected objects'
        # bucket entries.  Snapshots rederive them from the buckets;
        # ``None`` only when the hierarchy has no repair recording (the
        # first apply_updates then rebuilds).
        self._object_entries = object_entries
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
    ) -> "CHIndex":
        """Contract the network, then bucket the object search spaces.

        ``settle_cap`` bounds each witness search; it is persisted with
        the index and reused on §5.4 rebuilds.

        The build trace (``index.build_trace``) carries one span per
        phase — ``build.contract``, ``build.buckets``,
        ``build.object_table`` — and each phase's wall time also lands
        on a ``backend.ch.build.<phase>_seconds`` gauge when metrics are
        enabled.
        """
        trace = Tracer()
        with trace.span("build.ch", nodes=network.num_nodes):
            with trace.span("build.contract") as span:
                hierarchy = ContractionHierarchy.build(
                    network, settle_cap=settle_cap, metrics=metrics
                )
                span.set("shortcuts", hierarchy.num_shortcuts)
            with trace.span("build.buckets") as span:
                entries = [
                    hierarchy.search_space(object_node)
                    for object_node in dataset
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
            network, dataset, hierarchy, partition, object_table, buckets,
            settle_cap=settle_cap, object_entries=entries, metrics=metrics,
        )
        index._record_build_trace(trace)
        return index

    def _record_build_trace(self, trace: Tracer) -> None:
        self.build_trace = trace
        for span in trace.walk():
            if span.name.startswith("build.") and span.name != "build.ch":
                phase = span.name.removeprefix("build.")
                self.metrics.gauge(
                    f"backend.ch.build.{phase}_seconds"
                ).set(span.seconds)

    # ------------------------------------------------------------------
    # HierarchyIndexBase hooks
    # ------------------------------------------------------------------
    def _bind_backend_metrics(self, registry) -> None:
        self.hierarchy.bind_metrics(registry)

    def _forward_entries(self, node: int):
        return self.hierarchy.search_space(node)

    def _point_distance(self, node: int, target: int) -> float:
        return self.hierarchy.distance(node, target)

    def _rebuild(self) -> None:
        rebuilt = type(self).build(
            self.network,
            self.dataset,
            settle_cap=self.settle_cap,
            metrics=self.metrics,
        )
        self.hierarchy = rebuilt.hierarchy
        self.buckets = rebuilt.buckets
        self.partition = rebuilt.partition
        self.object_table = rebuilt.object_table
        self.build_trace = rebuilt.build_trace
        self._object_entries = rebuilt._object_entries

    def _apply_changeset(self, changeset, result) -> None:
        """Incremental §5.4 maintenance: repair the hierarchy, then
        recompute search spaces only for objects the repair may have
        moved.

        The repair's phases land on ``backend.ch.update.<phase>_seconds``
        histograms, once per repaired write: ``replay`` (the damaged
        contractions and the upward-row patch), ``spaces`` (the
        downward closure and the affected objects' search spaces) and
        ``objects`` (buckets and object table).

        Falls back to a full rebuild when no repair recording exists
        (indexes loaded from older snapshots), or the contraction damage
        exceeds ``repair_threshold`` × nodes.  Either way the resulting
        structures are bit-identical to a fresh build on the mutated
        network's repaired hierarchy — queries stay exact.
        """
        from repro.core.changeset import apply_changeset_to_network

        changed_edges = changeset.edges()
        apply_changeset_to_network(self.network, changeset)
        n = self.network.num_nodes
        phases = RepairPhases(("replay", "spaces", "objects"))
        outcome = None
        if self._object_entries is not None:
            limit = max(1, int(self.repair_threshold * n))
            with phases("replay"):
                outcome = self.hierarchy.repair(
                    self.network, changed_edges, damage_limit=limit
                )
        if outcome is None:
            self._note_rebuilt(result)
            return
        hierarchy = self.hierarchy
        with phases("spaces"):
            affected = hierarchy.downward_closure(
                outcome.changed_up, outcome.removed_up
            )
            affected_ranks = [
                rank
                for rank, object_node in enumerate(self.dataset)
                if affected[int(object_node)]
            ]
            moved = []
            for rank in affected_ranks:
                entry = hierarchy.search_space(int(self.dataset[rank]))
                old = self._object_entries[rank]
                if not (
                    np.array_equal(entry[0], old[0])
                    and np.array_equal(entry[1], old[1])
                ):
                    self._object_entries[rank] = entry
                    moved.append(rank)
        with phases("objects"):
            if moved:
                self._refresh_object_rows(self._object_entries, moved)
        phases.observe(self.metrics, "ch")
        self.metrics.counter("backend.ch.update.repaired").inc()
        self.metrics.counter("backend.ch.update.damaged_nodes").inc(
            outcome.damaged
        )
        result.bump("repaired")
        result.bump("damaged_nodes", outcome.damaged)
        result.report.merge(
            UpdateReport(
                affected_objects=set(affected_ranks),
                changed_components=0,
                touched_nodes=int(affected.sum()),
                recompressed_nodes=0,
            )
        )

    def _structure_bytes(self) -> int:
        return self.hierarchy.nbytes() + self.buckets.nbytes()

    def stats(self) -> dict:
        report = super().stats()
        report["shortcuts"] = self.hierarchy.num_shortcuts
        report["upward_edges"] = self.hierarchy.num_upward_edges
        report["settle_cap"] = self.settle_cap
        if self.hierarchy.rounds is not None:
            report["contraction_rounds"] = self.hierarchy.rounds
        return report
