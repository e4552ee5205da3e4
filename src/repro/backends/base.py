"""Shared machinery of the point-to-point backends (CH and hub labels).

Both backends in this package answer ``distance()`` from a contraction
hierarchy (directly, or through labels distilled from it) rather than
from per-object signatures.  What they share — and what this module
holds — is everything *around* that primitive:

* **Object-bucket lists on hubs.**  Range and kNN need one-to-many
  answers.  Instead of probing every object, each backend precomputes,
  per hub node ``h``, the list of ``(distance, object rank)`` entries of
  objects whose label (or CH search space) contains ``h`` — sorted by
  distance and stored as one contiguous CSR (``bucket_indptr`` /
  ``bucket_ranks`` / ``bucket_dists``).  A query then joins its own
  forward entries against those lists: scanning each touched bucket in
  ascending distance with an early cut answers range queries, and a
  k-way lazy merge over the same lists pops candidate ``(d_qh + d_ho)``
  sums in globally ascending order — the first time an object surfaces,
  its sum is its *exact* distance (the minimizing meeting hub is popped
  first), so the first k distinct objects are the exact kNN.
* **The full :class:`~repro.core.interface.DistanceIndex` surface** with
  the same validation the signature index pins: batch inputs through
  :func:`~repro.core.index._coerce_batch_nodes`, radii/k through the
  same coercions, empty-dataset kNN raising the identical
  :class:`~repro.errors.QueryError`.  Ties are resolved by
  ``(distance, dataset rank)`` — the ordering the monolith's
  ``EXACT_DISTANCES`` results pin.
* **§5.4 updates through** ``apply_updates``.  By default a changeset
  applies to the network and rebuilds the backend's structures
  wholesale; backends with an incremental path override
  ``_apply_changeset``.  A rebuild's
  :class:`~repro.core.update.UpdateReport` honestly marks every object
  affected and every node touched.  The serving tier's epoch machinery
  (:mod:`repro.serve.coordinator`) drives ``apply_updates`` unchanged,
  so acknowledged updates are never stale.
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from contextlib import contextmanager
from heapq import heappop, heappush

import numpy as np

try:  # C-speed CSR row gathers for the batch join; optional.
    from scipy.sparse._sparsetools import csr_row_index as _csr_row_index
except ImportError:  # pragma: no cover - scipy ships with the test extra
    _csr_row_index = None

#: Cleared if the private sparsetools entry point ever rejects our call
#: (a future scipy changing its signature) — the numpy gather path then
#: serves every batch, same answers.
_DIRECT_GATHER_OK = True

from repro.core import update
from repro.core.categories import CategoryPartition, optimal_partition
from repro.core.index import _coerce_batch_nodes, _coerce_k, _coerce_radius
from repro.core.queries import _AGGREGATES, KnnType
from repro.core.signature import ObjectDistanceTable
from repro.errors import IndexError_, QueryError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, Tracer, span_of
from repro.storage.pager import PageAccessCounter

__all__ = [
    "BucketLists",
    "HierarchyIndexBase",
    "RepairPhases",
    "batch_label_join_csr",
    "label_join",
    "pairwise_label_distances",
]


def label_join(
    hubs_a: np.ndarray,
    dists_a: np.ndarray,
    hubs_b: np.ndarray,
    dists_b: np.ndarray,
) -> float:
    """Exact distance from two hub labels: sorted-merge intersection.

    Both label halves are sorted by hub id; the shared hubs are found in
    one :func:`np.intersect1d` pass and the answer is the minimum summed
    distance over them (``inf`` when the labels share no hub — the
    endpoints are disconnected).
    """
    if len(hubs_a) == 0 or len(hubs_b) == 0:
        return math.inf
    common, idx_a, idx_b = np.intersect1d(
        hubs_a, hubs_b, assume_unique=True, return_indices=True
    )
    if len(common) == 0:
        return math.inf
    return float(np.min(dists_a[idx_a] + dists_b[idx_b]))


def _expand_side(
    indptr: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat element indices for every node's label slice, back to back.

    Returns ``(idx, counts)``: ``idx`` walks slice 0, then slice 1, …
    and ``counts[p]`` is slice ``p``'s length inside ``idx``.
    """
    lo = indptr[nodes]
    counts = (indptr[nodes + 1] - lo).astype(np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    idx = np.arange(total, dtype=np.int64)
    if total:
        idx += np.repeat(lo - (ends - counts), counts)
    return idx, counts


class _JoinWorkspace(threading.local):
    """Per-thread reusable buffers for the pack-sort join.

    The join's working arrays scale with the batch's label mass
    (hundreds of KiB at road-network label sizes) — past glibc's mmap
    threshold, so allocating them per call hands the pages back to the
    OS on free and every pass re-faults them in.  Carving slices out of
    a few geometrically grown thread-local buffers keeps the hot path
    allocation-free for everything that scales with the batch.
    """

    def __init__(self) -> None:
        self.idx_bits = 0
        self.iota = np.zeros(0, dtype=np.int64)
        self.iota_side = np.zeros(0, dtype=np.int64)
        self.flat = np.zeros(0, dtype=np.int64)
        self.merged = np.zeros(0, dtype=np.int64)
        self.shifted = np.zeros(0, dtype=np.int64)
        self.gather = np.zeros(0, dtype=np.int32)
        self.dist_a = np.zeros(0, dtype=np.float64)
        self.dist_b = np.zeros(0, dtype=np.float64)
        self.matched = np.zeros(0, dtype=np.float64)
        self.eq = np.zeros(0, dtype=bool)

    def reserve(self, total: int) -> None:
        if self.iota.size < total:
            cap = max(1024, 1 << int(total - 1).bit_length())
            # Entry positions are < cap, so they fit below this bit; the
            # side marker sits exactly on it.
            self.idx_bits = cap.bit_length()
            self.iota = np.arange(cap, dtype=np.int64)
            self.iota_side = self.iota + (1 << self.idx_bits)
            self.flat = np.zeros(cap, dtype=np.int64)
            self.merged = np.zeros(cap, dtype=np.int64)
            self.shifted = np.zeros(cap, dtype=np.int64)
            self.gather = np.zeros(cap, dtype=np.int32)
            self.dist_a = np.zeros(cap, dtype=np.float64)
            self.dist_b = np.zeros(cap, dtype=np.float64)
            self.matched = np.zeros(cap, dtype=np.float64)
            self.eq = np.zeros(cap, dtype=bool)


_JOIN_WORKSPACE = _JoinWorkspace()

#: Memoized int32 copies of label indptrs for the C row gather, keyed
#: by ``id(indptr)`` and revalidated by identity (a weakref keeps a
#: recycled id from ever aliasing a new array).
_INDPTR32_CACHE: dict[int, tuple] = {}


def _indptr32(indptr: np.ndarray) -> np.ndarray:
    """``indptr`` as int32, cached per label CSR.

    The caller guarantees the values fit (it routes CSRs with ``>= 2^31``
    entries to the fallback join); serving and benchmarks join against
    the same label arrays for the life of an index, so the one-time
    conversion amortizes to nothing.
    """
    key = id(indptr)
    entry = _INDPTR32_CACHE.get(key)
    if entry is not None:
        ref, ip32 = entry
        if ref() is indptr:
            return ip32
    if len(_INDPTR32_CACHE) >= 8:
        _INDPTR32_CACHE.clear()
    ip32 = np.ascontiguousarray(indptr, dtype=np.int32)
    _INDPTR32_CACHE[key] = (weakref.ref(indptr), ip32)
    return ip32


def batch_label_join_csr(
    indptr: np.ndarray,
    hubs: np.ndarray,
    dists: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> np.ndarray:
    """:func:`label_join` for many node pairs in one vectorized pass.

    ``left[i]`` / ``right[i]`` index label slices of the same CSR
    (``indptr`` / ``hubs`` / ``dists``, hub-sorted within each slice).
    Both sides' slices are first concatenated — hub ids and distances
    together — by scipy's C CSR row gather (``csr_row_index``) writing
    straight into workspace buffers (a numpy expand-and-``take`` path
    covers builds without scipy, same answers).  Every gathered entry
    then packs into one int64: the pair-scoped key
    ``(pair_id << hub_bits) | hub`` above, and the entry's *position*
    in the gathered run below, with the right side offset by a marker
    bit so left sorts before right on key ties.  One in-place
    :meth:`ndarray.sort` brings shared hubs adjacent — the input is two
    pre-sorted runs, which timsort merges in one near-linear pass — and
    a key occurs at most once per side (hubs are unique within a
    label), so every match is an adjacent left/right pair of entries
    carrying both gather positions in their low bits.  Summing the
    cache-warm gathered distances at those positions and a segmented
    :func:`np.minimum.reduceat` over the key-ordered (hence
    pair-grouped) matches yields the same minimum summed distance the
    scalar sorted-merge computes, bit for bit.  Pairs sharing no hub
    come back ``inf`` (disconnected), exactly like the scalar join.

    Gathers, packed entries, and the sort all live in slices of
    :data:`_JOIN_WORKSPACE`, so a warm call allocates nothing that
    scales with the batch.  Shapes that overflow the bit layout —
    enormous batches or graphs — take the pair-scoped-key
    :func:`np.searchsorted` join instead, with identical answers.
    """
    global _DIRECT_GATHER_OK
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    if len(left) != len(right):
        raise ValueError(
            f"batch join needs aligned pair arrays, got {len(left)} "
            f"vs {len(right)}"
        )
    num_pairs = len(left)
    out = np.full(num_pairs, math.inf, dtype=np.float64)
    if num_pairs == 0:
        return out
    indptr = np.asarray(indptr)
    base = len(indptr)  # > any hub id
    hub_bits = int(base).bit_length()  # pair stride is a shift, not a mul
    cnt_a = indptr[left + 1] - indptr[left]
    total_a = int(cnt_a.sum())
    cnt_b = indptr[right + 1] - indptr[right]
    total_b = int(cnt_b.sum())
    if total_a == 0 or total_b == 0:
        return out
    total = total_a + total_b
    if (num_pairs << hub_bits) >= 1 << 31 or total >= 1 << 22:
        a_idx, _ = _expand_side(indptr, left)
        b_idx, _ = _expand_side(indptr, right)
        return _batch_join_searchsorted(
            indptr, hubs, dists, out, a_idx, cnt_a, b_idx, cnt_b
        )

    ws = _JOIN_WORKSPACE
    ws.reserve(total)
    idx_bits = ws.idx_bits  # gather positions fit below the side marker
    key_shift = idx_bits + 1
    key_a = key_b = None
    if (
        _csr_row_index is not None
        and _DIRECT_GATHER_OK
        and hubs.dtype == np.int32
        and dists.dtype == np.float64
        and int(indptr[-1]) < 1 << 31
    ):
        # One C row-gather per side concatenates the label slices —
        # hub ids and distances together — straight into the workspace.
        # The sparsetools entry point is private scipy API, so one
        # rejected call (a future signature change) permanently falls
        # back to the numpy gathers below.
        try:
            key_a = ws.gather[:total_a]
            key_b = ws.gather[total_a:total]
            exp_da = ws.dist_a[:total_a]
            exp_db = ws.dist_b[:total_b]
            ip32 = _indptr32(indptr)
            _csr_row_index(
                num_pairs,
                np.asarray(left, dtype=np.int32),
                ip32,
                hubs,
                dists,
                key_a,
                exp_da,
            )
            _csr_row_index(
                num_pairs,
                np.asarray(right, dtype=np.int32),
                ip32,
                hubs,
                dists,
                key_b,
                exp_db,
            )
        except Exception:
            _DIRECT_GATHER_OK = False
            key_a = key_b = None
    if key_a is None:
        lo_a = indptr[left]
        ends_a = np.cumsum(cnt_a)
        lo_b = indptr[right]
        ends_b = np.cumsum(cnt_b)
        a_idx = ws.flat[:total_a]
        b_idx = ws.flat[total_a:total]
        np.add(
            ws.iota[:total_a],
            np.repeat((lo_a - (ends_a - cnt_a)).astype(np.int64), cnt_a),
            out=a_idx,
        )
        np.add(
            ws.iota[:total_b],
            np.repeat((lo_b - (ends_b - cnt_b)).astype(np.int64), cnt_b),
            out=b_idx,
        )
        key_a = np.take(hubs, a_idx, out=ws.gather[:total_a], mode="clip")
        key_b = np.take(hubs, b_idx, out=ws.gather[total_a:total], mode="clip")
        # Expand the distances too, while the slices stream
        # contiguously: the post-sort lookups then hit these cache-warm
        # copies instead of issuing scattered loads into the full CSR.
        exp_da = np.take(dists, a_idx, out=ws.dist_a[:total_a], mode="clip")
        exp_db = np.take(dists, b_idx, out=ws.dist_b[:total_b], mode="clip")
    offsets = np.arange(num_pairs, dtype=np.int32)
    offsets <<= hub_bits
    merged = ws.merged[:total]
    pa = merged[:total_a]
    pb = merged[total_a:]
    key_a += np.repeat(offsets, cnt_a)
    np.multiply(key_a, np.int64(1 << key_shift), out=pa)
    np.add(pa, ws.iota[:total_a], out=pa)
    key_b += np.repeat(offsets, cnt_b)
    np.multiply(key_b, np.int64(1 << key_shift), out=pb)
    np.add(pb, ws.iota_side[:total_b], out=pb)
    # Two pre-sorted runs: timsort detects them and merges in one
    # near-linear pass instead of re-sorting from scratch.
    merged.sort(kind="stable")
    keys = ws.shifted[:total]
    np.right_shift(merged, key_shift, out=keys)
    eq = ws.eq[: total - 1]
    np.equal(keys[1:], keys[:-1], out=eq)
    hit = np.flatnonzero(eq)
    if hit.size == 0:
        return out
    # A key occurs at most once per side (hubs are unique within a
    # label), so every adjacent-equal run is one left entry and one
    # right entry — the side marker orders left first.
    matches = hit.size
    idx_mask = (1 << idx_bits) - 1
    pos_a = merged[hit]
    pos_a &= idx_mask
    pos_b = merged[1:][hit]
    pos_b &= idx_mask
    sums = np.take(exp_da, pos_a, out=ws.matched[:matches], mode="clip")
    sums += exp_db[pos_b]
    # The matched key still encodes its pair id above hub_bits; mpair is
    # non-decreasing (matches are key-ordered), so one reduceat over the
    # run starts closes the join.
    mpair = keys[hit]
    mpair >>= hub_bits
    run_start = ws.eq[:matches]
    run_start[0] = True
    np.not_equal(mpair[1:], mpair[:-1], out=run_start[1:])
    firsts = np.flatnonzero(run_start)
    out[mpair[firsts]] = np.minimum.reduceat(sums, firsts)
    return out


def _batch_join_searchsorted(
    indptr: np.ndarray,
    hubs: np.ndarray,
    dists: np.ndarray,
    out: np.ndarray,
    a_idx: np.ndarray,
    cnt_a: np.ndarray,
    b_idx: np.ndarray,
    cnt_b: np.ndarray,
) -> np.ndarray:
    """Sorted pair-scoped-key fallback join (same answers, no scratch).

    Both sides expand to flat ``pair_id * base + hub`` keys — int32
    when every key fits — and the right side's keys are globally sorted
    by construction, so a single :func:`np.searchsorted` finds every
    shared hub; matches stay grouped by pair, so a segmented
    :func:`np.minimum.reduceat` closes the join.
    """
    num_pairs = len(cnt_a)
    base = len(indptr)  # > any hub id
    key_dtype = np.int32 if num_pairs * base < 2**31 else np.int64
    offsets = (np.arange(num_pairs, dtype=np.int64) * base).astype(key_dtype)
    key_a = hubs[a_idx].astype(key_dtype, copy=False)
    key_a += np.repeat(offsets, cnt_a)
    key_b = hubs[b_idx].astype(key_dtype, copy=False)
    key_b += np.repeat(offsets, cnt_b)
    pos = np.minimum(np.searchsorted(key_b, key_a), key_b.size - 1)
    matched = np.flatnonzero(key_b[pos] == key_a)
    if matched.size == 0:
        return out
    sums = dists[a_idx[matched]] + dists[b_idx[pos[matched]]]
    # Which pair each matched left entry belongs to: its position's
    # bracketing slice in the cumulative ends.  mpair is non-decreasing,
    # so the per-pair minimum is one reduceat over the run starts.
    mpair = np.searchsorted(np.cumsum(cnt_a), matched, side="right")
    firsts = np.flatnonzero(np.diff(mpair, prepend=-1))
    out[mpair[firsts]] = np.minimum.reduceat(sums, firsts)
    return out


def pairwise_label_distances(
    entries: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """The ``(D, D)`` exact object-to-object distance matrix from labels."""
    d = len(entries)
    out = np.zeros((d, d), dtype=np.float64)
    for i in range(d):
        hubs_i, dists_i = entries[i]
        for j in range(i + 1, d):
            hubs_j, dists_j = entries[j]
            out[i, j] = out[j, i] = label_join(
                hubs_i, dists_i, hubs_j, dists_j
            )
    return out


class BucketLists:
    """Per-hub object lists as one CSR, sorted by distance within a hub.

    ``entries(h)`` answers the ``(ranks, dists)`` slice for hub ``h``.
    Entries come from each object's label (hub backend) or stalled CH
    search space (CH backend); either way the minimum of
    ``d_query(h) + dists`` over every hub the query's forward entries
    share with an object is that object's exact distance.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        ranks: np.ndarray,
        dists: np.ndarray,
    ) -> None:
        self.indptr = indptr
        self.ranks = ranks
        self.dists = dists

    @classmethod
    def build(
        cls,
        num_nodes: int,
        object_entries: list[tuple[np.ndarray, np.ndarray]],
    ) -> "BucketLists":
        """Invert per-object ``(hubs, dists)`` arrays into per-hub lists."""
        if object_entries:
            hubs = np.concatenate([nodes for nodes, _ in object_entries])
            dists = np.concatenate([d for _, d in object_entries])
            ranks = np.concatenate(
                [
                    np.full(len(nodes), rank, dtype=np.int32)
                    for rank, (nodes, _) in enumerate(object_entries)
                ]
            )
        else:
            hubs = np.zeros(0, dtype=np.int32)
            dists = np.zeros(0, dtype=np.float64)
            ranks = np.zeros(0, dtype=np.int32)
        # Primary key hub, secondary distance, tertiary rank: each hub's
        # slice comes out distance-sorted with deterministic tie order.
        order = np.lexsort((ranks, dists, hubs))
        hubs = hubs[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        counts = np.bincount(hubs, minlength=num_nodes)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, ranks[order].astype(np.int32), dists[order])

    @property
    def num_entries(self) -> int:
        return len(self.ranks)

    def nbytes(self) -> int:
        return self.indptr.nbytes + self.ranks.nbytes + self.dists.nbytes


class RepairPhases:
    """Wall time of each phase of one incremental repair.

    A backend times its phases with ``with phases("replay"): ...`` and
    calls :meth:`observe` once the write has been repaired, so every
    ``backend.<name>.update.<phase>_seconds`` histogram gets exactly one
    observation per repaired write — zero for a phase with nothing to
    do, the sum for a phase entered more than once.
    """

    __slots__ = ("seconds",)

    def __init__(self, phases) -> None:
        self.seconds = dict.fromkeys(phases, 0.0)

    @contextmanager
    def __call__(self, phase: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[phase] += time.perf_counter() - start

    def observe(self, metrics, backend: str) -> None:
        for phase, seconds in self.seconds.items():
            metrics.histogram(
                f"backend.{backend}.update.{phase}_seconds"
            ).observe(seconds)


class HierarchyIndexBase:
    """Common :class:`DistanceIndex` implementation of the CH/hub backends.

    Subclasses provide:

    * :attr:`backend_name` — the registry name (``"ch"`` / ``"hub"``);
    * ``_forward_entries(node) -> (hubs, dists)`` — the query-side label;
    * ``_point_distance(node, target) -> float`` — exact point-to-point;
    * ``_rebuild()`` — reconstruct every derived structure from
      ``self.network`` (the §5.4 rebuild-on-update path);
    * ``_bind_backend_metrics(registry)`` — rebind backend instruments;
    * ``_structure_bytes()`` — backend array footprint for stats.
    """

    backend_name = "hierarchy"

    def __init__(
        self,
        network,
        dataset,
        partition: CategoryPartition,
        object_table: ObjectDistanceTable,
        buckets: BucketLists,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.network = network
        self.dataset = dataset
        self.partition = partition
        self.object_table = object_table
        self.buckets = buckets
        # Backends are array-resident, not page-simulated: the counter
        # exists for surface compatibility (serving telemetry, CLI
        # reporting) and stays at zero.
        self.counter = PageAccessCounter()
        self.buffer_pool = None
        self.tracer: Tracer | None = None
        self.build_trace: Tracer | None = None
        self.use_metrics(metrics if metrics is not None else MetricsRegistry())

    # ------------------------------------------------------------------
    # shared build helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _derive_partition(object_distances: np.ndarray) -> CategoryPartition:
        """A partition scaled to the dataset's distance spread.

        Backends need no categories to answer queries (they hold exact
        distances); the partition exists for surface parity — serving
        clients read its boundaries to form workload radii.  The scale
        comes from the largest finite object-to-object distance.
        """
        finite = object_distances[np.isfinite(object_distances)]
        spread = float(finite.max()) if finite.size else 0.0
        if spread <= 0.0:
            return CategoryPartition([])
        return optimal_partition(spread)

    # ------------------------------------------------------------------
    # observability (mirrors SignatureIndex)
    # ------------------------------------------------------------------
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
        """Swap the metrics registry and rebind cached instruments."""
        self.metrics = registry
        self._bind_backend_metrics(registry)

    def _bind_backend_metrics(self, registry: MetricsRegistry) -> None:
        raise NotImplementedError

    @contextmanager
    def _observed(self, kind: str, *, count: int, attrs: dict):
        start = time.perf_counter()
        with span_of(self, kind, **attrs) as span:
            yield span
            elapsed = time.perf_counter() - start
        metrics = self.metrics
        metrics.counter(f"{kind}.count").inc(count)
        if count > 0:
            metrics.histogram(f"{kind}.seconds").observe(elapsed / count)

    def _scope(self, kind: str, *, count: int = 1, **attrs):
        if self.tracer is None and not self.metrics.enabled:
            return _NULL_SCOPE
        return self._observed(kind, count=count, attrs=attrs)

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
    # bucket query core
    # ------------------------------------------------------------------
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
            return self._distance_batch_values(nodes, object_nodes)

    def _distance_batch_values(
        self, nodes: list[int], object_nodes: list[int]
    ) -> list[float]:
        # Scalar fallback; the hub backend overrides with the vectorized
        # label-join kernel.  The counters make kernel-vs-scalar traffic
        # visible on /metrics.
        self.metrics.counter("query.distance_batch.scalar_pairs").inc(
            len(nodes)
        )
        return [
            self._point_distance(node, int(object_node))
            for node, object_node in zip(nodes, object_nodes)
        ]

    def range_query(
        self, node: int, radius: float, *, with_distances: bool = False
    ):
        """Objects within ``radius`` of ``node``, in dataset order."""
        node = self._check_node(node)
        radius = _coerce_radius(radius)
        with self._scope("query.range", node=node, radius=radius) as span:
            fwd_hubs, fwd_dists = self._forward_entries(node)
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
            fwd_hubs, fwd_dists = self._forward_entries(node)
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
            fwd_hubs, fwd_dists = self._forward_entries(node)
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

    def _refresh_object_rows(self, entries, ranks) -> None:
        """Re-derive buckets / object table / partition after the
        per-object ``(hubs, dists)`` entries of object ``ranks`` changed.

        Only those rows (and columns) of the object distance matrix are
        re-joined; the rest carry over from the current table.  Each
        pair goes through the same :func:`label_join` the build's
        :func:`pairwise_label_distances` runs, so the result equals a
        fresh derivation from ``entries``.
        """
        distances = np.array(self.object_table.matrix_view())
        for i in ranks:
            hubs_i, dists_i = entries[i]
            for j, (hubs_j, dists_j) in enumerate(entries):
                if j != i:
                    distances[i, j] = distances[j, i] = label_join(
                        hubs_i, dists_i, hubs_j, dists_j
                    )
        self.buckets = BucketLists.build(self.network.num_nodes, entries)
        self.partition = self._derive_partition(distances)
        self.object_table = ObjectDistanceTable(
            distances, self.partition, drop_last_category=False
        )

    # ------------------------------------------------------------------
    # updates (§5.4): the unified changeset pipeline
    # ------------------------------------------------------------------
    def _full_rebuild_report(self) -> update.UpdateReport:
        # Rebuild-on-update touches everything; report it honestly.
        return update.UpdateReport(
            affected_objects=set(range(len(self.dataset))),
            changed_components=0,
            touched_nodes=self.network.num_nodes,
            recompressed_nodes=0,
        )

    def apply_updates(self, changeset):
        """Apply a coalesced batch of edge deltas under one maintenance
        pass.

        The whole batch is validated before anything mutates (structural
        problems raise :class:`~repro.errors.QueryError`, unknown nodes
        and edges :class:`~repro.errors.DatasetError`), then handed to
        the backend's ``_apply_changeset`` hook — incremental repair
        where the backend supports it, rebuild-from-network otherwise.
        Returns an :class:`~repro.core.changeset.ApplyResult`.
        """
        from repro.core.changeset import ApplyResult, as_changeset

        changeset = as_changeset(changeset)
        changeset.validate(self.network)
        result = ApplyResult(applied=len(changeset))
        with self._scope("update.apply", deltas=len(changeset)):
            self._apply_changeset(changeset, result)
        self.metrics.counter(
            f"backend.{self.backend_name}.update.applied"
        ).inc(len(changeset))
        return result

    def _apply_changeset(self, changeset, result) -> None:
        """Default maintenance strategy: mutate the network, rebuild.

        Backends with an incremental path override this; they must
        record their outcome on ``result`` (``bump("repaired")`` /
        ``bump("rebuilt")``) and mirror it onto
        ``backend.<name>.update.{repaired,rebuilt}`` counters.
        """
        from repro.core.changeset import apply_changeset_to_network

        apply_changeset_to_network(self.network, changeset)
        self._note_rebuilt(result)

    def _note_rebuilt(self, result) -> None:
        """Rebuild from ``self.network`` and account for it."""
        self._rebuild()
        self.metrics.counter("backend.rebuilds").inc()
        self.metrics.counter(
            f"backend.{self.backend_name}.update.rebuilt"
        ).inc()
        result.bump("rebuilt")
        result.report.merge(self._full_rebuild_report())

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Surface parity with the signature index (pages stay zero)."""
        self.counter.reset()

    def refresh_storage(self) -> None:
        """No-op: backends hold plain arrays, nothing paged to re-pack.

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
            "index_bytes": self._structure_bytes(),
            "object_table_bytes": self.object_table.size_bytes(),
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


class _NullScope:
    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SCOPE = _NullScope()
