"""Shared machinery of the hub-label backend.

What :mod:`repro.backends.hub_labels` builds its
:class:`~repro.core.interface.DistanceIndex` from:

* **Label joins.**  :func:`label_join` is the scalar sorted-merge
  intersection of two hub labels; :func:`batch_label_join_csr` answers
  many pairs of one label CSR in a single vectorized pass, bit-identical
  to it, and serves both ``distance_batch`` and the label distillation.
* **Object-bucket lists on hubs.**  Range and kNN need one-to-many
  answers.  Instead of probing every object, the index precomputes,
  per hub node ``h``, the list of ``(distance, object rank)`` entries of
  objects whose label contains ``h`` — sorted by distance and stored as
  one contiguous CSR (:class:`BucketLists`).  A query then joins its
  own label against those lists: scanning each touched bucket in
  ascending distance with an early cut answers range queries, and a
  k-way lazy merge over the same lists pops candidate ``(d_qh + d_ho)``
  sums in globally ascending order — the first time an object surfaces,
  its sum is its *exact* distance (the minimizing meeting hub is popped
  first), so the first k distinct objects are the exact kNN.
* **Repair timing.**  :class:`RepairPhases` times the phases of one
  incremental write for the ``backend.<name>.update.*_seconds``
  histograms.
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from contextlib import contextmanager

import numpy as np

try:  # C-speed CSR row gathers for the batch join; optional.
    from scipy.sparse._sparsetools import csr_row_index as _csr_row_index
except ImportError:  # pragma: no cover - scipy ships with the test extra
    _csr_row_index = None

#: Cleared if the private sparsetools entry point ever rejects our call
#: (a future scipy changing its signature) — the numpy gather path then
#: serves every batch, same answers.
_DIRECT_GATHER_OK = True

__all__ = [
    "BucketLists",
    "RepairPhases",
    "batch_label_join_csr",
    "label_join",
    "pairwise_label_distances",
    "release_join_workspace",
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

    The buffers grow to the largest call the thread has served and stay
    that size until :meth:`release` drops them; ``peak`` keeps the
    largest capacity ever reserved.  The thread's int32 indptr copies
    (:func:`_indptr32`) live here too, so one thread's label CSRs never
    evict another's.
    """

    def __init__(self) -> None:
        self.peak = 0
        self.release()

    def release(self) -> None:
        """Drop the buffers and indptr copies (``peak`` stays)."""
        self.indptr32: dict[int, tuple] = {}
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
            self.peak = max(self.peak, cap)


_JOIN_WORKSPACE = _JoinWorkspace()


def release_join_workspace() -> None:
    """Free the calling thread's join buffers.

    A label build or a hub write grows them to its largest join block
    (up to 2^18 entries, about 18 MB); the reads that follow need far
    less, and re-grow on demand.
    """
    _JOIN_WORKSPACE.release()


def _indptr32(indptr: np.ndarray) -> np.ndarray:
    """``indptr`` as int32, memoized per label CSR in the calling
    thread's workspace.

    The caller guarantees the values fit (it routes CSRs with ``>= 2^31``
    entries to the fallback join); serving and benchmarks join against
    the same label arrays for the life of an index, so the one-time
    conversion amortizes to nothing.  Entries are keyed by
    ``id(indptr)`` and revalidated by identity (a weakref keeps a
    recycled id from ever aliasing a new array).
    """
    cache = _JOIN_WORKSPACE.indptr32
    key = id(indptr)
    entry = cache.get(key)
    if entry is not None:
        ref, ip32 = entry
        if ref() is indptr:
            return ip32
    if len(cache) >= 8:
        cache.clear()
    ip32 = np.ascontiguousarray(indptr, dtype=np.int32)
    cache[key] = (weakref.ref(indptr), ip32)
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

    Hub ``h``'s ``(ranks, dists)`` slice lists the objects whose label
    holds ``h``; the minimum of ``d_query(h) + dists`` over every hub
    the query's label shares with an object is that object's exact
    distance.
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
    calls :meth:`observe` once the write has been published (timing
    touches no metric, so a prepare may run on another thread), so every
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
