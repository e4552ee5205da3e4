"""Basic operations on distance signatures (§3.2, Algorithms 1–4).

* **Distance retrieval** (Alg 1): follow the backtracking link hop by hop,
  accumulating exact edge weights; at each intermediate node the remaining
  distance is re-read from that node's signature, so the range tightens
  monotonically until it either stops partially intersecting the query
  range ∆ (approximate retrieval) or collapses to the exact distance at
  the object itself.
* **Exact distance comparison** (Alg 2): refine the two ranges against
  each other in alternating batches until they are unambiguous.
* **Approximate distance comparison** (Alg 3): zero-I/O voting by
  *observer* objects embedded in a 2-D plane — each observer checks
  whether the node could sit on the perpendicular bisector of the two
  compared objects given its own categorical distance to the node.
* **Distance sorting** (Alg 4): an approximate initial sort refined by
  exact adjacent comparisons, bubbling corrections backwards.

Every function takes the :class:`~repro.core.index.SignatureIndex` (duck
typed: only the attributes documented on :class:`SignatureIndexProtocol`
are used) so I/O is charged to the index's simulated pager.
"""

from __future__ import annotations

import functools
import math
from typing import Protocol

from repro.core.categories import CategoryPartition
from repro.core.signature import (
    LINK_HERE,
    LINK_NONE,
    DistanceRange,
    ObjectDistanceTable,
    SignatureComponent,
)
from repro.errors import DisconnectedError, IndexError_
from repro.network.graph import RoadNetwork

__all__ = [
    "SignatureIndexProtocol",
    "Backtracker",
    "retrieve_distance",
    "retrieve_distance_range",
    "compare_exact",
    "compare_approximate",
    "sort_by_distance",
]


def link_out_of_range(node: int, link: int, rank: int) -> IndexError_:
    """The error every backtracking walk raises for a link position
    outside the node's adjacency list: a corrupt link table."""
    return IndexError_(
        f"backtracking toward object {rank} read link {link} at node "
        f"{node}, outside its adjacency list: the link table is corrupt"
    )


class SignatureIndexProtocol(Protocol):
    """The slice of :class:`~repro.core.index.SignatureIndex` operations use."""

    network: RoadNetwork
    partition: CategoryPartition
    object_table: ObjectDistanceTable

    def component(self, node: int, rank: int) -> SignatureComponent:
        """Logical (decompressed) component of object ``rank`` at ``node``."""
        ...

    def touch_signature(self, node: int) -> None:
        """Charge the I/O of reading ``node``'s signature record."""
        ...

    def touch_adjacency(self, node: int) -> None:
        """Charge the I/O of reading ``node``'s adjacency record."""
        ...


class Backtracker:
    """Stateful guided backtracking toward one object (Algorithm 1).

    Construction charges the *component* lookup to an already-read
    signature (callers read the query node's signature once per query);
    each :meth:`step` charges one adjacency access (for the edge weight
    and link dereference) and one signature access at the next hop.
    """

    def __init__(self, index: SignatureIndexProtocol, node: int, rank: int) -> None:
        self._index = index
        self._rank = rank
        self._node = node
        self._accumulated = 0.0
        self._steps = 0
        # A valid backtracking walk visits each node at most once (it
        # follows a shortest path), so more steps than nodes means the
        # link table is corrupt; the guard turns a would-be infinite walk
        # into a diagnosable error.
        self._max_steps = index.network.num_nodes
        # Full SignatureIndex objects expose a shared hop counter (a
        # repro.obs Counter); bare protocol stubs in tests do not.
        self._hops_metric = getattr(index, "_metric_backtrack_hops", None)
        component = index.component(node, rank)
        self._component = component
        if component.link == LINK_HERE:
            self._range = DistanceRange(0.0, 0.0)
        elif component.link == LINK_NONE:
            self._range = DistanceRange(math.inf, math.inf)
        else:
            lb, ub = index.partition.bounds(component.category)
            self._range = DistanceRange(lb, ub)

    @property
    def range(self) -> DistanceRange:
        """The tightest distance range derived so far."""
        return self._range

    @property
    def steps(self) -> int:
        """How many backtracking hops the walk has taken so far."""
        return self._steps

    @property
    def is_exact(self) -> bool:
        """Whether the range has collapsed to the exact distance."""
        return self._range.is_exact

    def step(self) -> DistanceRange:
        """Backtrack one hop, tightening the range; returns the new range.

        Raises :class:`~repro.errors.IndexError_` if the walk exceeds the
        node count — a link cycle — or follows a link outside the node's
        adjacency list, i.e. a corrupted index.
        """
        if self.is_exact:
            return self._range
        self._steps += 1
        if self._hops_metric is not None:
            self._hops_metric.inc()
        if self._steps > self._max_steps:
            raise IndexError_(
                f"backtracking toward object {self._rank} exceeded "
                f"{self._max_steps} hops: the link table is corrupt"
            )
        index = self._index
        index.touch_adjacency(self._node)
        link = self._component.link
        adjacency = index.network.adjacency_lists()[self._node]
        if not 0 <= link < len(adjacency):
            raise link_out_of_range(self._node, link, self._rank)
        next_node, weight = adjacency[link]
        self._accumulated += weight
        self._node = next_node
        index.touch_signature(next_node)
        component = index.component(next_node, self._rank)
        self._component = component
        if component.link == LINK_HERE:
            self._range = DistanceRange(self._accumulated, self._accumulated)
        elif component.link == LINK_NONE:  # pragma: no cover - inconsistent index
            raise IndexError_(
                f"backtracking reached node {next_node} whose signature marks "
                f"object {self._rank} unreachable"
            )
        else:
            lb, ub = index.partition.bounds(component.category)
            self._range = DistanceRange(lb, ub).shift(self._accumulated)
        return self._range

    def refine(self, delta: DistanceRange, *, force_step: bool = False) -> DistanceRange:
        """Step until the range no longer partially intersects ``delta``.

        With ``force_step`` the refinement takes at least one step even if
        the termination condition already holds (needed by Algorithm 2 to
        guarantee progress when one range contains the other).
        """
        if force_step and not self.is_exact:
            self.step()
        while not self.is_exact and self._range.partially_intersects(delta):
            self.step()
        return self._range

    def run_to_exact(self) -> float:
        """Backtrack all the way to the object; returns the exact distance."""
        while not self.is_exact:
            self.step()
        return self._range.value


def retrieve_distance(
    index: SignatureIndexProtocol, node: int, rank: int
) -> float:
    """Exact distance retrieval (Algorithm 1 without ∆).

    Raises :class:`~repro.errors.DisconnectedError` when the signature
    marks the object unreachable from ``node``.
    """
    tracker = Backtracker(index, node, rank)
    if math.isinf(tracker.range.lb):
        raise DisconnectedError(node, rank)
    return tracker.run_to_exact()


def retrieve_distance_range(
    index: SignatureIndexProtocol,
    node: int,
    rank: int,
    delta: DistanceRange,
) -> DistanceRange:
    """Approximate distance retrieval (Algorithm 1 with ∆).

    Returns a range containing the true distance that does not partially
    intersect ``delta`` (it may lie entirely inside ``delta``).
    """
    tracker = Backtracker(index, node, rank)
    return tracker.refine(delta)


def compare_exact(
    index: SignatureIndexProtocol, node: int, rank_a: int, rank_b: int
) -> int:
    """Exact distance comparison (Algorithm 2): −1, 0, or 1.

    Returns the sign of ``d(node, a) − d(node, b)``; 0 only when the two
    distances are exactly equal.
    """
    comp_a = index.component(node, rank_a)
    comp_b = index.component(node, rank_b)
    if comp_a.category != comp_b.category:
        return -1 if comp_a.category < comp_b.category else 1

    tracker_a = Backtracker(index, node, rank_a)
    tracker_b = Backtracker(index, node, rank_b)
    rounds_metric = getattr(index, "_metric_compare_rounds", None)
    while True:
        if rounds_metric is not None:
            rounds_metric.inc()
        range_a, range_b = tracker_a.range, tracker_b.range
        if range_a.is_exact and range_b.is_exact:
            if range_a.value < range_b.value:
                return -1
            if range_a.value > range_b.value:
                return 1
            return 0
        if range_a.disjoint_from(range_b):
            return -1 if range_a.lb < range_b.lb else 1
        # Refine in alternating batches (the paper's I/O-friendly order):
        # a against b's current range, then b against a's refined range.
        if not tracker_a.is_exact:
            tracker_a.refine(tracker_b.range, force_step=True)
            if tracker_a.range.disjoint_from(tracker_b.range):
                continue
        if not tracker_b.is_exact:
            tracker_b.refine(tracker_a.range, force_step=True)


def _embed_observer(
    d_ab: float, d_ca: float, d_cb: float
) -> tuple[float, float]:
    """Place the observer in the plane with a at (0,0) and b at (d_ab, 0).

    Triangulation by the law of cosines; network distances need not be
    Euclidean-consistent, so the y² term clamps at zero (the observer
    collapses onto the ab line — the embedding distortion the paper
    accepts for this heuristic).
    """
    x = (d_ca * d_ca - d_cb * d_cb + d_ab * d_ab) / (2.0 * d_ab)
    y_sq = d_ca * d_ca - x * x
    y = math.sqrt(y_sq) if y_sq > 0 else 0.0
    return x, y


def _observer_vote(
    partition: CategoryPartition,
    shared_category: int,
    observer_category: int,
    d_ab: float,
    d_ca: float,
    d_cb: float,
) -> int:
    """One observer's vote: −1 (a closer), 1 (b closer), 0 (abstain).

    Implements §3.2.2's heuristic: candidate positions for the node on the
    perpendicular bisector of ab are those consistent with the shared
    category's range; if the observer's categorical distance to the node
    excludes *all* candidates as too far, the node is on the observer's
    side of the bisector (closer to whichever of a/b the observer is
    closer to); if it excludes them all as too near, the node is on the
    far side.
    """
    if d_ca == d_cb:
        return 0  # observer cannot pick a side
    half = d_ab / 2.0
    lb, ub = partition.bounds(shared_category)
    r_lo = max(lb, half)
    r_hi = ub
    if r_lo > r_hi:
        return 0  # category range incompatible with bisector geometry
    cx, cy = _embed_observer(d_ab, d_ca, d_cb)

    def observer_to_bisector(r: float) -> tuple[float, float]:
        """Distances from the observer to the two mirrored points at radius r."""
        y = math.sqrt(max(r * r - half * half, 0.0))
        d_plus = math.hypot(cx - half, cy - y)
        d_minus = math.hypot(cx - half, cy + y)
        return d_plus, d_minus

    lo_pair = observer_to_bisector(r_lo)
    if math.isinf(r_hi):
        d_min = min(lo_pair)
        d_max = math.inf
        # An unbounded bisector segment: the near endpoint may still not be
        # the global minimum over the segment, but distance to the bisector
        # is monotone beyond the foot of the perpendicular; include the
        # foot's distance when it lies inside the candidate interval.
        d_min = min(d_min, _foot_distance(cx, cy, half, r_lo, math.inf))
    else:
        hi_pair = observer_to_bisector(r_hi)
        candidates = (*lo_pair, *hi_pair)
        d_min = min(candidates)
        d_max = max(candidates)
        d_min = min(d_min, _foot_distance(cx, cy, half, r_lo, r_hi))

    obs_lb, obs_ub = partition.bounds(observer_category)
    observer_side_vote = -1 if d_ca < d_cb else 1
    if d_max < obs_lb:
        # Every candidate is nearer than the node can be: the node is past
        # the bisector, i.e. on the side away from the observer.
        return -observer_side_vote
    if d_min > obs_ub:
        # Every candidate is farther than the node can be: the node is on
        # the observer's side of the bisector.
        return observer_side_vote
    return 0


def _foot_distance(
    cx: float, cy: float, half: float, r_lo: float, r_hi: float
) -> float:
    """Min distance from the observer to the bisector within the radius band.

    The bisector is the vertical line ``x = half``; points on it at radius
    ``r`` from the endpoints sit at ``|y| = sqrt(r² − half²)``.  The
    observer's nearest bisector point overall has ``y = cy``; if that
    point's radius falls inside ``[r_lo, r_hi]`` it is a valid candidate
    whose distance (the perpendicular distance) lower-bounds the segment.
    """
    y = abs(cy)
    r_at_foot = math.hypot(half, y)
    if r_lo <= r_at_foot <= r_hi:
        return abs(cx - half)
    return math.inf


def compare_approximate(
    index: SignatureIndexProtocol, node: int, rank_a: int, rank_b: int
) -> int:
    """Approximate distance comparison (Algorithm 3): −1, 0, or 1.

    Zero-I/O: uses only the (already read) signature of ``node`` and the
    in-memory object distance table.  A return of 0 means "no decision"
    (which distance sorting treats as equality, to be fixed up by the
    exact refinement pass).
    """
    comp_a = index.component(node, rank_a)
    comp_b = index.component(node, rank_b)
    if comp_a.category != comp_b.category:
        return -1 if comp_a.category < comp_b.category else 1
    shared = comp_a.category
    if shared >= index.partition.unreachable:
        return 0
    table = index.object_table
    if not table.has(rank_a, rank_b):
        return 0
    d_ab = table.distance(rank_a, rank_b)
    if d_ab <= 0:
        return 0

    votes = 0
    voters = 0
    for rank in _observer_candidates(index, node, shared, rank_a, rank_b):
        if not (table.has(rank, rank_a) and table.has(rank, rank_b)):
            continue
        observer_category = index.component(node, rank).category
        vote = _observer_vote(
            index.partition,
            shared,
            observer_category,
            d_ab,
            table.distance(rank, rank_a),
            table.distance(rank, rank_b),
        )
        votes += vote
        voters += vote != 0
    if votes < 0:
        return -1
    if votes > 0:
        return 1
    return 0


def _observer_candidates(
    index: SignatureIndexProtocol,
    node: int,
    shared_category: int,
    rank_a: int,
    rank_b: int,
):
    """Objects strictly closer to ``node`` than the compared pair (§3.2.2)."""
    for rank in range(index.object_table.num_objects):
        if rank in (rank_a, rank_b):
            continue
        if index.component(node, rank).category < shared_category:
            yield rank


def sort_by_distance(
    index: SignatureIndexProtocol, node: int, ranks: list[int]
) -> list[int]:
    """Distance sorting (Algorithm 4): exact ascending order of ``ranks``.

    Fast initial sort with the approximate comparator, then a bubble-style
    refinement with exact comparisons on adjacent pairs, propagating each
    correction backwards.
    """
    ordered = sorted(
        ranks,
        key=functools.cmp_to_key(
            lambda a, b: compare_approximate(index, node, a, b)
        ),
    )
    i = 0
    swaps = 0
    # A consistent comparator needs at most m(m-1)/2 corrections (it is
    # insertion sort); exceeding that bound means the comparator is
    # inconsistent — a corrupted index — so fail loudly instead of
    # livelocking.
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
