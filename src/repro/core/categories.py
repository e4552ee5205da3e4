"""Distance-spectrum partitions (categories).

§3.1 discretizes every node-to-object distance into one of M *categories*;
§5.1 derives the partition the index should use: exponential boundaries
``T, cT, c²T, …`` (distant categories span wider ranges, because "most
queries are interested in local areas"), with the analytically optimal
parameters ``c = e`` and ``T = sqrt(SP / e)`` under the uniform-grid,
uniform-object model, where ``SP`` bounds the query spreading.

Two classes:

* :class:`CategoryPartition` — any monotone partition given by explicit
  boundaries; the contract every other module programs against;
* :class:`ExponentialPartition` — the paper's partition, constructed from
  ``(c, T)`` and the distance it must cover.

Category ``i`` covers the half-open interval ``[lower_bound(i),
upper_bound(i))``; the last category's upper bound is ``inf`` ("beyond 900
meters" in the paper's example).  A dedicated sentinel
:data:`UNREACHABLE` (= ``num_categories``) marks objects with no path at
all, so disconnected networks degrade gracefully instead of corrupting
category arithmetic.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import PartitionError

__all__ = [
    "CategoryPartition",
    "ExponentialPartition",
    "category_bound_arrays",
    "category_bound_lists",
    "optimal_exponent",
    "optimal_first_boundary",
    "optimal_partition",
    "paper_evaluation_partition",
]

#: The analytically optimal exponent (§5.1): Euler's number.
_E = math.e


class CategoryPartition:
    """A partition of ``[0, inf)`` into M half-open distance categories.

    ``boundaries`` are the *internal* cut points ``0 < b_1 < b_2 < … <
    b_{M-1}``; category 0 is ``[0, b_1)``, category i is ``[b_i, b_{i+1})``,
    and the last category is ``[b_{M-1}, inf)``.  With no boundaries there
    is a single all-covering category.
    """

    def __init__(self, boundaries: Iterable[float]) -> None:
        bounds = [float(b) for b in boundaries]
        if any(b <= 0 for b in bounds):
            raise PartitionError("category boundaries must be positive")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise PartitionError("category boundaries must be strictly increasing")
        self._boundaries: tuple[float, ...] = tuple(bounds)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def boundaries(self) -> tuple[float, ...]:
        """The internal cut points (length ``num_categories - 1``)."""
        return self._boundaries

    @property
    def num_categories(self) -> int:
        """M, the number of categories."""
        return len(self._boundaries) + 1

    @property
    def unreachable(self) -> int:
        """The sentinel categorical value for unreachable objects."""
        return self.num_categories

    # ------------------------------------------------------------------
    # categorization
    # ------------------------------------------------------------------
    def categorize(self, distance: float) -> int:
        """The category of a distance; ``inf`` maps to :attr:`unreachable`."""
        if distance < 0:
            raise PartitionError(f"distance must be non-negative, got {distance}")
        if math.isinf(distance):
            return self.unreachable
        return bisect.bisect_right(self._boundaries, distance)

    def lower_bound(self, category: int) -> float:
        """Inclusive lower bound of ``category`` (``inf`` for unreachable)."""
        self._check_category(category)
        if category == self.unreachable:
            return math.inf
        if category == 0:
            return 0.0
        return self._boundaries[category - 1]

    def upper_bound(self, category: int) -> float:
        """Exclusive upper bound of ``category`` (``inf`` for the last one)."""
        self._check_category(category)
        if category >= self.num_categories - 1:
            return math.inf
        return self._boundaries[category]

    def bounds(self, category: int) -> tuple[float, float]:
        """``(lower_bound, upper_bound)`` of ``category``."""
        return self.lower_bound(category), self.upper_bound(category)

    def _check_category(self, category: int) -> None:
        if not 0 <= category <= self.unreachable:
            raise PartitionError(
                f"category {category} out of range 0..{self.unreachable}"
            )

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CategoryPartition):
            return NotImplemented
        return self._boundaries == other._boundaries

    def __hash__(self) -> int:
        return hash(self._boundaries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_categories={self.num_categories})"


class ExponentialPartition(CategoryPartition):
    """The paper's exponential partition: boundaries ``T, cT, c²T, …``.

    Parameters
    ----------
    c:
        The growth exponent; must exceed 1 (and must exceed 3/2 for the
        reverse-zero-padding encoding to be Huffman-optimal, Theorem 5.1).
    first_boundary:
        ``T``, the upper bound of category 0.
    max_distance:
        The largest finite distance the partition must cover with a
        *bounded* category; the final unbounded category then begins just
        past it.  Categories: ``[0,T), [T,cT), …, [c^{M-2}T, inf)`` with M
        chosen minimally so ``c^{M-2} T > max_distance``.
    """

    def __init__(self, c: float, first_boundary: float, max_distance: float) -> None:
        if c <= 1:
            raise PartitionError(f"exponent c must exceed 1, got {c}")
        if first_boundary <= 0:
            raise PartitionError(
                f"first boundary T must be positive, got {first_boundary}"
            )
        if max_distance < 0:
            raise PartitionError(
                f"max_distance must be non-negative, got {max_distance}"
            )
        self.c = float(c)
        self.first_boundary = float(first_boundary)
        boundaries = [self.first_boundary]
        while boundaries[-1] <= max_distance:
            boundaries.append(boundaries[-1] * self.c)
        super().__init__(boundaries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExponentialPartition(c={self.c}, T={self.first_boundary}, "
            f"num_categories={self.num_categories})"
        )


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


@functools.lru_cache(maxsize=64)
def category_bound_lists(
    partition: CategoryPartition,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """:func:`category_bound_arrays` as tuples of Python floats, for
    per-hop scalar reads that would otherwise pay a numpy item access."""
    lbs, ubs = category_bound_arrays(partition)
    return tuple(lbs.tolist()), tuple(ubs.tolist())


def optimal_exponent() -> float:
    """The cost-optimal exponent ``c`` from §5.1: Euler's number ``e``.

    §5.1 minimizes the expected signature I/O cost on a uniform grid with
    uniformly distributed objects and uniformly distributed query
    spreadings; the optimum is independent of object density.
    """
    return _E


def optimal_first_boundary(max_spreading: float, c: float | None = None) -> float:
    """The cost-optimal first boundary ``T = sqrt(SP / c)`` from §5.1.

    ``max_spreading`` is ``SP``, the upper bound of query spreadings
    (range radii / k-th NN distances) the workload will issue.  The paper's
    closed form at the optimal ``c = e`` is ``T = sqrt(SP / e)``; Fig 6.7's
    third observation ("as c increases, the best T decreases") corresponds
    to the general ``sqrt(SP / c)``.
    """
    if max_spreading <= 0:
        raise PartitionError(
            f"max spreading must be positive, got {max_spreading}"
        )
    if c is None:
        c = optimal_exponent()
    if c <= 1:
        raise PartitionError(f"exponent c must exceed 1, got {c}")
    return math.sqrt(max_spreading / c)


def paper_evaluation_partition(
    max_distance: float,
    *,
    spreading_fraction: float = 0.2,
    depth: float = 50.0,
) -> ExponentialPartition:
    """The partition regime the paper's evaluation uses (§6.1), rescaled.

    §6.1 fixes ``c = e`` and ``T = 10``: a partition that resolves the
    *query-relevant* part of the spectrum finely and lumps everything
    beyond it into the unbounded last category — which then holds the
    bulk of the node-to-object distance mass, exactly the regime where
    reverse zero padding achieves Table 1's ≈0.74 ratio ("reducing a
    category id from 3 bits to 1.4 bits") and where most remote objects
    become compressible.

    At an arbitrary network scale the equivalent configuration is pinned
    by two ratios: the covered spreading ``SP = spreading_fraction *
    max_distance`` (how far bounded categories reach into the spectrum)
    and the depth ``SP / T`` (how finely they resolve it).  The defaults
    reproduce the paper's category-id width (3 bits) and last-category
    mass (~0.7–0.8) on this repo's synthetic networks.
    """
    if max_distance <= 0:
        raise PartitionError(
            f"max_distance must be positive, got {max_distance}"
        )
    if not 0 < spreading_fraction <= 1:
        raise PartitionError(
            f"spreading_fraction must be in (0, 1], got {spreading_fraction}"
        )
    if depth <= 1:
        raise PartitionError(f"depth must exceed 1, got {depth}")
    spreading = spreading_fraction * max_distance
    first = max(1.0, spreading / depth)
    return ExponentialPartition(optimal_exponent(), first, spreading)


def optimal_partition(
    max_spreading: float, max_distance: float | None = None
) -> ExponentialPartition:
    """The §5.1-optimal partition for a workload bounded by ``max_spreading``.

    ``max_distance`` defaults to ``max_spreading`` (the partition must
    resolve distances at least up to the largest query the workload asks).
    """
    c = optimal_exponent()
    t = optimal_first_boundary(max_spreading, c)
    if max_distance is None:
        max_distance = max_spreading
    return ExponentialPartition(c, t, max_distance)
