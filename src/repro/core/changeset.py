"""The unified §5.4 update pipeline: validated, coalesced edge deltas.

Every implementation of :class:`~repro.core.interface.DistanceIndex`
takes edge updates through one entry point, ``apply_updates``.  A
live-traffic workload — many small weight perturbations per second —
hands the index *one batch* of deltas, validated up front, deduplicated
per edge, and applied under a single maintenance pass; a single edge
change is simply a one-delta batch.

:class:`ChangeSet` is that batch.  It is built from raw ``(op, u, v,
weight)`` tuples (or :class:`EdgeDelta` instances), normalized to
canonical ``u < v`` endpoint order, structurally validated, and
*coalesced*: several deltas on the same edge collapse to their net
effect (``add`` then ``set_weight`` is an ``add`` at the final weight;
``remove`` then ``add`` is a ``set_weight``; ``add`` then ``remove``
cancels).  The surviving deltas are sorted by endpoint pair, so every
implementation applies the same operations in the same order.

Validation is two-phase and *precedes any mutation*:

* **structural** (at build time) — unknown op, self-loop, missing /
  non-positive / non-finite weight → :class:`~repro.errors.QueryError`
  (a :class:`ValueError`, so HTTP handlers map it to a 400);
* **against a network** (:meth:`ChangeSet.validate`) — unknown node,
  ``add`` of an existing edge, ``remove``/``set_weight`` of a missing
  edge → :class:`~repro.errors.DatasetError`.

Every implementation's ``apply_updates`` runs both phases before
touching anything, so a rejected changeset leaves the index untouched.

:class:`ApplyResult` is the uniform return value: the post-apply epoch
(when a serving coordinator assigns one), the merged
:class:`~repro.core.update.UpdateReport`, and per-phase counters
(``repaired`` / ``rebuilt`` / ... — whatever the implementation's
maintenance strategy wants to report).

Every write runs in two steps.  ``index.prepare_updates(changeset)``
validates the changeset and computes the write while reading the live
index and writing only private state; it returns a :class:`Patch`.
:meth:`Patch.commit` publishes that state and returns the
:class:`ApplyResult`.  ``apply_updates(changeset)`` is exactly
``prepare_updates(changeset).commit()``.  Reads that run while a
prepare is in flight see the index as the last commit left it, so a
serving tier can prepare on a thread of its own and hold its write lock
only around the commit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.update import UpdateReport
from repro.errors import DatasetError, IndexError_, QueryError

__all__ = [
    "EDGE_OPS",
    "EdgeDelta",
    "ChangeSet",
    "ApplyResult",
    "Patch",
    "as_changeset",
    "apply_changeset_to_network",
]

#: The operations a changeset can express, in canonical spelling.
EDGE_OPS = ("add", "remove", "set_weight")


@dataclass(frozen=True)
class EdgeDelta:
    """One normalized edge mutation: ``op`` on edge ``{u, v}``.

    Endpoints are canonical (``u < v``); ``weight`` is ``None`` exactly
    when ``op == "remove"``.
    """

    op: str
    u: int
    v: int
    weight: float | None = None

    @property
    def edge(self) -> tuple[int, int]:
        return (self.u, self.v)

    def as_tuple(self) -> tuple[str, int, int, float | None]:
        """Plain-data form for logs and cross-process transport."""
        return (self.op, self.u, self.v, self.weight)


def _normalize(item) -> EdgeDelta:
    """One raw delta → a structurally valid, canonical EdgeDelta."""
    if isinstance(item, EdgeDelta):
        op, u, v, weight = item.op, item.u, item.v, item.weight
    else:
        parts = tuple(item)
        if len(parts) == 3:
            op, u, v = parts
            weight = None
        elif len(parts) == 4:
            op, u, v, weight = parts
        else:
            raise QueryError(
                f"edge delta must be (op, u, v[, weight]), got {item!r}"
            )
    if op not in EDGE_OPS:
        raise QueryError(
            f"unknown edge operation {op!r}; pick one of {EDGE_OPS}"
        )
    u, v = int(u), int(v)
    if u == v:
        raise QueryError(f"self-loop update on node {u} is not allowed")
    if u > v:
        u, v = v, u
    if op == "remove":
        weight = None
    else:
        if weight is None:
            raise QueryError(f"edge operation {op!r} requires a weight")
        weight = float(weight)
        if not (math.isfinite(weight) and weight > 0):
            raise QueryError(
                f"edge weight must be positive and finite, got {weight}"
            )
    return EdgeDelta(op, u, v, weight)


def _coalesce(state: EdgeDelta | None, delta: EdgeDelta) -> EdgeDelta | None:
    """Fold ``delta`` into the edge's running net effect.

    The state machine below treats a changeset as a *sequence* and keeps
    only its net outcome per edge; inconsistent sequences (``add`` of an
    edge the changeset already added, ``set_weight`` after ``remove``)
    are structural errors.  Note ``remove`` then ``add`` nets to
    ``set_weight``: changesets express final edge *state*, not operation
    history.
    """
    if state is None:
        return delta
    op, prev = delta.op, state.op
    if prev == "add":
        if op == "add":
            raise QueryError(
                f"changeset adds edge {delta.edge} twice"
            )
        if op == "set_weight":
            return EdgeDelta("add", delta.u, delta.v, delta.weight)
        return None  # add then remove: cancels entirely
    if prev == "set_weight":
        if op == "add":
            raise QueryError(
                f"changeset adds edge {delta.edge} it already re-weights"
            )
        return delta  # set_weight→set_weight (last wins) or →remove
    # prev == "remove"
    if op == "add":
        return EdgeDelta("set_weight", delta.u, delta.v, delta.weight)
    raise QueryError(
        f"changeset {op}s edge {delta.edge} it already removed"
    )


class ChangeSet:
    """An immutable batch of coalesced, canonically ordered edge deltas.

    Construct with :meth:`build` (normalizes, validates structurally,
    coalesces) — the constructor itself trusts its input and is meant
    for internal routing (replayed log entries).
    """

    __slots__ = ("deltas",)

    def __init__(self, deltas: Iterable[EdgeDelta]) -> None:
        self.deltas: tuple[EdgeDelta, ...] = tuple(deltas)

    @classmethod
    def build(cls, items: Iterable) -> "ChangeSet":
        """Normalize, structurally validate, coalesce, and order deltas.

        ``items`` may mix :class:`EdgeDelta` instances and ``(op, u, v[,
        weight])`` tuples.  Raises :class:`~repro.errors.QueryError` on
        any structural problem; the result's deltas are sorted by
        ``(u, v)`` with at most one delta per edge.
        """
        net: dict[tuple[int, int], EdgeDelta | None] = {}
        for item in items:
            delta = _normalize(item)
            net[delta.edge] = _coalesce(net.get(delta.edge), delta)
        return cls(
            delta
            for _, delta in sorted(net.items())
            if delta is not None
        )

    # ------------------------------------------------------------------
    # validation against a network (phase 2)
    # ------------------------------------------------------------------
    def validate(self, network) -> None:
        """Check every delta against ``network``; mutate nothing.

        Raises :class:`~repro.errors.DatasetError` on an unknown node,
        an ``add`` of an existing edge, or a ``remove``/``set_weight``
        of a missing edge.  Edges are pairwise distinct after
        coalescing, so per-delta checks against the current network are
        exact for the whole batch.
        """
        num_nodes = network.num_nodes
        for delta in self.deltas:
            for node in (delta.u, delta.v):
                if not 0 <= node < num_nodes:
                    raise DatasetError(
                        f"update references unknown node {node} "
                        f"(network has {num_nodes} nodes)"
                    )
            exists = network.has_edge(delta.u, delta.v)
            if delta.op == "add" and exists:
                raise DatasetError(
                    f"cannot add edge {delta.edge}: it already exists"
                )
            if delta.op != "add" and not exists:
                raise DatasetError(
                    f"cannot {delta.op} edge {delta.edge}: "
                    f"no such edge in the network"
                )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def touched_nodes(self) -> set[int]:
        """Every endpoint named by a delta."""
        nodes: set[int] = set()
        for delta in self.deltas:
            nodes.add(delta.u)
            nodes.add(delta.v)
        return nodes

    def edges(self) -> list[tuple[int, int]]:
        """Canonical endpoint pairs, one per delta, in apply order."""
        return [delta.edge for delta in self.deltas]

    def as_tuples(self) -> tuple[tuple[str, int, int, float | None], ...]:
        """Plain-data ``(op, u, v, weight)`` tuples, in apply order."""
        return tuple(delta.as_tuple() for delta in self.deltas)

    def __len__(self) -> int:
        return len(self.deltas)

    def __bool__(self) -> bool:
        return bool(self.deltas)

    def __iter__(self) -> Iterator[EdgeDelta]:
        return iter(self.deltas)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChangeSet({len(self.deltas)} deltas)"


def as_changeset(obj) -> ChangeSet:
    """Coerce raw delta tuples (or pass a ChangeSet through) for apply.

    Every ``apply_updates`` entry point accepts either form, so callers
    holding plain data (HTTP payloads, replayed log entries) need not
    import this module to build one first.
    """
    if isinstance(obj, ChangeSet):
        return obj
    return ChangeSet.build(obj)


def apply_changeset_to_network(network, changeset: ChangeSet) -> None:
    """Apply a (validated) changeset's deltas to a bare network.

    The shared mutation step of every rebuild-style ``apply_updates``
    and of the Dijkstra oracles in the test suite.
    """
    for delta in changeset:
        if delta.op == "add":
            network.add_edge(delta.u, delta.v, delta.weight)
        elif delta.op == "remove":
            network.remove_edge(delta.u, delta.v)
        else:
            network.set_edge_weight(delta.u, delta.v, delta.weight)


@dataclass
class ApplyResult:
    """What one ``apply_updates`` call did, uniformly across backends.

    Attributes
    ----------
    epoch:
        The serving coordinator's post-apply epoch; 0 for direct
        (unserved) applies.
    applied:
        Deltas applied.
    report:
        Merged §5.4 :class:`~repro.core.update.UpdateReport` (tree /
        signature locality for the signature families; the honest
        everything-touched report for rebuild paths).
    counters:
        Per-phase counts — e.g. ``{"repaired": 3}`` when a hierarchy
        backend repaired incrementally, ``{"rebuilt": 1}`` when it fell
        back to a full rebuild.
    """

    epoch: int = 0
    applied: int = 0
    report: UpdateReport = field(default_factory=UpdateReport)
    counters: dict[str, int] = field(default_factory=dict)

    def bump(self, phase: str, count: int = 1) -> None:
        """Increment a per-phase counter."""
        self.counters[phase] = self.counters.get(phase, 0) + count


class Patch:
    """One prepared, unpublished write: what ``prepare_updates`` returns.

    ``changeset`` is the validated batch; ``prepared`` is whatever the
    index computed for it (``None`` for indexes whose commit runs the
    whole write in place).  :meth:`commit` publishes it, once, and only
    against the index state it was prepared from: a patch prepared
    before another write was committed is stale and raises
    :class:`~repro.errors.IndexError_` instead of publishing.
    ``prepare_seconds`` and ``commit_seconds`` time the two steps.
    """

    __slots__ = (
        "changeset", "prepared", "prepare_seconds", "commit_seconds",
        "_index", "_generation",
    )

    def __init__(
        self, index, changeset: ChangeSet, prepared=None, *,
        prepare_seconds: float = 0.0,
    ) -> None:
        self.changeset = changeset
        self.prepared = prepared
        self.prepare_seconds = prepare_seconds
        self.commit_seconds: float | None = None
        self._index = index
        self._generation = index.write_generation

    def commit(self) -> "ApplyResult":
        """Publish the write; returns its :class:`ApplyResult`."""
        index = self._index
        if self.commit_seconds is not None:
            raise IndexError_("this patch has already been committed")
        if index.write_generation != self._generation:
            raise IndexError_(
                "stale patch: another write was committed after this one "
                "was prepared; prepare it again"
            )
        start = time.perf_counter()
        try:
            return index._commit_patch(self)
        finally:
            index.write_generation += 1
            self.commit_seconds = time.perf_counter() - start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "committed" if self.commit_seconds is not None else "pending"
        return f"Patch({len(self.changeset)} deltas, {state})"
