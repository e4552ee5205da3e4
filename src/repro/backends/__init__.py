"""Alternate point-to-point index families behind ``DistanceIndex``.

The paper's signature index answers queries from *per-object* distance
signatures; the families here preprocess the *network* instead:

* :class:`~repro.backends.ch.CHIndex` — a contraction hierarchy
  (edge-difference ordering, witness-bounded shortcuts) queried by
  bidirectional upward Dijkstra;
* :class:`~repro.backends.hub_labels.HubLabelIndex` — 2-hop hub labels
  distilled from the CH search spaces, queried by sorted-merge
  intersection.

Both implement the full :class:`~repro.core.interface.DistanceIndex`
surface, so persistence (:mod:`repro.backends.persistence` registers
their on-disk formats with core), serving, and the CLI treat them
interchangeably with the signature index.  ``BACKENDS`` maps registry
names to builders; ``repro build --backend`` and the conformance suite
iterate it, so a new family added here inherits the plumbing.

See ``docs/BACKENDS.md`` for the design and the build-time /
index-size / query-time trade-off the families bracket.
"""

from __future__ import annotations

from repro.backends import persistence as _persistence  # noqa: F401 (registers formats)
from repro.backends.base import HierarchyIndexBase
from repro.backends.ch import CHIndex, ContractionHierarchy
from repro.backends.hub_labels import HubLabelIndex

__all__ = [
    "BACKENDS",
    "CHIndex",
    "ContractionHierarchy",
    "HierarchyIndexBase",
    "HubLabelIndex",
    "backend_of",
    "build_backend",
]

#: Registry name -> ``build(network, dataset, *, metrics=None, **kw)``.
BACKENDS = {
    "ch": CHIndex.build,
    "hub": HubLabelIndex.build,
}


def build_backend(name: str, network, dataset, *, metrics=None, **kwargs):
    """Build the backend registered under ``name``."""
    try:
        builder = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {sorted(BACKENDS)}"
        ) from None
    return builder(network, dataset, metrics=metrics, **kwargs)


def backend_of(index) -> str:
    """The backend name of any loaded ``DistanceIndex``.

    Backends from this package carry ``backend_name``; the original
    signature index reports as ``"signature"``.
    """
    return getattr(index, "backend_name", "signature")
