"""Alternate point-to-point index families behind ``DistanceIndex``.

The paper's signature index answers queries from *per-object* distance
signatures; the family here preprocesses the *network* instead:

* :class:`~repro.backends.hub_labels.HubLabelIndex` — 2-hop hub labels
  distilled from the search spaces of a
  :class:`~repro.backends.ch.ContractionHierarchy` (edge-difference
  ordering, witness-bounded shortcuts), queried by sorted-merge
  intersection.

It implements the full :class:`~repro.core.interface.DistanceIndex`
surface, so persistence (:mod:`repro.backends.persistence` registers
its on-disk format with core), serving, and the CLI treat it
interchangeably with the signature index.  ``BACKENDS`` maps registry
names to builders; ``repro build --backend`` and the conformance suite
iterate it, so a new family added here inherits the plumbing.

See ``docs/BACKENDS.md`` for the design and the build-time /
index-size / query-time trade-off the families bracket.
"""

from __future__ import annotations

from repro.backends import persistence as _persistence  # noqa: F401 (registers formats)
from repro.backends.ch import ContractionHierarchy
from repro.backends.hub_labels import HubLabelIndex

__all__ = [
    "BACKENDS",
    "ContractionHierarchy",
    "HubLabelIndex",
    "backend_of",
    "build_backend",
]

#: Registry name -> ``build(network, dataset, *, metrics=None, **kw)``.
BACKENDS = {
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
