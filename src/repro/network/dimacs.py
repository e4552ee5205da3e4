"""DIMACS shortest-path challenge graph loader.

The 9th DIMACS Implementation Challenge distributes the standard road
benchmarks (NY, BAY, ... USA) as ``.gr`` arc files plus optional ``.co``
coordinate files:

* ``.gr`` — comment lines (``c ...``), one problem line
  (``p sp <nodes> <arcs>``), then arc lines ``a <u> <v> <weight>`` with
  **1-indexed** endpoints and integer weights.  Road graphs list each
  undirected road twice (once per direction); this loader folds the two
  directions into one undirected edge, keeping the minimum weight when
  the directions disagree.
* ``.co`` — comment lines, ``p aux sp co <nodes>``, then vertex lines
  ``v <id> <x> <y>`` (longitude/latitude scaled to integers).

Both files may be gzip-compressed (``.gr.gz`` / ``.co.gz``); compression
is sniffed from the magic bytes, not the filename.  Without a ``.co``
file every node gets placeholder ``(0.0, 0.0)`` coordinates —
distance/index queries are unaffected (they only read edge weights),
but coordinate-dependent features (A*'s Euclidean heuristic, planar
partitioning) need real coordinates to be useful.

Edges land in each node's adjacency list in first-seen file order, so
loading the same file always yields a bit-identical
:class:`~repro.network.graph.RoadNetwork` — the property deterministic
hierarchy builds rely on.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path

from repro.errors import GraphError
from repro.network.graph import RoadNetwork

__all__ = ["load_dimacs"]

_GZIP_MAGIC = b"\x1f\x8b"


def _open_text(path: Path) -> io.TextIOBase:
    """Open ``path`` as text, transparently decompressing gzip."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == _GZIP_MAGIC:
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="ascii")
    return open(path, "r", encoding="ascii")


def _parse_gr(path: Path) -> tuple[int, dict[tuple[int, int], float]]:
    """Parse a ``.gr`` file into (num_nodes, undirected edge dict).

    The edge dict is keyed ``(min(u, v), max(u, v))`` with 0-indexed
    endpoints and preserves first-seen insertion order, which in turn
    pins the adjacency order of the returned network.
    """
    num_nodes = -1
    edges: dict[tuple[int, int], float] = {}
    with _open_text(path) as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            fields = line.split()
            if fields[0] == "p":
                # "p sp <nodes> <arcs>"
                if len(fields) != 4 or fields[1] != "sp":
                    raise GraphError(
                        f"{path}:{lineno}: malformed problem line {line!r} "
                        "(expected 'p sp <nodes> <arcs>')"
                    )
                num_nodes = int(fields[2])
                continue
            if fields[0] == "a":
                if num_nodes < 0:
                    raise GraphError(
                        f"{path}:{lineno}: arc line before the 'p sp' "
                        "problem line"
                    )
                if len(fields) != 4:
                    raise GraphError(
                        f"{path}:{lineno}: malformed arc line {line!r}"
                    )
                u = int(fields[1]) - 1
                v = int(fields[2]) - 1
                weight = float(fields[3])
                if not 0 <= u < num_nodes or not 0 <= v < num_nodes:
                    raise GraphError(
                        f"{path}:{lineno}: arc endpoint out of range for a "
                        f"{num_nodes}-node graph: {line!r}"
                    )
                if u == v:
                    continue  # self-loops carry no distance information
                if weight <= 0:
                    raise GraphError(
                        f"{path}:{lineno}: non-positive arc weight {line!r}"
                    )
                key = (u, v) if u < v else (v, u)
                seen = edges.get(key)
                if seen is None or weight < seen:
                    edges[key] = weight
                continue
            raise GraphError(
                f"{path}:{lineno}: unrecognized line {line!r}"
            )
    if num_nodes < 0:
        raise GraphError(f"{path}: no 'p sp' problem line found")
    return num_nodes, edges


def _parse_co(path: Path, num_nodes: int) -> list[tuple[float, float]]:
    """Parse a ``.co`` coordinate file into per-node ``(x, y)``."""
    coords = [(0.0, 0.0)] * num_nodes
    with _open_text(path) as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("c") or line.startswith("p"):
                continue
            fields = line.split()
            if fields[0] != "v" or len(fields) != 4:
                raise GraphError(
                    f"{path}:{lineno}: malformed coordinate line {line!r}"
                )
            node = int(fields[1]) - 1
            if not 0 <= node < num_nodes:
                raise GraphError(
                    f"{path}:{lineno}: coordinate for node {node + 1} but "
                    f"the graph has {num_nodes} nodes"
                )
            coords[node] = (float(fields[2]), float(fields[3]))
    return coords


def load_dimacs(
    gr_path: str | Path, co_path: str | Path | None = None
) -> RoadNetwork:
    """Load a DIMACS ``.gr`` (and optional ``.co``) into a RoadNetwork.

    Directed arc pairs fold into undirected min-weight edges; adjacency
    lists follow first-seen arc order, so the result is deterministic
    for a given file.  Raises
    :class:`~repro.errors.GraphError` on malformed input.
    """
    gr_path = Path(gr_path)
    num_nodes, edges = _parse_gr(gr_path)
    coords = (
        _parse_co(Path(co_path), num_nodes)
        if co_path is not None
        else [(0.0, 0.0)] * num_nodes
    )
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(num_nodes)]
    for (u, v), weight in edges.items():
        adjacency[u].append((v, weight))
        adjacency[v].append((u, weight))
    return RoadNetwork.from_adjacency(coords, adjacency)
