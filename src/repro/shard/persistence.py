"""Format v3: a shard manifest plus one independent v2 directory per shard.

Layout of a saved :class:`~repro.shard.sharded.ShardedSignatureIndex`::

    meta.txt             # magic "repro-signature-index 3" + key-value lines
    network.txt          # the *global* road network
    dataset.txt          # the global object dataset
    assignment.npy       # int32 node -> shard id
    shard-manifest.json  # shard count, per-shard dirs, boundary node lists
    shard-0000/ ...      # each a complete, self-contained format-v2 index

Every ``shard-NNNN/`` directory is a plain v2 save of that shard's
signature index (over the shard subgraph and pseudo dataset, local node
ids) — it memory-maps independently and even loads on its own through
:func:`repro.core.persistence.load_index`, which is exactly what the
multi-process serving path does: each shard worker maps *only its own*
shard directory (:func:`load_shard_worker`), so a K-shard deployment
holds ~1/K of the signature payload per process.

Everything else is derived at load time from ground truth rather than
persisted: pseudo-object mappings come from the shard datasets, cut
edges from the network + assignment, and the overlay matrices
(boundary×boundary ``D``, boundary×object ``G``) plus the global object
distance table are recomputed from the shard spanning trees — they are
cheap (Dijkstra over the small boundary overlay) and this way a loaded
index can never disagree with its shards.  Only the per-shard *boundary
lists* are persisted: §5.4 promotions grow them beyond what the current
cut implies, and demotion never happens.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.categories import CategoryPartition
from repro.errors import PersistenceError
from repro.network.io import (
    load_dataset,
    load_network,
    save_dataset,
    save_network,
)
from repro.shard.partition import NetworkPartition

__all__ = [
    "MAGIC_V3",
    "ShardWorkerState",
    "save_sharded_index",
    "load_sharded_index",
    "load_shard_worker",
]

MAGIC_V3 = "repro-signature-index 3"

_MANIFEST = "shard-manifest.json"
_ASSIGNMENT = "assignment.npy"


def _shard_dir_name(shard_id: int) -> str:
    return f"shard-{shard_id:04d}"


def save_sharded_index(index, directory: str | Path) -> None:
    """Persist a :class:`~repro.shard.sharded.ShardedSignatureIndex`.

    Callers normally go through :func:`repro.core.persistence.save_index`
    (which dispatches here for sharded indexes / ``format=3``).
    """
    from repro.core.persistence import save_index

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_network(index.network, directory / "network.txt")
    save_dataset(index.dataset, directory / "dataset.txt")
    np.save(
        directory / _ASSIGNMENT,
        np.asarray(index.assignment, dtype=np.int32),
    )
    manifest = {
        "num_shards": index.num_shards,
        "shards": [
            {
                "dir": _shard_dir_name(shard.shard_id),
                "empty": shard.index is None,
                "boundary": [int(g) for g in shard.boundary_global],
            }
            for shard in index.shards
        ],
    }
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n")
    for shard in index.shards:
        if shard.index is not None:
            save_index(
                shard.index, directory / _shard_dir_name(shard.shard_id),
                format=2,
            )
    meta = [
        MAGIC_V3,
        "boundaries " + " ".join(repr(b) for b in index.partition.boundaries),
        f"shards {index.num_shards}",
        f"encoding {index.stored_kind}",
        f"drop_last {int(index._drop_last)}",
        f"query_engine {index.query_engine}",
        f"knn_refine {index.knn_refine}",
    ]
    # meta.txt last: its presence marks the directory complete.
    (directory / "meta.txt").write_text("\n".join(meta) + "\n")


def _read_manifest(directory: Path) -> dict:
    path = directory / _MANIFEST
    if not path.exists():
        raise PersistenceError(
            f"{directory}: sharded index is missing {_MANIFEST}"
        )
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise PersistenceError(
            f"{directory}: corrupt {_MANIFEST}: {exc}"
        ) from exc
    if manifest.get("num_shards") != len(manifest.get("shards", [])):
        raise PersistenceError(
            f"{directory}: {_MANIFEST} shard count disagrees with its "
            f"shard list"
        )
    return manifest


def _shard_state_from(
    shard_id: int,
    assignment: np.ndarray,
    dataset,
    shard_index,
    boundary_global: list[int],
):
    """Reconstruct one :class:`~repro.shard.sharded.ShardState` from its
    loaded shard index plus the persisted boundary list."""
    from repro.shard.sharded import ShardState

    global_nodes = np.flatnonzero(assignment == shard_id)
    local_of = {int(g): i for i, g in enumerate(global_nodes)}
    if shard_index is None:
        pseudo_global: list[int] = []
    else:
        pseudo_global = [
            int(global_nodes[local]) for local in shard_index.dataset
        ]
    pseudo_rank = {g: p for p, g in enumerate(pseudo_global)}
    obj_pairs = [
        (rank, node)
        for rank, node in enumerate(dataset)
        if assignment[node] == shard_id
    ]
    for g in boundary_global:
        if g not in pseudo_rank:
            raise PersistenceError(
                f"shard {shard_id}: boundary node {g} is not a pseudo "
                f"object of the shard index"
            )
    # Objects always occupy the pseudo prefix in dataset-rank order.
    for position, (_rank, node) in enumerate(obj_pairs):
        if pseudo_rank.get(node) != position:
            raise PersistenceError(
                f"shard {shard_id}: object node {node} is not at pseudo "
                f"rank {position} of the shard index"
            )
    return ShardState(
        shard_id=shard_id,
        global_nodes=global_nodes,
        local_of=local_of,
        pseudo_global=pseudo_global,
        pseudo_rank=pseudo_rank,
        obj_global_ranks=np.array(
            [rank for rank, _ in obj_pairs], dtype=np.int64
        ),
        obj_pseudo_ranks=np.arange(len(obj_pairs), dtype=np.int64),
        obj_local_nodes=np.array(
            [local_of[node] for _, node in obj_pairs], dtype=np.int64
        ),
        boundary_global=[int(g) for g in boundary_global],
        boundary_set={int(g) for g in boundary_global},
        boundary_pseudo=np.array(
            [pseudo_rank[int(g)] for g in boundary_global], dtype=np.int64
        ),
        index=shard_index,
    )


def load_sharded_index(directory: str | Path, meta: dict[str, str]):
    """Load a v3 directory; called by
    :func:`repro.core.persistence.load_index` after magic dispatch."""
    from repro.core.persistence import load_index, saved_query_engine
    from repro.shard.sharded import ShardedSignatureIndex

    directory = Path(directory)
    network = load_network(directory / "network.txt")
    dataset = load_dataset(directory / "dataset.txt")
    boundaries = [float(tok) for tok in meta["boundaries"].split()]
    partition = CategoryPartition(boundaries)
    manifest = _read_manifest(directory)
    assignment = np.load(directory / _ASSIGNMENT)
    if assignment.size != network.num_nodes:
        raise PersistenceError(
            f"{directory}: assignment covers {assignment.size} nodes but "
            f"the network has {network.num_nodes}"
        )
    num_shards = int(manifest["num_shards"])
    if int(meta.get("shards", num_shards)) != num_shards:
        raise PersistenceError(
            f"{directory}: meta.txt says {meta.get('shards')} shards but "
            f"{_MANIFEST} says {num_shards}"
        )
    node_partition = NetworkPartition(
        num_parts=num_shards, assignment=assignment
    )
    shards = []
    for shard_id, entry in enumerate(manifest["shards"]):
        shard_index = None
        if not entry.get("empty", False):
            shard_index = load_index(directory / entry["dir"])
            if shard_index.partition != partition:
                raise PersistenceError(
                    f"{directory}: shard {shard_id} was saved with a "
                    f"different category partition than the coordinator"
                )
        shards.append(
            _shard_state_from(
                shard_id, assignment, dataset, shard_index,
                entry.get("boundary", []),
            )
        )
    return ShardedSignatureIndex(
        network,
        dataset,
        partition,
        node_partition,
        shards,
        drop_last_category_pairs=meta.get("drop_last", "1") == "1",
        stored_kind=meta.get("encoding", "compressed"),
        query_engine=saved_query_engine(directory, meta),
        knn_refine=meta.get("knn_refine", "pruned"),
    )


@dataclass
class ShardWorkerState:
    """What one shard worker process holds: its shard index (mmap-backed)
    plus just enough global bookkeeping to route and replay updates."""

    shard_id: int
    index: object
    assignment: np.ndarray
    global_nodes: np.ndarray
    local_of: dict[int, int]
    #: Global node -> pseudo rank of the shard index; grows with §5.4
    #: boundary promotions replayed from the update log.
    pseudo_rank: dict[int, int]

    def in_shard(self, node: int) -> bool:
        return 0 <= node < self.assignment.size and (
            int(self.assignment[node]) == self.shard_id
        )


def load_shard_worker(
    directory: str | Path, shard_id: int
) -> ShardWorkerState:
    """Load *one* shard of a v3 directory — the per-worker footprint.

    Maps only ``shard-NNNN/`` (plus the small assignment vector), so a
    worker's resident memory is the shard's ~1/K slice of the index, not
    the whole thing.
    """
    from repro.core.persistence import load_index

    directory = Path(directory)
    lines = (directory / "meta.txt").read_text().splitlines()
    magic = lines[0] if lines else ""
    if magic != MAGIC_V3:
        raise PersistenceError(
            f"{directory}: not a sharded (v3) index directory "
            f"(found magic {magic!r})",
            magic=magic,
        )
    manifest = _read_manifest(directory)
    if not 0 <= shard_id < int(manifest["num_shards"]):
        raise PersistenceError(
            f"{directory}: shard {shard_id} out of range "
            f"(index has {manifest['num_shards']} shards)"
        )
    entry = manifest["shards"][shard_id]
    if entry.get("empty", False):
        raise PersistenceError(
            f"{directory}: shard {shard_id} has no signature index"
        )
    assignment = np.load(directory / _ASSIGNMENT)
    index = load_index(directory / entry["dir"])
    global_nodes = np.flatnonzero(assignment == shard_id)
    local_of = {int(g): i for i, g in enumerate(global_nodes)}
    pseudo_rank = {
        int(global_nodes[local]): p for p, local in enumerate(index.dataset)
    }
    return ShardWorkerState(
        shard_id=shard_id,
        index=index,
        assignment=assignment,
        global_nodes=global_nodes,
        local_of=local_of,
        pseudo_rank=pseudo_rank,
    )
