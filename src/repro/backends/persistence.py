"""On-disk persistence of the CH and hub-label backends.

Each backend owns a magic line and a v2-style layout: the network and
dataset in their text formats, the backend's numpy arrays as raw
little-endian ``.bin`` files under ``arrays/`` described by a
``manifest.json``, and a ``meta.txt`` (written last, so a partial save
never looks loadable) whose first line is the magic.  Loading memory-
maps every array in copy-on-write mode — O(1), zero-copy, and safe to
mutate (rebuild-on-update replaces the arrays wholesale anyway).

Directory layout (``repro-ch-index 1`` shown; hub differs only in which
arrays it stores)::

    network.txt                 # repro-network 2
    dataset.txt                 # repro-dataset 1
    arrays/manifest.json        # {name: {dtype, shape}}
    arrays/<name>.bin           # raw array bytes, exact-size-checked
    meta.txt                    # magic + "key value" lines

Both layouts also carry the hierarchy's repair recording
(:attr:`RepairState.ARRAYS <repro.backends.ch.RepairState.ARRAYS>`), and
the hub layout the upward CSR it was distilled from, so an index loaded
from a snapshot repairs on its first write instead of rebuilding.
Snapshots written before those arrays existed still load; their first
write rebuilds (recording), as it always did.

Every mismatch — missing file, wrong byte count, manifest/meta
disagreement — raises a typed
:class:`~repro.errors.PersistenceError` at load time, not a numpy
error at query time.

Importing this module registers both formats with
:func:`repro.core.persistence.register_backend_io`, which is how
``save_index``/``load_index`` (and their error messages) learn about
them without core naming any backend.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from repro.backends.base import BucketLists
from repro.backends.ch import (
    WITNESS_SETTLE_CAP,
    CHIndex,
    ContractionHierarchy,
    RepairState,
)
from repro.backends.hub_labels import HubLabelIndex
from repro.core.categories import CategoryPartition
from repro.core.persistence import register_backend_io
from repro.core.signature import ObjectDistanceTable
from repro.errors import PersistenceError
from repro.network.io import (
    load_dataset,
    load_network,
    save_dataset,
    save_network,
)

__all__ = [
    "CH_MAGIC",
    "HUB_MAGIC",
    "save_ch_index",
    "load_ch_index",
    "save_hub_index",
    "load_hub_index",
]

CH_MAGIC = "repro-ch-index 1"
HUB_MAGIC = "repro-hub-index 1"


def _write_arrays(directory: Path, arrays: dict[str, np.ndarray]) -> None:
    arrays_dir = directory / "arrays"
    arrays_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, dict] = {}
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        tmp = arrays_dir / f"{name}.bin.tmp"
        tmp.write_bytes(array.tobytes())
        tmp.replace(arrays_dir / f"{name}.bin")
        manifest[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
        }
    tmp = arrays_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    tmp.replace(arrays_dir / "manifest.json")


def _read_arrays(
    directory: Path,
    expected: tuple[str, ...],
    optional: tuple[str, ...] = (),
) -> dict[str, np.ndarray]:
    """Map the ``expected`` arrays, plus whichever ``optional`` ones the
    manifest lists."""
    arrays_dir = directory / "arrays"
    manifest_path = arrays_dir / "manifest.json"
    if not manifest_path.exists():
        raise PersistenceError(
            f"{directory}: backend index has no arrays/manifest.json"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise PersistenceError(
            f"{directory}: corrupt arrays/manifest.json ({exc})"
        ) from None
    missing = sorted(set(expected) - set(manifest))
    if missing:
        raise PersistenceError(
            f"{directory}: manifest lacks required arrays {missing}"
        )
    out: dict[str, np.ndarray] = {}
    for name in expected + tuple(n for n in optional if n in manifest):
        spec = manifest[name]
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(dim) for dim in spec["shape"])
        path = arrays_dir / f"{name}.bin"
        if not path.exists():
            raise PersistenceError(f"{directory}: missing array file {name}.bin")
        nbytes = dtype.itemsize * math.prod(shape)
        actual = path.stat().st_size
        if actual != nbytes:
            raise PersistenceError(
                f"{directory}: {name}.bin holds {actual} bytes but the "
                f"manifest promises {nbytes} ({dtype}, shape {shape})"
            )
        if nbytes == 0:
            out[name] = np.zeros(shape, dtype=dtype)
        else:
            out[name] = np.memmap(path, dtype=dtype, mode="c", shape=shape)
    return out


def _save_common(index, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_network(index.network, directory / "network.txt")
    save_dataset(index.dataset, directory / "dataset.txt")
    return directory


def _write_meta(directory: Path, magic: str, index, extra: list[str]) -> None:
    lines = [
        magic,
        "boundaries "
        + " ".join(repr(b) for b in index.partition.boundaries),
        *extra,
    ]
    (directory / "meta.txt").write_text("\n".join(lines) + "\n")


def _load_common(directory: Path, meta: dict[str, str]):
    network = load_network(directory / "network.txt")
    dataset = load_dataset(directory / "dataset.txt")
    boundaries = [float(tok) for tok in meta.get("boundaries", "").split()]
    partition = CategoryPartition(boundaries)
    return network, dataset, partition


def _object_table(arrays, partition, num_objects: int, directory: Path):
    distances = np.asarray(arrays["object_distances"], dtype=np.float64)
    if distances.shape != (num_objects, num_objects):
        raise PersistenceError(
            f"{directory}: object_distances is {distances.shape} but "
            f"dataset.txt lists {num_objects} objects"
        )
    return ObjectDistanceTable.from_stored(
        distances, partition, drop_last_category=False
    )


_BUCKET_ARRAYS = ("bucket_indptr", "bucket_ranks", "bucket_dists")


def _buckets_from(arrays, num_nodes: int, directory: Path) -> BucketLists:
    indptr = arrays["bucket_indptr"]
    if len(indptr) != num_nodes + 1:
        raise PersistenceError(
            f"{directory}: bucket_indptr has {len(indptr)} entries for a "
            f"{num_nodes}-node network"
        )
    return BucketLists(
        indptr, arrays["bucket_ranks"], arrays["bucket_dists"]
    )


_UP_ARRAYS = ("up_indptr", "up_targets", "up_weights")


def _repair_arrays(hierarchy: ContractionHierarchy | None) -> dict:
    """The repair recording's arrays, or none when there is nothing to
    record (a hierarchy loaded from an older snapshot)."""
    if hierarchy is None or hierarchy.repair_state is None:
        return {}
    return hierarchy.repair_state.to_arrays()


def _hierarchy_from(
    arrays, order, num_nodes: int, meta, directory: Path
) -> ContractionHierarchy | None:
    """The stored hierarchy, with its repair recording when present.

    Returns ``None`` when the snapshot stores no upward CSR (older hub
    snapshots).  A partial set of upward or recording arrays is a
    corrupt snapshot, not an old one.
    """
    stored = {
        name for name in _UP_ARRAYS + RepairState.ARRAYS if name in arrays
    }
    if not stored:
        return None
    if stored not in (set(_UP_ARRAYS), set(_UP_ARRAYS + RepairState.ARRAYS)):
        raise PersistenceError(
            f"{directory}: incomplete hierarchy arrays {sorted(stored)}"
        )
    indptr = arrays["up_indptr"]
    if (
        len(indptr) != num_nodes + 1
        or len(arrays["up_targets"]) != int(indptr[-1])
        or len(arrays["up_weights"]) != int(indptr[-1])
    ):
        raise PersistenceError(
            f"{directory}: upward CSR does not describe a {num_nodes}-node "
            f"network"
        )
    hierarchy = ContractionHierarchy(
        order,
        indptr,
        arrays["up_targets"],
        arrays["up_weights"],
        int(meta.get("num_shortcuts", 0)),
    )
    # Older snapshots predate the settle_cap meta line; default to the
    # historical constant.  Some also record the worker count of a
    # parallel build; like any unknown meta key, that line is ignored.
    hierarchy.settle_cap = int(meta.get("settle_cap", WITNESS_SETTLE_CAP))
    if RepairState.ARRAYS[0] in arrays:
        try:
            hierarchy.repair_state = RepairState.from_arrays(
                arrays, num_nodes
            )
        except ValueError as exc:
            raise PersistenceError(f"{directory}: {exc}") from None
    return hierarchy


def _object_entries_from(buckets: BucketLists, num_objects: int) -> list:
    """Per-object ``(hubs, dists)`` in dataset-rank order, read back out
    of the bucket CSR — the exact inverse of :meth:`BucketLists.build`
    (each object's entries come out hub-sorted, as they went in)."""
    hubs = np.repeat(
        np.arange(len(buckets.indptr) - 1, dtype=np.int32),
        np.diff(buckets.indptr),
    )
    by_rank = np.argsort(buckets.ranks, kind="stable")
    hubs = hubs[by_rank]
    dists = np.asarray(buckets.dists)[by_rank]
    bounds = np.searchsorted(
        np.asarray(buckets.ranks)[by_rank], np.arange(num_objects + 1)
    )
    return [
        (hubs[bounds[r]:bounds[r + 1]], dists[bounds[r]:bounds[r + 1]])
        for r in range(num_objects)
    ]


# ----------------------------------------------------------------------
# contraction hierarchy (repro-ch-index 1)
# ----------------------------------------------------------------------
def save_ch_index(index: CHIndex, directory: str | Path) -> None:
    """Persist a :class:`~repro.backends.ch.CHIndex` directory."""
    directory = _save_common(index, directory)
    hierarchy = index.hierarchy
    _write_arrays(
        directory,
        {
            "order": hierarchy.order,
            "up_indptr": hierarchy.up_indptr,
            "up_targets": hierarchy.up_targets,
            "up_weights": hierarchy.up_weights,
            "bucket_indptr": index.buckets.indptr,
            "bucket_ranks": index.buckets.ranks,
            "bucket_dists": index.buckets.dists,
            "object_distances": index.object_table.matrix_view(),
            **_repair_arrays(hierarchy),
        },
    )
    _write_meta(
        directory, CH_MAGIC, index,
        [
            f"num_shortcuts {hierarchy.num_shortcuts}",
            f"settle_cap {index.settle_cap}",
        ],
    )


def load_ch_index(directory: Path, meta: dict[str, str]) -> CHIndex:
    """Restore a ``repro-ch-index 1`` directory (mmap, copy-on-write)."""
    directory = Path(directory)
    network, dataset, partition = _load_common(directory, meta)
    arrays = _read_arrays(
        directory,
        ("order",) + _UP_ARRAYS + _BUCKET_ARRAYS + ("object_distances",),
        optional=RepairState.ARRAYS,
    )
    if len(arrays["order"]) != network.num_nodes:
        raise PersistenceError(
            f"{directory}: contraction order covers {len(arrays['order'])} "
            f"nodes but the network has {network.num_nodes}"
        )
    hierarchy = _hierarchy_from(
        arrays, arrays["order"], network.num_nodes, meta, directory
    )
    buckets = _buckets_from(arrays, network.num_nodes, directory)
    return CHIndex(
        network,
        dataset,
        hierarchy,
        partition,
        _object_table(arrays, partition, len(dataset), directory),
        buckets,
        settle_cap=hierarchy.settle_cap,
        object_entries=(
            _object_entries_from(buckets, len(dataset))
            if hierarchy.repair_state is not None
            else None
        ),
    )


# ----------------------------------------------------------------------
# hub labels (repro-hub-index 1)
# ----------------------------------------------------------------------
def save_hub_index(index: HubLabelIndex, directory: str | Path) -> None:
    """Persist a :class:`~repro.backends.hub_labels.HubLabelIndex`."""
    directory = _save_common(index, directory)
    hierarchy = index.hierarchy
    extra_meta = []
    arrays = _repair_arrays(hierarchy)
    if arrays:
        arrays.update(
            up_indptr=hierarchy.up_indptr,
            up_targets=hierarchy.up_targets,
            up_weights=hierarchy.up_weights,
        )
        extra_meta.append(f"num_shortcuts {hierarchy.num_shortcuts}")
    _write_arrays(
        directory,
        {
            "order": index.order,
            "label_indptr": index.label_indptr,
            "label_hubs": index.label_hubs,
            "label_dists": index.label_dists,
            "bucket_indptr": index.buckets.indptr,
            "bucket_ranks": index.buckets.ranks,
            "bucket_dists": index.buckets.dists,
            "object_distances": index.object_table.matrix_view(),
            **arrays,
        },
    )
    _write_meta(
        directory, HUB_MAGIC, index,
        [f"settle_cap {index.settle_cap}", *extra_meta],
    )


def load_hub_index(directory: Path, meta: dict[str, str]) -> HubLabelIndex:
    """Restore a ``repro-hub-index 1`` directory (mmap, copy-on-write)."""
    directory = Path(directory)
    network, dataset, partition = _load_common(directory, meta)
    arrays = _read_arrays(
        directory,
        ("order", "label_indptr", "label_hubs", "label_dists")
        + _BUCKET_ARRAYS
        + ("object_distances",),
        optional=_UP_ARRAYS + RepairState.ARRAYS,
    )
    if len(arrays["label_indptr"]) != network.num_nodes + 1:
        raise PersistenceError(
            f"{directory}: label_indptr has {len(arrays['label_indptr'])} "
            f"entries for a {network.num_nodes}-node network"
        )
    hierarchy = _hierarchy_from(
        arrays, arrays["order"], network.num_nodes, meta, directory
    )
    return HubLabelIndex(
        network,
        dataset,
        arrays["order"],
        arrays["label_indptr"],
        arrays["label_hubs"],
        arrays["label_dists"],
        partition,
        _object_table(arrays, partition, len(dataset), directory),
        _buckets_from(arrays, network.num_nodes, directory),
        settle_cap=int(meta.get("settle_cap", WITNESS_SETTLE_CAP)),
        hierarchy=hierarchy,
    )


register_backend_io("ch", CH_MAGIC, save_ch_index, load_ch_index)
register_backend_io("hub", HUB_MAGIC, save_hub_index, load_hub_index)
