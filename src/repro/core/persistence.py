"""On-disk persistence of a signature index — the storage schema, for real.

The rest of the library *sizes* signatures in bits and simulates their
pages; this module actually materializes them: every node's signature is
serialized with the §5.2 bit layout — reverse-zero-padding category codes
plus fixed-width backtracking links, with the §5.3 compression flags when
present — and read back losslessly.  It both proves the size accounting
honest (the emitted stream's length equals ``SignatureTable.total_bits``)
and gives the library a practical save/load path.

File layout (version 1, all integers little-endian unless noted):

```
repro-signature-index 1
partition <c?> <boundaries...>        # text header lines
objects <node ids...>
maxdeg <R>
encoding <raw|encoded|compressed>
bits <total payload bits>
<raw bytes of the bit stream>         # after a blank line
```

The network itself is stored alongside via :mod:`repro.network.io`.

Version 2 (the default since the columnar store landed) replaces the bit
stream with :class:`repro.core.columnar.ColumnarSignatureStore`'s raw
array files under ``columnar/`` — categories, links, compression flags
and bases, the partition-boundary and object-rank vectors, the object
distance table, and (when present) the §5.4 spanning trees — described
by a ``manifest.json``.  ``meta.txt`` keeps the same key-value layout
with magic line ``repro-signature-index 2``.  Loading v2 is ``np.memmap``
in copy-on-write mode: O(1) and zero-copy where v1 pays a Python loop
per component plus one Dijkstra per object, while updates still work on
the loaded index (private pages, the snapshot is never mutated).  Both
versions load transparently through :func:`load_index`; ``repro
compact`` migrates a v1 directory in place.

Version 3 stored a sharded index, which this build no longer has; its
magic stays registered so such a directory fails with a typed
:class:`~repro.errors.PersistenceError` telling the user to rebuild.
:func:`load_index` dispatches by magic line.  Directories with an
unrecognized or future magic raise the same error type carrying the
found magic.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from repro.core.categories import CategoryPartition
from repro.core.encoding import BitReader, BitWriter, rzp_code
from repro.core.signature import LINK_HERE, LINK_NONE, SignatureTable
from repro.errors import EncodingError, IndexError_, PersistenceError
from repro.network.datasets import ObjectDataset
from repro.network.graph import RoadNetwork
from repro.network.io import load_network, save_network
from repro.storage.layout import bits_for_values

logger = logging.getLogger("repro.core.persistence")

__all__ = [
    "serialize_table",
    "deserialize_table",
    "save_index",
    "load_index",
    "register_format",
    "register_backend_io",
    "registered_magics",
]

_MAGIC = "repro-signature-index 1"
_MAGIC_V2 = "repro-signature-index 2"
_MAGIC_V3 = "repro-signature-index 3"

# Magic line -> loader(directory, meta).  Built-in formats register at
# the bottom of this module; backend families (repro.backends) register
# theirs on import, which load_index/save_index trigger lazily — new
# backends extend the dispatch (and the unrecognized-magic error text)
# without this module naming them.
_FORMAT_LOADERS: dict = {}

# backend_name -> saver(index, directory), for indexes that own their
# whole on-disk layout (anything carrying a ``backend_name`` attribute).
_BACKEND_SAVERS: dict = {}


def register_format(magic: str, loader) -> None:
    """Register ``loader(directory, meta) -> index`` for a magic line."""
    _FORMAT_LOADERS[magic] = loader


def register_backend_io(backend_name: str, magic: str, saver, loader) -> None:
    """Register a backend family's save/load pair.

    ``saver(index, directory)`` persists an index whose ``backend_name``
    matches; ``loader(directory, meta)`` restores a directory whose
    meta.txt opens with ``magic``.
    """
    _BACKEND_SAVERS[backend_name] = saver
    register_format(magic, loader)


def registered_magics() -> list[str]:
    """Every magic line this build can load, sorted."""
    _ensure_backend_formats()
    return sorted(_FORMAT_LOADERS)


def _ensure_backend_formats() -> None:
    # Importing the package runs its persistence registrations; lazy so
    # core carries no import-time dependency on the backend families.
    import repro.backends.persistence  # noqa: F401

# Links are stored shifted by 2 so the sentinels (-1 "here", -2 "none")
# fit an unsigned field alongside adjacency positions 0..R-1.
_LINK_SHIFT = 2


def _link_bits(max_degree: int) -> int:
    return bits_for_values(max(max_degree, 1) + _LINK_SHIFT)


def serialize_table(table: SignatureTable, *, encoding: str = "compressed") -> bytes:
    """Emit the whole signature table as its on-disk bit stream.

    ``encoding`` selects the §5.2/§5.3 representation:

    * ``"raw"`` — fixed-width category ids + links;
    * ``"encoded"`` — reverse-zero-padding codes + links;
    * ``"compressed"`` — a flag bit per component; flagged components
      store only their link (their category is recovered by the Def 5.1
      summation at load time — the table must carry valid ``compressed``
      flags and ``bases``).

    Returns the packed bytes; the exact bit length is
    ``table.total_bits(encoding)``, which callers should persist to strip
    the final byte's padding on read.
    """
    if encoding not in ("raw", "encoded", "compressed"):
        raise IndexError_(f"unknown signature encoding {encoding!r}")
    partition = table.partition
    m = partition.num_categories
    cat_bits = bits_for_values(m + 1)  # +1 for the unreachable sentinel
    link_bits = _link_bits(table.max_degree)
    writer = BitWriter()
    for node in range(table.num_nodes):
        cats = table.categories[node]
        links = table.links[node]
        flags = table.compressed[node]
        for rank in range(table.num_objects):
            if encoding == "compressed":
                writer.write_bits("1" if flags[rank] else "0")
                if not flags[rank]:
                    writer.write_bits(rzp_code(int(cats[rank]), m))
            elif encoding == "encoded":
                writer.write_bits(rzp_code(int(cats[rank]), m))
            else:
                writer.write_uint(int(cats[rank]), cat_bits)
            writer.write_uint(int(links[rank]) + _LINK_SHIFT, link_bits)
    return writer.getvalue()


def deserialize_table(
    data: bytes,
    bit_length: int,
    partition: CategoryPartition,
    num_nodes: int,
    num_objects: int,
    max_degree: int,
    *,
    encoding: str = "compressed",
) -> SignatureTable:
    """Rebuild a :class:`SignatureTable` from its serialized bit stream.

    For ``"compressed"`` streams the flagged components come back with a
    placeholder category and their ``compressed`` flag set; callers must
    resolve them against the object distance table (exactly what the
    in-memory index does) or call
    :func:`repro.core.compression.compress_table` consumers accordingly.
    :func:`load_index` handles this automatically.
    """
    if encoding not in ("raw", "encoded", "compressed"):
        raise IndexError_(f"unknown signature encoding {encoding!r}")
    m = partition.num_categories
    cat_bits = bits_for_values(m + 1)
    link_bits = _link_bits(max_degree)
    reader = BitReader(data, bit_length)
    categories = np.zeros((num_nodes, num_objects), dtype=np.int16)
    links = np.zeros((num_nodes, num_objects), dtype=np.int32)
    flags = np.zeros((num_nodes, num_objects), dtype=bool)
    for node in range(num_nodes):
        for rank in range(num_objects):
            if encoding == "compressed":
                flagged = reader.read_bit() == "1"
                flags[node, rank] = flagged
                category = 0 if flagged else reader.read_rzp(m)
            elif encoding == "encoded":
                category = reader.read_rzp(m)
            else:
                category = reader.read_uint(cat_bits)
            link = reader.read_uint(link_bits) - _LINK_SHIFT
            if link < LINK_NONE:
                raise EncodingError(
                    f"invalid link {link} at node {node} rank {rank}"
                )
            categories[node, rank] = category
            links[node, rank] = link
    if reader.remaining:
        raise EncodingError(
            f"{reader.remaining} unread bits after deserializing the table"
        )
    table = SignatureTable(partition, categories, links, max_degree)
    table.compressed = flags
    return table


def save_index(index, directory: str | Path, *, format: int | None = None) -> None:
    """Persist a distance index to a directory.

    ``format=None`` (default) picks format 2 for a
    :class:`~repro.core.index.SignatureIndex`.

    ``format=2`` writes the columnar array files under ``columnar/`` —
    including the object distance table and, when the index was built
    with ``keep_trees=True``, the §5.4 spanning trees — for O(1) mmap
    loading.  ``format=1`` writes the legacy §5.2 bit stream
    (``signatures.bin``); v1 never persists trees and its load path
    recomputes the object table from the network.

    Indexes from the alternate backend families (``repro.backends`` —
    anything with a ``backend_name``) own their whole on-disk layout;
    they dispatch to their registered saver and reject an explicit
    ``format=`` (the numeric formats describe signature layouts only).
    """
    _ensure_backend_formats()
    backend = getattr(index, "backend_name", None)
    if backend in _BACKEND_SAVERS:
        if format is not None:
            raise IndexError_(
                f"the {backend!r} backend owns its on-disk format; "
                f"omit format= when saving it"
            )
        _BACKEND_SAVERS[backend](index, directory)
        return
    if format is None:
        format = 2
    if format not in (1, 2):
        raise IndexError_(f"unknown index format {format!r}; use 1 or 2")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_network(index.network, directory / "network.txt")
    from repro.network.io import save_dataset

    save_dataset(index.dataset, directory / "dataset.txt")
    encoding = index.stored_kind
    meta = [
        _MAGIC if format == 1 else _MAGIC_V2,
        "boundaries " + " ".join(repr(b) for b in index.partition.boundaries),
        f"maxdeg {index.table.max_degree}",
        f"encoding {encoding}",
        f"drop_last {int(index.object_table._drop_last_category)}",
        f"query_engine {index.query_engine}",
    ]
    if format == 1:
        payload = serialize_table(index.table, encoding=encoding)
        writer_bits = _count_bits(index.table, encoding)
        (directory / "signatures.bin").write_bytes(payload)
        meta.insert(4, f"bits {writer_bits}")
    else:
        index.columnar.save(directory / "columnar")
        # A v2 directory has no bit stream; drop a stale one left behind
        # by a previous v1 save (the `repro compact` migration path).
        (directory / "signatures.bin").unlink(missing_ok=True)
    (directory / "meta.txt").write_text("\n".join(meta) + "\n")


def _count_bits(table: SignatureTable, encoding: str) -> int:
    """Exact bit length of :func:`serialize_table`'s output."""
    m = table.partition.num_categories
    cat_bits = bits_for_values(m + 1)
    link_bits = _link_bits(table.max_degree)
    n, d = table.num_nodes, table.num_objects
    if encoding == "raw":
        return n * d * (cat_bits + link_bits)
    cats = table.categories
    code_lengths = np.where(cats == m, m, m - cats).astype(np.int64)
    if encoding == "encoded":
        return int(code_lengths.sum()) + n * d * link_bits
    code_lengths = np.where(table.compressed, 0, code_lengths)
    return int(code_lengths.sum()) + n * d * (1 + link_bits)


def load_index(directory: str | Path):
    """Load an index persisted by :func:`save_index` (either format).

    Version 2 directories memory-map their arrays (copy-on-write): the
    load is O(1), the object distance table and — when persisted — the
    §5.4 spanning trees come back verbatim, and several processes
    loading the same directory share one page-cache copy.  Version 1
    recomputes the object table from the network (one Dijkstra per
    object) and resolves compressed components component by component.
    """
    directory = Path(directory)
    meta_path = directory / "meta.txt"
    if not meta_path.exists():
        raise PersistenceError(
            f"{directory}: not a saved index (no meta.txt)"
        )
    lines = meta_path.read_text().splitlines()
    magic = lines[0] if lines else ""
    _ensure_backend_formats()
    loader = _FORMAT_LOADERS.get(magic)
    if loader is None:
        known = ", ".join(repr(m) for m in registered_magics())
        raise PersistenceError(
            f"{directory}: unrecognized index format (found magic "
            f"{magic!r}; this build reads {known})",
            magic=magic,
        )
    meta: dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(" ")
        meta[key] = value
    return loader(directory, meta)


def saved_query_engine(directory: Path, meta: dict[str, str]) -> str:
    """The query engine a snapshot's ``meta.txt`` asks for.

    Snapshots predating the always-on columnar store may say
    ``query_engine vectorized`` or carry no engine at all; both load as
    ``"columnar"``.  Their ``decoded_cache`` line is ignored.
    """
    if "decoded_cache" in meta:
        logger.warning(
            "%s: ignoring obsolete decoded_cache setting %r",
            directory, meta["decoded_cache"],
        )
    engine = meta.get("query_engine", "columnar")
    return "columnar" if engine == "vectorized" else engine


def _load_index_v1(directory: Path, meta: dict[str, str]):
    from repro.core.index import SignatureIndex
    from repro.core.signature import ObjectDistanceTable
    from repro.network.io import load_dataset

    network = load_network(directory / "network.txt")
    dataset = load_dataset(directory / "dataset.txt")
    boundaries = [float(tok) for tok in meta["boundaries"].split()]
    partition = CategoryPartition(boundaries)
    max_degree = int(meta["maxdeg"])
    encoding = meta["encoding"]
    bit_length = int(meta["bits"])
    data = (directory / "signatures.bin").read_bytes()
    table = deserialize_table(
        data,
        bit_length,
        partition,
        network.num_nodes,
        len(dataset),
        max_degree,
        encoding=encoding,
    )

    # Rebuild the in-memory object distance table from the network.
    from repro.network.dijkstra import shortest_path_tree

    object_nodes = list(dataset)
    distances = np.zeros((len(dataset), len(dataset)))
    for rank, object_node in enumerate(dataset):
        tree = shortest_path_tree(network, object_node)
        distances[rank] = [tree.distance[obj] for obj in object_nodes]
    object_table = ObjectDistanceTable(
        distances, partition, drop_last_category=meta.get("drop_last") == "1"
    )

    if table.compressed.any():
        # Restore the logical categories of flagged components and the
        # base bookkeeping before the index binds its columnar store, so
        # block reads see logical values and resolution needs no scan.
        from repro.core.compression import _find_base, signature_summation

        table.bases = np.full(table.categories.shape, -1, dtype=np.int32)
        for node, rank in np.argwhere(table.compressed):
            base = _find_base(table, int(node), int(table.links[node, rank]))
            if base < 0:
                raise IndexError_(
                    f"cannot resolve compressed component ({node}, {rank})"
                )
            table.bases[node, rank] = base
            table.categories[node, rank] = signature_summation(
                partition,
                int(table.categories[node, base]),
                object_table.category(base, int(rank)),
            )
    return SignatureIndex(
        network,
        dataset,
        partition,
        table,
        object_table,
        stored_kind=encoding,
        query_engine=saved_query_engine(directory, meta),
    )


def _load_index_v2(directory: Path, meta: dict[str, str]):
    from repro.core.columnar import ColumnarSignatureStore
    from repro.core.index import SignatureIndex
    from repro.core.signature import ObjectDistanceTable
    from repro.core.spanning_tree import ObjectSpanningTrees
    from repro.network.io import load_dataset

    network = load_network(directory / "network.txt")
    dataset = load_dataset(directory / "dataset.txt")
    boundaries = [float(tok) for tok in meta["boundaries"].split()]
    partition = CategoryPartition(boundaries)
    encoding = meta.get("encoding", "compressed")
    store = ColumnarSignatureStore.load(directory / "columnar")

    # Cross-validate the store against the sidecar text files: a mixed-up
    # or partially overwritten directory must fail here, not at query time.
    if store.num_nodes != network.num_nodes:
        raise IndexError_(
            f"{directory}: columnar store holds {store.num_nodes} node "
            f"signatures but the network has {network.num_nodes} nodes"
        )
    if not np.array_equal(store.object_nodes, np.asarray(list(dataset))):
        raise IndexError_(
            f"{directory}: columnar object-rank vector disagrees with "
            f"dataset.txt"
        )
    if not np.array_equal(
        store.boundaries, np.asarray(boundaries, dtype=np.float64)
    ):
        raise IndexError_(
            f"{directory}: columnar boundary vector disagrees with meta.txt"
        )

    table = SignatureTable(
        partition, store.categories, store.links, max_degree=store.max_degree
    )
    table.compressed = store.compressed
    table.bases = store.bases
    object_table = ObjectDistanceTable.from_stored(
        store.object_distances, partition, drop_last_category=store.drop_last
    )
    trees = None
    if store.has_trees:
        trees = ObjectSpanningTrees(
            dataset, store.tree_distances, store.tree_parents
        )
    return SignatureIndex(
        network,
        dataset,
        partition,
        table,
        object_table,
        trees=trees,
        stored_kind=encoding,
        query_engine=saved_query_engine(directory, meta),
    )


def _load_index_v3(directory: Path, meta: dict[str, str]):
    raise PersistenceError(
        f"{directory}: format-3 snapshots hold a sharded index, and "
        f"sharded indexes were removed; rebuild the snapshot with "
        f"`repro build`",
        magic=_MAGIC_V3,
    )


register_format(_MAGIC, _load_index_v1)
register_format(_MAGIC_V2, _load_index_v2)
register_format(_MAGIC_V3, _load_index_v3)
