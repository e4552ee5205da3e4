"""Format v3 persistence: roundtrips, magic dispatch, per-shard loads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SignatureIndex, load_index, save_index
from repro.errors import IndexError_, PersistenceError
from repro.network import random_planar_network, uniform_dataset
from repro.shard import (
    MAGIC_V3,
    ShardedSignatureIndex,
    load_shard_worker,
)


@pytest.fixture(scope="module")
def built():
    network = random_planar_network(300, seed=42)
    dataset = uniform_dataset(network, density=0.04, seed=7)
    sharded = ShardedSignatureIndex.build(
        network, dataset, num_shards=4, backend="scipy"
    )
    mono = SignatureIndex.build(network, dataset, backend="scipy")
    return network, dataset, sharded, mono


def _assert_same_answers(a, b, nodes=(0, 17, 42, 99, 250)):
    for node in nodes:
        assert a.range_query(node, 40.0, with_distances=True) == (
            b.range_query(node, 40.0, with_distances=True)
        )
        assert a.knn(node, 5) == b.knn(node, 5)


class TestV3Roundtrip:
    def test_roundtrip_preserves_answers(self, built, tmp_path):
        _, _, sharded, _ = built
        save_index(sharded, tmp_path / "idx")  # auto-dispatches to v3
        loaded = load_index(tmp_path / "idx")
        assert isinstance(loaded, ShardedSignatureIndex)
        assert loaded.num_shards == sharded.num_shards
        assert np.array_equal(loaded.assignment, sharded.assignment)
        assert np.array_equal(loaded.boundary, sharded.boundary)
        assert np.array_equal(loaded.D, sharded.D)
        _assert_same_answers(loaded, sharded)
        loaded.verify(sample_nodes=8)

    def test_meta_magic_is_v3(self, built, tmp_path):
        _, _, sharded, _ = built
        save_index(sharded, tmp_path / "idx")
        first = (tmp_path / "idx" / "meta.txt").read_text().splitlines()[0]
        assert first == MAGIC_V3

    def test_shard_subdir_loads_standalone_as_v2(self, built, tmp_path):
        """Each shard-NNNN/ is a complete v2 index in its own right."""
        _, _, sharded, _ = built
        save_index(sharded, tmp_path / "idx")
        for shard in sharded.shards:
            if shard.index is None:
                continue
            sub = load_index(
                tmp_path / "idx" / f"shard-{shard.shard_id:04d}"
            )
            assert np.array_equal(
                sub.trees.distances, shard.index.trees.distances
            )
            assert list(sub.dataset) == list(shard.index.dataset)

    def test_roundtrip_then_update_still_exact(self, built, tmp_path):
        network, dataset, sharded, _ = built
        save_index(sharded, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        mono = SignatureIndex.build(
            network.copy(), dataset, backend="scipy", keep_trees=True
        )
        edge = next(iter(network.edges()))
        deltas = [("set_weight", edge.u, edge.v, edge.weight * 4.0)]
        loaded.apply_updates(deltas)
        mono.apply_updates(deltas)
        _assert_same_answers(loaded, mono)

    def test_pre_columnar_meta_loads_as_columnar(self, built, tmp_path):
        """A v3 snapshot whose metas say ``query_engine vectorized`` and
        carry a ``decoded_cache`` line loads on the columnar engine."""
        _, _, sharded, mono = built
        save_index(sharded, tmp_path / "idx")
        for meta_path in (tmp_path / "idx").rglob("meta.txt"):
            lines = [
                "query_engine vectorized" if line.startswith("query_engine")
                else line
                for line in meta_path.read_text().splitlines()
            ]
            meta_path.write_text("\n".join(lines + ["decoded_cache 48"]))
        loaded = load_index(tmp_path / "idx")
        assert loaded.query_engine == "columnar"
        assert all(
            shard.index.query_engine == "columnar"
            for shard in loaded.shards
            if shard.index is not None
        )
        _assert_same_answers(loaded, mono)

    def test_v2_monolith_roundtrip_unchanged(self, built, tmp_path):
        """v3 support must not disturb the existing monolith path."""
        _, _, _, mono = built
        save_index(mono, tmp_path / "mono")  # auto -> v2
        loaded = load_index(tmp_path / "mono")
        assert not hasattr(loaded, "shards")
        _assert_same_answers(loaded, mono)


class TestMagicDispatch:
    def test_future_magic_raises_typed_error(self, built, tmp_path):
        _, _, sharded, _ = built
        save_index(sharded, tmp_path / "idx")
        meta = tmp_path / "idx" / "meta.txt"
        lines = meta.read_text().splitlines()
        lines[0] = "repro-signature-index 9"
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError) as excinfo:
            load_index(tmp_path / "idx")
        assert excinfo.value.magic == "repro-signature-index 9"
        assert "repro-signature-index 9" in str(excinfo.value)

    def test_garbage_magic_raises_typed_error(self, tmp_path):
        (tmp_path / "meta.txt").write_text("hello world\n")
        with pytest.raises(PersistenceError) as excinfo:
            load_index(tmp_path)
        assert excinfo.value.magic == "hello world"

    def test_missing_meta_raises(self, tmp_path):
        with pytest.raises(PersistenceError, match="no meta.txt"):
            load_index(tmp_path / "nothing-here")

    def test_persistence_error_is_an_index_error(self):
        # Callers catching the historical IndexError_ keep working.
        assert issubclass(PersistenceError, IndexError_)


class TestFormatRefusals:
    def test_sharded_refuses_v1_and_v2(self, built, tmp_path):
        _, _, sharded, _ = built
        for fmt in (1, 2):
            with pytest.raises(IndexError_, match="format 3"):
                save_index(sharded, tmp_path / "x", format=fmt)

    def test_monolith_refuses_v3(self, built, tmp_path):
        _, _, _, mono = built
        with pytest.raises(IndexError_, match="monolithic"):
            save_index(mono, tmp_path / "x", format=3)

    def test_unknown_format_rejected(self, built, tmp_path):
        _, _, _, mono = built
        with pytest.raises(IndexError_, match="unknown index format"):
            save_index(mono, tmp_path / "x", format=7)


class TestShardWorkerLoad:
    def test_loads_single_shard_only(self, built, tmp_path):
        _, _, sharded, _ = built
        save_index(sharded, tmp_path / "idx")
        for shard in sharded.shards:
            if shard.index is None:
                continue
            worker = load_shard_worker(tmp_path / "idx", shard.shard_id)
            assert worker.shard_id == shard.shard_id
            assert np.array_equal(
                worker.index.trees.distances, shard.index.trees.distances
            )
            assert np.array_equal(worker.global_nodes, shard.global_nodes)
            assert worker.pseudo_rank == shard.pseudo_rank
            assert worker.in_shard(int(shard.global_nodes[0]))

    def test_rejects_bad_shard_id(self, built, tmp_path):
        _, _, sharded, _ = built
        save_index(sharded, tmp_path / "idx")
        with pytest.raises(PersistenceError, match="out of range"):
            load_shard_worker(tmp_path / "idx", 99)

    def test_rejects_v2_directory(self, built, tmp_path):
        _, _, _, mono = built
        save_index(mono, tmp_path / "mono")
        with pytest.raises(PersistenceError) as excinfo:
            load_shard_worker(tmp_path / "mono", 0)
        assert excinfo.value.magic == "repro-signature-index 2"


class TestCorruptManifests:
    def test_missing_manifest(self, built, tmp_path):
        _, _, sharded, _ = built
        save_index(sharded, tmp_path / "idx")
        (tmp_path / "idx" / "shard-manifest.json").unlink()
        with pytest.raises(PersistenceError, match="shard-manifest.json"):
            load_index(tmp_path / "idx")

    def test_corrupt_manifest(self, built, tmp_path):
        _, _, sharded, _ = built
        save_index(sharded, tmp_path / "idx")
        (tmp_path / "idx" / "shard-manifest.json").write_text("{nope")
        with pytest.raises(PersistenceError, match="corrupt"):
            load_index(tmp_path / "idx")
