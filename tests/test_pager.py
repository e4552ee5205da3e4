"""The simulated page store: placement and access accounting."""

import pytest

from repro.errors import PageOverflowError, StorageError
from repro.storage.buffer import LRUBufferPool
from repro.storage.pager import (
    DEFAULT_PAGE_SIZE,
    PageAccessCounter,
    PagedFile,
    RecordLocation,
)


class TestCounter:
    def test_reads_accumulate(self):
        counter = PageAccessCounter()
        counter.record_read(hit=False)
        counter.record_read(hit=True)
        assert counter.logical_reads == 2
        assert counter.physical_reads == 1

    def test_reset(self):
        counter = PageAccessCounter()
        counter.record_read(hit=False)
        counter.reset()
        assert counter.logical_reads == 0
        assert counter.physical_reads == 0

    def test_checkpoint_deltas(self):
        counter = PageAccessCounter()
        counter.record_read(hit=False)
        counter.checkpoint()
        counter.record_read(hit=False)
        counter.record_read(hit=True)
        assert counter.since_checkpoint() == (2, 1)

    def test_snapshot_is_an_immutable_value(self):
        counter = PageAccessCounter()
        counter.record_read(hit=False)
        snap = counter.snapshot()
        assert (snap.logical, snap.physical) == (1, 1)
        counter.record_read(hit=True)
        # The snapshot is a value, not a view: it does not move.
        assert (snap.logical, snap.physical) == (1, 1)
        delta = counter.delta(snap)
        assert (delta.logical, delta.physical) == (1, 0)

    def test_nested_snapshot_deltas_are_independent(self):
        """Nested readers (tracing spans) each own their reference point."""
        counter = PageAccessCounter()
        outer = counter.snapshot()
        counter.record_read(hit=False)
        inner = counter.snapshot()
        counter.record_read(hit=False)
        counter.record_read(hit=True)
        inner_delta = counter.delta(inner)
        assert (inner_delta.logical, inner_delta.physical) == (2, 1)
        # Reading the inner delta must not disturb the outer one — the
        # regression the single mutable checkpoint slot cannot pass.
        outer_delta = counter.delta(outer)
        assert (outer_delta.logical, outer_delta.physical) == (3, 2)
        # And the legacy checkpoint API keeps working alongside snapshots.
        counter.checkpoint()
        counter.record_read(hit=False)
        assert counter.since_checkpoint() == (1, 1)
        assert counter.delta(outer).logical == 4


class TestPlacementSpanning:
    def test_records_pack_back_to_back(self):
        file = PagedFile("t", page_size=1)  # 8-bit pages
        a = file.append_record("a", 4)
        b = file.append_record("b", 4)
        c = file.append_record("c", 4)
        assert a == RecordLocation(0, 0)
        assert b == RecordLocation(0, 0)
        assert c == RecordLocation(1, 1)  # bits 8..11

    def test_record_spans_pages(self):
        file = PagedFile("t", page_size=1)
        loc = file.append_record("big", 20)  # 2.5 pages
        assert loc == RecordLocation(0, 2)
        assert loc.num_pages == 3

    def test_zero_size_record_addressable(self):
        file = PagedFile("t", page_size=1)
        file.append_record("a", 4)
        loc = file.append_record("empty", 0)
        assert loc.num_pages == 1
        file.read("empty")  # must not raise

    def test_duplicate_key_rejected(self):
        file = PagedFile("t")
        file.append_record("a", 8)
        with pytest.raises(StorageError):
            file.append_record("a", 8)

    def test_negative_size_rejected(self):
        with pytest.raises(StorageError):
            PagedFile("t").append_record("a", -1)

    def test_num_pages_and_size_bytes(self):
        file = PagedFile("t", page_size=4)
        file.append_record("a", 4 * 8 + 1)  # just over one page
        assert file.num_pages == 2
        assert file.size_bytes == 8
        assert file.payload_bits == 33


class TestPlacementNonSpanning:
    def test_record_that_does_not_fit_starts_new_page(self):
        file = PagedFile("t", page_size=1, spanning=False)
        file.append_record("a", 6)
        loc = file.append_record("b", 6)  # 6 bits left only 2 in page 0
        assert loc == RecordLocation(1, 1)

    def test_oversized_record_rejected(self):
        file = PagedFile("t", page_size=1, spanning=False)
        with pytest.raises(PageOverflowError):
            file.append_record("big", 9)

    def test_exact_fit_allowed(self):
        file = PagedFile("t", page_size=1, spanning=False)
        loc = file.append_record("a", 8)
        assert loc == RecordLocation(0, 0)


class TestReading:
    def test_read_touches_all_record_pages(self):
        counter = PageAccessCounter()
        file = PagedFile("t", page_size=1, counter=counter)
        file.append_record("big", 20)
        file.read("big")
        assert counter.logical_reads == 3

    def test_read_unknown_key(self):
        with pytest.raises(StorageError):
            PagedFile("t").read("missing")

    def test_locate_does_not_count(self):
        counter = PageAccessCounter()
        file = PagedFile("t", counter=counter)
        file.append_record("a", 8)
        file.locate("a")
        assert counter.logical_reads == 0

    def test_read_prefix_touches_fraction(self):
        counter = PageAccessCounter()
        file = PagedFile("t", page_size=1, counter=counter)
        file.append_record("big", 80)  # 10 pages
        pages = file.read_prefix("big", 0.3)
        assert pages == 3
        assert counter.logical_reads == 3

    def test_read_prefix_rejects_bad_fraction(self):
        file = PagedFile("t")
        file.append_record("a", 8)
        with pytest.raises(StorageError):
            file.read_prefix("a", 0.0)

    def test_touch_page_counts_one(self):
        counter = PageAccessCounter()
        file = PagedFile("t", counter=counter)
        file.append_record("a", 8)
        file.touch_page(0)
        assert counter.logical_reads == 1

    def test_touch_page_out_of_range(self):
        file = PagedFile("t")
        file.append_record("a", 8)
        with pytest.raises(StorageError):
            file.touch_page(5)

    def test_buffer_pool_hits_counted_separately(self):
        counter = PageAccessCounter()
        pool = LRUBufferPool(capacity=4)
        file = PagedFile("t", counter=counter, buffer_pool=pool)
        file.append_record("a", 8)
        file.read("a")
        file.read("a")
        assert counter.logical_reads == 2
        assert counter.physical_reads == 1

    def test_page_size_must_be_positive(self):
        with pytest.raises(StorageError):
            PagedFile("t", page_size=0)

    def test_default_page_size_is_4k(self):
        assert DEFAULT_PAGE_SIZE == 4096


def _three_record_file(**kwargs) -> PagedFile:
    """One-byte pages holding a one-page record, a record spanning three
    pages and an empty (0-bit) record."""
    file = PagedFile("t", page_size=1, **kwargs)
    file.append_record("one", 8)
    file.append_record("span", 20)
    file.append_record("empty", 0)
    return file


class TestReadCounting:
    """``read`` charges exactly what touching each page in turn charges."""

    @pytest.mark.parametrize(
        "key,pages", [("one", 1), ("span", 3), ("empty", 1)]
    )
    def test_without_pool_adds_num_pages_to_both_counters(self, key, pages):
        counter = PageAccessCounter(logical_reads=5, physical_reads=2)
        file = _three_record_file(counter=counter)
        location = file.read(key)
        assert location.num_pages == pages
        assert counter.logical_reads == 5 + pages
        assert counter.physical_reads == 2 + pages

    def test_pool_hits_and_misses_equal_the_per_page_path(self):
        sequence = ["span", "one", "span", "empty", "one", "span", "empty"]
        whole = _three_record_file(
            counter=PageAccessCounter(), buffer_pool=LRUBufferPool(2)
        )
        paged = _three_record_file(
            counter=PageAccessCounter(), buffer_pool=LRUBufferPool(2)
        )
        for key in sequence:
            whole.read(key)
            location = paged.locate(key)
            for page in range(location.first_page, location.last_page + 1):
                paged.touch_page(page)
        assert whole.counter.snapshot() == paged.counter.snapshot()
        assert whole.buffer_pool.snapshot() == paged.buffer_pool.snapshot()
        assert whole.counter.logical_reads == 13
        assert 0 < whole.buffer_pool.hits < whole.counter.logical_reads
