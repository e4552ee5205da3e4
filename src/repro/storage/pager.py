"""Simulated disk pages with access accounting.

The paper's evaluation metric is "the number of disk page accesses" on
4 KB pages (§6), with nodes, adjacency lists and signatures packed by the
connectivity-clustered access method (CCAM [12]).  This module simulates
exactly that storage layer:

* :class:`PageAccessCounter` — the experiment-visible tally of logical and
  physical page reads;
* :class:`PagedFile` — an append-only file of variable-size records packed
  into fixed-size pages, in a caller-chosen (e.g. CCAM) order, with an
  optional record-spanning mode for records larger than a page (a node's
  signature grows with the dataset and routinely spans pages).

Records are sized in **bits**, because the paper's whole §5 is about
squeezing category ids below one byte; the pager converts to bytes only at
page-packing granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PageOverflowError, StorageError

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "PageSnapshot",
    "PageAccessCounter",
    "RecordLocation",
    "PagedFile",
]

#: The paper's page size (§6.1): 4 K bytes.
DEFAULT_PAGE_SIZE = 4096


@dataclass(frozen=True, slots=True)
class PageSnapshot:
    """An immutable reading of a :class:`PageAccessCounter`.

    Snapshots are values, so any number of readers (nested tracing spans,
    the harness, an exporter) can each hold their own reference point and
    compute independent deltas — unlike a single mutable checkpoint slot.
    """

    logical: int = 0
    physical: int = 0


@dataclass(slots=True)
class PageAccessCounter:
    """Tally of page accesses, shared by all files of one experiment.

    Attributes
    ----------
    logical_reads:
        Every page touch, whether or not it was cached.
    physical_reads:
        Page touches that missed the buffer pool (the paper's "page
        accesses" metric when a buffer is modeled; equal to
        ``logical_reads`` when no buffer pool is attached).
    """

    logical_reads: int = 0
    physical_reads: int = 0
    _checkpoint: PageSnapshot = field(default=PageSnapshot(), repr=False)

    def record_read(self, *, hit: bool) -> None:
        """Record one page touch; ``hit`` marks a buffer-pool hit."""
        self.logical_reads += 1
        if not hit:
            self.physical_reads += 1

    def reset(self) -> None:
        """Zero all counters (start of an experiment)."""
        self.logical_reads = 0
        self.physical_reads = 0
        self._checkpoint = PageSnapshot()

    def snapshot(self) -> PageSnapshot:
        """The current totals as an immutable value.

        Pair with :meth:`delta`: take a snapshot, do work, and read the
        accesses that work performed.  Snapshots nest freely (each caller
        owns its own), which is what the tracing spans rely on.
        """
        return PageSnapshot(self.logical_reads, self.physical_reads)

    def delta(self, since: PageSnapshot) -> PageSnapshot:
        """Reads accumulated after ``since`` was taken."""
        return PageSnapshot(
            self.logical_reads - since.logical,
            self.physical_reads - since.physical,
        )

    def checkpoint(self) -> None:
        """Mark the current totals; :meth:`since_checkpoint` reports deltas.

        A single mutable slot — kept for convenience; prefer the
        :meth:`snapshot`/:meth:`delta` pair, which nests.
        """
        self._checkpoint = self.snapshot()

    def since_checkpoint(self) -> tuple[int, int]:
        """``(logical, physical)`` reads since the last checkpoint."""
        delta = self.delta(self._checkpoint)
        return (delta.logical, delta.physical)


@dataclass(frozen=True, slots=True)
class RecordLocation:
    """Where a record lives: the half-open page range ``[first, last]``."""

    first_page: int
    last_page: int

    @property
    def num_pages(self) -> int:
        """How many pages a sequential read of the record touches."""
        return self.last_page - self.first_page + 1


class PagedFile:
    """An append-only file of records packed into fixed-size pages.

    Records are appended in the order the caller chooses — the clustering
    decision (CCAM order) is made *outside* this class.  Each record is
    identified by a caller-supplied hashable key (typically a node id).

    Two packing modes:

    * ``spanning=True`` (default): records are laid out back to back in a
      continuous bit stream; a record may straddle a page boundary, and a
      record larger than one page occupies several.  This models the
      paper's signature file.
    * ``spanning=False``: a record that does not fit in the current page's
      remaining space starts a fresh page; records larger than one page
      raise :class:`~repro.errors.PageOverflowError`.  This models
      whole-record placement (e.g. one adjacency list never split).
    """

    def __init__(
        self,
        name: str,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        spanning: bool = True,
        counter: PageAccessCounter | None = None,
        buffer_pool=None,
    ) -> None:
        if page_size < 1:
            raise StorageError(f"page size must be >= 1 byte, got {page_size}")
        self.name = name
        self.page_size = page_size
        self.spanning = spanning
        self.counter = counter if counter is not None else PageAccessCounter()
        self.buffer_pool = buffer_pool
        self._page_bits = page_size * 8
        self._locations: dict[object, RecordLocation] = {}
        self._cursor_bits = 0  # next free bit offset in the stream
        self._total_record_bits = 0

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def append_record(self, key: object, size_bits: int) -> RecordLocation:
        """Place a record of ``size_bits`` bits; return its page range.

        ``size_bits`` of zero is allowed (an empty signature still has an
        addressable location on the page holding its neighbors).
        """
        if key in self._locations:
            raise StorageError(f"{self.name}: record key {key!r} already placed")
        if size_bits < 0:
            raise StorageError(f"record size must be >= 0 bits, got {size_bits}")
        if not self.spanning:
            if size_bits > self._page_bits:
                raise PageOverflowError(
                    f"{self.name}: record {key!r} needs {size_bits} bits but a "
                    f"page holds {self._page_bits} and spanning is disabled"
                )
            used_in_page = self._cursor_bits % self._page_bits
            if used_in_page and used_in_page + size_bits > self._page_bits:
                # start a fresh page
                self._cursor_bits += self._page_bits - used_in_page
        first_page = self._cursor_bits // self._page_bits
        end_bit = self._cursor_bits + size_bits
        last_bit = end_bit - 1 if size_bits > 0 else self._cursor_bits
        last_page = last_bit // self._page_bits
        location = RecordLocation(first_page, last_page)
        self._locations[key] = location
        self._cursor_bits = end_bit
        self._total_record_bits += size_bits
        return location

    # ------------------------------------------------------------------
    # reading (counts page accesses)
    # ------------------------------------------------------------------
    def read(self, key: object) -> RecordLocation:
        """Touch every page of the record, counting accesses; return location.

        Without a buffer pool every touch is a miss, so the record's page
        count is added to both tallies in one step; with a pool each page
        is looked up in turn.
        """
        # A missing key falls through to locate's StorageError.
        location = self._locations.get(key) or self.locate(key)
        if self.buffer_pool is None:
            pages = location.num_pages
            counter = self.counter
            counter.logical_reads += pages
            counter.physical_reads += pages
            return location
        for page in range(location.first_page, location.last_page + 1):
            self._touch(page)
        return location

    def read_prefix(self, key: object, fraction: float) -> int:
        """Touch only the leading ``fraction`` of the record's pages.

        Models partial scans (e.g. a query that stops once its category
        prefix is resolved).  Returns the number of pages touched (at
        least 1).
        """
        if not 0 < fraction <= 1:
            raise StorageError(f"fraction must be in (0, 1], got {fraction}")
        location = self.locate(key)
        pages = max(1, round(location.num_pages * fraction))
        for page in range(location.first_page, location.first_page + pages):
            self._touch(page)
        return pages

    def touch_page(self, page: int) -> None:
        """Touch one page by number (e.g. an index root during a descent)."""
        if not 0 <= page < max(self.num_pages, 1):
            raise StorageError(
                f"{self.name}: page {page} out of range (file has "
                f"{self.num_pages} pages)"
            )
        self._touch(page)

    def locate(self, key: object) -> RecordLocation:
        """The record's page range, without touching any page."""
        try:
            return self._locations[key]
        except KeyError:
            raise StorageError(
                f"{self.name}: no record with key {key!r}"
            ) from None

    def _touch(self, page: int) -> None:
        if self.buffer_pool is not None:
            hit = self.buffer_pool.access((self.name, page))
        else:
            hit = False
        self.counter.record_read(hit=hit)

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        """Number of records placed so far."""
        return len(self._locations)

    @property
    def num_pages(self) -> int:
        """Pages allocated (the file's on-disk footprint in pages)."""
        if self._cursor_bits == 0:
            return 0
        return (self._cursor_bits + self._page_bits - 1) // self._page_bits

    @property
    def size_bytes(self) -> int:
        """On-disk footprint in bytes (pages are the allocation unit)."""
        return self.num_pages * self.page_size

    @property
    def payload_bits(self) -> int:
        """Sum of record sizes in bits (excludes page-boundary padding)."""
        return self._total_record_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PagedFile({self.name!r}, records={self.num_records}, "
            f"pages={self.num_pages})"
        )
