"""The cell-probe model: fixed-width cell memory, the published-bit
ledger, probe traces and footprints.

A query costs the cells it probes.  A :class:`CellMemory` holds a
structure's cells, up to w = 64 as the builder's uint64 image with no
Python int per cell, a :class:`PublishedBits` ledger the bits given away
for free (its cells read free), a :class:`ProbeTrace` one query's
charged probes and answer, and a :class:`Footprint` a query set's
first-seen charged contents.  The readers, the batch plans and the set
passes that charge those probes live in :mod:`structures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import SimulationFault

_first = itemgetter(0)  # a step's address


def address_bits(cell_count: int) -> int:
    """Bits needed to name any of `cell_count` cells (at least one)."""
    return max(1, (cell_count - 1).bit_length())


class CellMemory:
    """Word-addressable memory: `cell_count` cells of `word_bits` bits, from
    an iterable of ints or an integer ndarray, range-checked once.  Up to
    w = 64 it is one read-only uint64 image, and `cells` a memoryview of it
    whose items read as Python ints: an array that owns its data (a
    builder's fresh image) is taken as it is and anything else copied, so
    it never aliases a lent buffer.  Past w = 64 `cells` is a list of ints."""

    __slots__ = ("word_bits", "cells")

    def __init__(self, word_bits: int, cells):
        if word_bits < 1:
            raise ValueError("word width must be positive")
        self.word_bits = word_bits
        if isinstance(cells, np.ndarray):  # the OR of the cells is negative if one is
            wide = int(np.bitwise_or.reduce(cells)) >> word_bits
        else:
            cells = list(cells)
            wide = cells and (min(cells) < 0 or max(cells) >> word_bits)
        if wide:
            raise ValueError("cell content wider than word")
        if word_bits > 64:
            self.cells = cells.tolist() if isinstance(cells, np.ndarray) else cells
            return
        if not (isinstance(cells, np.ndarray) and cells.dtype == np.uint64 and cells.base is None):
            cells = np.array(cells, dtype=np.uint64)
        cells.setflags(write=False)
        self.cells = memoryview(cells)

    @property
    def image(self) -> np.ndarray:
        """The cells as an array: the uint64 image, or past w = 64 an object array."""
        return self.cells.obj if self.word_bits <= 64 else np.array(self.cells, dtype=object)

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def read(self, address: int) -> int:
        if not 0 <= address < len(self.cells):
            raise SimulationFault(
                f"probe address {address} outside memory of {len(self.cells)} cells"
            )
        return self.cells[address]

    def gather(self, addresses) -> list:
        """The contents of a list of addresses, as a list of ints, checked
        as :meth:`read` checks one: an int64 array of them is one numpy
        take over the image, and any other sequence one ``itemgetter``
        call once its least address is checked.  The reader slices
        `cells` for a scan itself, and gathers only the cells a published
        one interrupts or a scan that runs past the end."""
        cells = self.cells
        if not len(addresses):
            return []
        take = addresses.__class__ is np.ndarray and cells.__class__ is memoryview
        if (addresses.min() if take else min(addresses)) >= 0:
            try:
                if take:
                    return cells.obj.take(addresses).tolist()
                got = itemgetter(*addresses)(cells)
                return list(got) if len(addresses) > 1 else [got]
            except IndexError:  # past the end
                pass
        self.read(next(a for a in addresses if not 0 <= a < len(cells)))  # raises for the first bad address

    def total_bits(self) -> int:
        return len(self.cells) * self.word_bits

    def address_bits(self) -> int:
        return address_bits(self.cell_count)


@dataclass
class PublishedBits:
    """Bits given away for free: a bit-ledger plus free-to-read cells.

    `length` is the authoritative published-bit count.  `cells` maps the
    addresses whose contents the published bits reveal; probing those is
    free.  Bits tied to no cell (padding slack, the elimination floor)
    enter `length` only through `publish_raw`, which keeps their count
    and nothing else.  A bootstrapped ledger implies its padding slack,
    but nothing implies the 1-bit floor, which is why `encode` refuses a
    ledger carrying it.
    """

    length: int = 0
    cells: dict = field(default_factory=dict)
    bootstrapped: bool = False  # redundancy region released wholesale

    def publish_cells(self, memory: CellMemory, addresses) -> int:
        """Publish whole cells: content plus address, charged exactly
        (word_bits + address_bits) per *new* cell, each once in first-seen
        order.  Returns bits added.  Repeats and published addresses drop
        out through dict operations, not a Python step per cell, and the
        new cells alone are read, in one checked gather before anything
        changes, so a bad address leaves the ledger as it was.  A signed
        integer ndarray of new cells alone goes to the gather as it is
        (one numpy take on a uint64 image); the ledger keys by Python ints."""
        array = isinstance(addresses, np.ndarray)
        new = dict.fromkeys(addresses.tolist() if array else addresses)
        for a in new.keys() & self.cells.keys():
            del new[a]
        whole = array and addresses.dtype.kind == "i" and len(new) == addresses.size  # else its list: a float faults, never truncates
        self.cells.update(zip(new, memory.gather(addresses if whole else list(new))))
        added = len(new) * (memory.word_bits + memory.address_bits())
        self.length += added
        return added

    def publish_raw(self, bits: int) -> None:
        """Account published bits not tied to whole cells."""
        if bits < 0:
            raise ValueError("negative bit count")
        self.length += bits


class ProbeTrace:
    """One query's charged probes, in order, plus its answer.

    A trace keeps its probes in two parts: `head`, the charged
    (address, content) steps before the scan, and the scan as its first
    address `start` plus `scan`, the contents read from there on, one
    cell each, charged in address order: a read-only view of the
    memory's uint64 image up to w = 64, a list past it.  A trace given
    its steps alone has an empty scan.  `steps` and `addresses` are
    derived when asked, and ``==``, ``hash`` and ``repr`` read a trace as
    the (query, steps, answer) it stands for, whichever way its probes
    are split.  Traces are not to be changed once made.

    Determinism contract: same memory, same published set, same query index
    always yields the identical trace.
    """

    __slots__ = ("query", "head", "answer", "start", "scan")

    def __init__(self, query: int, steps: tuple, answer: int, start: int = 0, scan=()):
        self.query = query
        self.head = steps
        self.answer = answer
        self.start = start
        self.scan = scan

    @property
    def span(self) -> range:
        """The addresses of the scan."""
        return range(self.start, self.start + len(self.scan))

    @property
    def probes(self) -> int:
        return len(self.head) + len(self.scan)

    @property
    def steps(self) -> tuple:  # ((address, content), ...)
        if not self.scan:
            return self.head
        return (*self.head, *zip(self.span, self.scan))

    @property
    def addresses(self) -> tuple:
        return (*map(_first, self.head), *self.span)

    def _key(self) -> tuple:
        return self.query, self.steps, self.answer

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "ProbeTrace(query={!r}, steps={!r}, answer={!r})".format(*self._key())


@dataclass(frozen=True)
class Footprint:
    """First-seen probed cell contents for a query set, concatenated in
    increasing query order.  Length is exactly probed_cell_count * word_bits.
    """

    bits: tuple  # cell contents, first-seen order
    word_bits: int

    @property
    def probed_cell_count(self) -> int:
        return len(self.bits)

    @property
    def length(self) -> int:
        return len(self.bits) * self.word_bits
