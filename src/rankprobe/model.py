"""Instrumented cell-probe simulator.

A data structure lives in a :class:`CellMemory` of fixed-width cells.  A
layout reads a query by its reader, ``step(query, known, fetched,
source)`` (:func:`structures.step_from_params`).  The reader serves each
cell from the published cells (`known`, read in place), then from the
cells charged earlier in the same set (`fetched`), and only then charges
a probe, taking the contents from `source`: memory for live runs and set
passes (:func:`simulate_set`), or the next cells of a recorded
:class:`Footprint` (first-seen contents in probe order) for
:func:`replay_from_footprint`, which the encoding argument relies on.
It returns the charged (address, content) steps and the answer.  A set
pass hands all its queries one fetched map, so a cell one query fetched
reads free for the later ones, and the map is the set's footprint.  Free
reads are never charged.

One function, :func:`_set_route`, picks a set's route, and one set pass
on it serves live runs, footprints and replays.  The reader serves sets
of fewer than PLAN_MIN_QUERIES (26) distinct queries and cells wider than 64
bits.  A larger set goes to a :class:`structures.ProbePlan`, whose read
step lists the same cells in the same first-seen order and fetches them
in one ``gather``.  A footprint is those contents alone; a live set
pass or a replay (:meth:`~structures.ProbePlan.set_pass`) also computes
every answer from them in numpy.  Encoding's greedy
:func:`detached_pass` reads each query on its own, and a single
``rank`` is one read.  Probe counts, published overlaps and charged
cells for many queries at once come from the same batch plans.  The
tests hold the reader and every plan to a query-generator driver kept
with them as their oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import CorruptFootprint, SimulationFault


def address_bits(cell_count: int) -> int:
    """Bits needed to name any of `cell_count` cells (at least one)."""
    return max(1, (cell_count - 1).bit_length())


class CellMemory:
    """Word-addressable memory: `cell_count` cells of `word_bits` bits, from
    an iterable of ints or an integer ndarray (a builder's uint64 image,
    range-checked by numpy before one ``tolist``)."""

    __slots__ = ("word_bits", "cells")

    def __init__(self, word_bits: int, cells):
        if word_bits < 1:
            raise ValueError("word width must be positive")
        self.word_bits = word_bits
        if isinstance(cells, np.ndarray):  # the OR of the cells is negative if one is
            wide = int(np.bitwise_or.reduce(cells)) >> word_bits
            self.cells = cells.tolist()
        else:
            self.cells = list(cells)
            wide = self.cells and (min(self.cells) < 0 or max(self.cells) >> word_bits)
        if wide:
            raise ValueError("cell content wider than word")

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
        """The contents of a list of addresses, checked as :meth:`read`
        checks one; a range of them in memory is one slice."""
        cells = self.cells
        if addresses.__class__ is range and addresses.start >= 0 and addresses.step == 1:
            got = cells[addresses.start : addresses.stop]
            if len(got) == len(addresses):
                return got
        if addresses and (min(addresses) < 0 or max(addresses) >= len(cells)):
            self.read(next(a for a in addresses if not 0 <= a < len(cells)))
        return [cells[a] for a in addresses]

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
        (word_bits + address_bits) per *new* cell.  Returns bits added.
        An integer ndarray of addresses is read as Python ints, which the
        ledger keys by.  The new cells are fetched in one checked gather
        before anything changes, so a bad address leaves the ledger as it
        was."""
        if isinstance(addresses, np.ndarray):
            addresses = addresses.tolist()
        new = [a for a in dict.fromkeys(addresses) if a not in self.cells]
        self.cells.update(zip(new, memory.gather(new)))
        added = len(new) * (memory.word_bits + memory.address_bits())
        self.length += added
        return added

    def publish_raw(self, bits: int) -> None:
        """Account published bits not tied to whole cells."""
        if bits < 0:
            raise ValueError("negative bit count")
        self.length += bits


@dataclass(frozen=True)
class ProbeTrace:
    """One query's charged probes, in order, plus its answer.

    Determinism contract: same memory, same published set, same query index
    always yields the identical trace.
    """

    query: int
    steps: tuple  # ((address, content), ...)
    answer: int

    @property
    def addresses(self) -> tuple:
        return tuple(a for a, _ in self.steps)


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


PLAN_MIN_QUERIES = 26  # set size from which the plan beats the reader


def _set_route(step_fn, queries):
    """How a set is passed: (plan, None) for a :class:`structures.ProbePlan`
    over its distinct queries, or (None, its queries in increasing order)
    for the reader.

    The set's distinct queries are checked against the step's params
    before anything is read: TypeError for a query that is not an
    integer, IndexError for one outside [0, n).  A list, tuple or array
    of at least PLAN_MIN_QUERIES integers that is already strictly
    increasing goes to numpy as it is; anything else is sorted and
    deduplicated in Python.  From PLAN_MIN_QUERIES distinct queries on,
    at w <= 64, the set goes to the plan, and every other set to the
    reader."""
    params = step_fn.params
    plannable = params["word_bits"] <= 64
    q = None
    if plannable and isinstance(queries, (list, tuple, np.ndarray)) and len(queries) >= PLAN_MIN_QUERIES:
        q = np.array(queries)
        if q.dtype.kind not in "iu" or q.ndim != 1 or not (q[1:] > q[:-1]).all():
            q = None  # floats, ints past 64 bits (object) or any other order
    if q is None:
        q = sorted(set(map(operator.index, queries)))
    if len(q) and not (0 <= q[0] and q[-1] < params["n"]):
        raise IndexError(f"query outside [0, {params['n']})")
    if plannable and len(q) >= PLAN_MIN_QUERIES:
        from .structures import ProbePlan  # structures imports this module

        return ProbePlan(params, q), None
    return None, q


def _set_pass(step_fn, queries, published: PublishedBits | None, source, answered: bool = True):
    """Pass `queries` in increasing order, on the route :func:`_set_route`
    picks, through one charged map: a cell fetched for one query reads
    free for the later ones.  Published cells are read in place, never
    copied or changed.  Returns (answers dict, fetched cells): every
    fetched address with its contents, in first-seen order.  Unless
    `answered`, it returns those contents alone; on the plan route they
    are then the plan's read step, with no answer computed and no dict.

    Charged cells come from `source`, memory or a footprint's
    :class:`_Tape`: the plan's :meth:`~structures.ProbePlan.set_pass` (or
    :meth:`~structures.ProbePlan.read_order` alone) takes them in one
    ``source.gather``, and the reader query by query."""
    known = published.cells if published is not None else {}
    plan, queries = _set_route(step_fn, queries)
    if plan is not None:
        return plan.set_pass(known, source.gather) if answered else plan.read_order(known, source.gather)[1]
    answers, fetched = {}, {}
    for q in queries:
        steps, answers[q] = step_fn(q, known, fetched, source)
        fetched.update(steps)
    return (answers, fetched) if answered else fetched.values()


def simulate_set(step_fn, queries, memory: CellMemory, published: PublishedBits | None = None):
    """Pass `queries` once against live memory, in increasing order.

    Returns (answers dict, charged cells) as :func:`_set_pass` does.  The
    contents are the set's footprint; the addresses are the union of the
    charged probes of its queries."""
    return _set_pass(step_fn, queries, published, memory)


def build_footprint(step_fn, queries, memory: CellMemory, published: PublishedBits | None = None) -> Footprint:
    """First-seen probed cell contents over `queries` in increasing order:
    the set pass's fetched contents, with no answer computed on the plan
    route."""
    bits = _set_pass(step_fn, queries, published, memory, answered=False)
    return Footprint(tuple(bits), memory.word_bits)


class _Tape:
    """A footprint read as memory: each charged cell is the next recorded
    one, whatever its address."""

    __slots__ = ("cells",)

    def __init__(self, bits):
        self.cells = iter(bits)

    def read(self, address: int) -> int:
        content = next(self.cells, None)
        if content is None:
            raise CorruptFootprint(f"footprint exhausted at address {address}")
        return content

    def gather(self, addresses) -> list:
        contents = list(islice(self.cells, len(addresses)))
        if len(contents) < len(addresses):
            raise CorruptFootprint(f"footprint exhausted at address {addresses[len(contents)]}")
        return contents


def replay_from_footprint(step_fn, queries, footprint: Footprint, published: PublishedBits | None = None):
    """Re-run `queries` (increasing order) feeding charged probes from the
    footprint instead of memory.

    Returns (answers dict, charged cells), the same shape as
    :func:`simulate_set` returns for the recorded set.  Raises
    CorruptFootprint when the recording is too short or has cells left
    over.
    """
    tape = _Tape(footprint.bits)
    answers, charged = _set_pass(step_fn, queries, published, tape)
    if next(tape.cells, None) is not None:
        raise CorruptFootprint("footprint has cells left over")
    return answers, charged


def detached_pass(step_fn, queries, memory: CellMemory, published: PublishedBits):
    """Greedy detached pass over sorted `queries`: each is read once on its
    own, and its answer and cells are kept when those cells miss every
    kept query's.  Returns (answers dict, charged cells) as
    :func:`simulate_set` over the kept queries does: their cells are
    pairwise disjoint, so a set pass charges each the same cells."""
    answers, kept = {}, {}
    for q in queries:
        steps, answer = step_fn(q, published.cells, {}, memory)
        charged = dict(steps)
        if kept.keys().isdisjoint(charged):
            answers[q] = answer
            kept.update(charged)
    return answers, kept
