"""Instrumented cell-probe simulator.

A data structure lives in a :class:`CellMemory` of fixed-width cells.  A
query is a generator: ``step(query)`` yields cell addresses, receives each
cell's contents, and returns the answer.  The driver runs one query at a
time.  It serves each address from the published cells, read in place,
then from a charged map, and only then charges a probe by fetching the
cell into that map: from memory for live runs and set passes
(:func:`simulate_set`), from the next cell of a recorded
:class:`Footprint` (first-seen contents in probe order) for
:func:`replay_from_footprint`, which the encoding argument relies on.  A
live run's fresh map is its trace.  A set pass hands all its queries one
map, so a cell one query fetched reads free for the later ones, and the
map is the set's footprint.  Free reads are never charged, and a query
costs time linear in the addresses it yields.

One function, :func:`_set_route`, picks a set's route, and one set pass
on it serves live runs, footprints and replays.  The driver serves sets
of fewer than PLAN_MIN_QUERIES distinct queries, cells wider than 64
bits and steps that carry no layout params.  A larger set over a
layout's step goes to a :class:`structures.ProbePlan`, whose read step
lists the same cells in the same first-seen order and fetches them in
one call.  A footprint is those contents alone; a live set pass or a
replay (:meth:`~structures.ProbePlan.set_pass`) also computes every
answer from them in numpy.  Encoding's greedy :func:`detached_pass`
drives each query through a map of its own.  A single ``rank`` reads by
the step's own single-query reader instead, which charges the same
cells in the same order.  Probe counts, published overlaps and charged
cells for many queries at once come from the same batch plans.  The
tests hold every plan and the reader to this driver as their oracle.
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

    def gather(self, addresses: list) -> list:
        """The contents of a list of addresses, checked as :meth:`read`
        checks one."""
        cells = self.cells
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


MAX_STEPS = 1 << 20  # runaway query guard: addresses one query may yield


def _drive(step_fn, query: int, known: dict, charged: dict, fetch):
    """Run one query generator; returns its answer.

    `known` cells read free; any other address is looked up in the
    `charged` map, and a miss charges a probe: `fetch(address)` gives the
    contents, which the map keeps, each charged cell once and in probe
    order.  A step that carries its layout's params may yield up to its
    worst-case probe count, if that is past MAX_STEPS."""
    params = getattr(step_fn, "params", None)
    budget = params["worst_probes"] if params and params["worst_probes"] > MAX_STEPS else MAX_STEPS
    gen = step_fn(operator.index(query))
    try:
        addr = next(gen)
        for _ in range(budget):
            if addr.__class__ is not int:
                raise SimulationFault(f"query {query} yielded {addr!r}, not a cell address")
            content = known.get(addr)
            if content is None:
                content = charged.get(addr)
                if content is None:
                    charged[addr] = content = fetch(addr)
            addr = gen.send(content)
    except StopIteration as stop:
        return stop.value
    raise SimulationFault(f"query {query} exceeded step budget")


def run_query(step_fn, query: int, memory: CellMemory, published: PublishedBits | None = None) -> ProbeTrace:
    """Drive one query against live memory.  Published cells read free."""
    known = published.cells if published is not None else {}
    charged = {}
    answer = _drive(step_fn, query, known, charged, memory.read)
    return ProbeTrace(query, tuple(charged.items()), answer)


def probes_of_set(step_fn, queries, memory: CellMemory, published: PublishedBits | None = None):
    """Traces for a query set plus the union of charged addresses."""
    traces = [run_query(step_fn, q, memory, published) for q in queries]
    return traces, {a for tr in traces for a in tr.addresses}


PLAN_MIN_QUERIES = 40  # set size from which the plan beats the driver


def _set_route(step_fn, queries):
    """How a set is passed: (plan, None) for a :class:`structures.ProbePlan`
    over its distinct queries, or (None, its queries in increasing order)
    for the driver.

    A step that carries its layout's params (as
    :func:`structures.step_from_params` attaches them) has its set's
    distinct queries checked before anything is read: TypeError for a
    query that is not an integer, IndexError for one outside [0, n).  A
    list, tuple or array of at least PLAN_MIN_QUERIES integers that is
    already strictly increasing goes to numpy as it is; anything else is
    sorted and deduplicated in Python.  From PLAN_MIN_QUERIES distinct
    queries on, at w <= 64, the set goes to the plan.  Every other set,
    and any set over a step without params, goes to the driver."""
    params = getattr(step_fn, "params", None)
    if params is None:
        return None, sorted(queries)
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


def _set_pass(step_fn, queries, published: PublishedBits | None, fetch, gather, answered: bool = True):
    """Pass `queries` in increasing order, on the route :func:`_set_route`
    picks, through one charged map: a cell fetched for one query reads
    free for the later ones.  Published cells are read in place, never
    copied or changed.  Returns (answers dict, fetched cells): every
    fetched address with its contents, in first-seen order.  Unless
    `answered`, it returns those contents alone; on the plan route they
    are then the plan's read step, with no answer computed and no dict.

    The plan's :meth:`~structures.ProbePlan.set_pass` (or
    :meth:`~structures.ProbePlan.read_order` alone) takes the cells in one
    `gather(addresses)`; the driver charges each by `fetch(address)`."""
    known = published.cells if published is not None else {}
    plan, queries = _set_route(step_fn, queries)
    if plan is not None:
        return plan.set_pass(known, gather) if answered else plan.read_order(known, gather)[1]
    answers, fetched = {}, {}
    for q in queries:
        answers[q] = _drive(step_fn, q, known, fetched, fetch)
    return (answers, fetched) if answered else fetched.values()


def simulate_set(step_fn, queries, memory: CellMemory, published: PublishedBits | None = None):
    """Drive `queries` once against live memory, in increasing order.

    Returns (answers dict, charged cells) as :func:`_set_pass` does.  The
    contents are the set's footprint; the addresses are the union of
    charged probes that :func:`probes_of_set` collects query by query."""
    return _set_pass(step_fn, queries, published, memory.read, memory.gather)


def build_footprint(step_fn, queries, memory: CellMemory, published: PublishedBits | None = None) -> Footprint:
    """First-seen probed cell contents over `queries` in increasing order:
    the set pass's fetched contents, with no answer computed on the plan
    route."""
    bits = _set_pass(step_fn, queries, published, memory.read, memory.gather, answered=False)
    return Footprint(tuple(bits), memory.word_bits)


def replay_from_footprint(step_fn, queries, footprint: Footprint, published: PublishedBits | None = None):
    """Re-run `queries` (increasing order) feeding charged probes from the
    footprint instead of memory.

    Returns (answers dict, charged cells), the same shape as
    :func:`simulate_set` returns for the recorded set.  Raises
    CorruptFootprint when the recording is too short or has cells left
    over.
    """
    cells = iter(footprint.bits)

    def fetch(address):
        content = next(cells, None)
        if content is None:
            raise CorruptFootprint(f"footprint exhausted at address {address}")
        return content

    def gather(addresses):
        contents = list(islice(cells, len(addresses)))
        if len(contents) < len(addresses):
            raise CorruptFootprint(f"footprint exhausted at address {addresses[len(contents)]}")
        return contents

    answers, charged = _set_pass(step_fn, queries, published, fetch, gather)
    if next(cells, None) is not None:
        raise CorruptFootprint("footprint has cells left over")
    return answers, charged


def detached_pass(step_fn, queries, memory: CellMemory, published: PublishedBits):
    """Greedy detached pass over sorted `queries`: each runs once through
    its own charged map, and its answer and cells are kept when those
    cells miss every kept query's.  Returns (answers dict, charged cells)
    as :func:`simulate_set` over the kept queries does: their cells are
    pairwise disjoint, so a set pass charges each the same cells."""
    answers, kept = {}, {}
    for q in queries:
        charged = {}
        answer = _drive(step_fn, q, published.cells, charged, memory.read)
        if kept.keys().isdisjoint(charged):
            answers[q] = answer
            kept.update(charged)
    return answers, kept
