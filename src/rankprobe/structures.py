"""Succinct rank structures over a cell memory.

Three builders, one layout family:

* ``build_naive``: raw bits only, rank by scanning from the start.
* ``build_two_level``: classic counter scheme, one absolute counter per
  superblock, packed relative counters per block, raw bits contiguous.
* ``build_recursive``: a staged ladder over the same constructor.  Stage t
  quadruples the scan block (BB_t = 2^(2t+4) bits, superblock = 8 * BB_t),
  so each stage trades roughly 3x less counter redundancy for a deeper
  scan.  Redundancy is strictly decreasing in t at fixed n; worst-case
  probes grow geometrically, not linearly.  This family deliberately sits
  on the systematic side of the trade-off, where redundancy r and probe
  count t obey r * t ~ n * log(n) / w and redundancy halving cannot come
  with flat probe cost.

Raw bits are stored contiguously, never compressed; padding in the last
raw cell counts toward redundancy.  The relative counter for the first
block of each superblock is always zero and is not stored.

Queries run two ways over one geometry expression, and both need only
a layout's params, because probe addresses depend on the query index
and never on the data.  The reader of :func:`step_from_params`,
``step(query, known, source)``, reads one query: the counters, then
the scan.  It serves each cell from the published cells (`known`, read
in place) and charges a probe for every other, taking the contents from
`source`, the memory, in place.  Free reads are never charged.  It
returns the query's :class:`~model.ProbeTrace`: the charged counter
steps, then the scan as its address range and a slice of the memory's
cells there (a read-only view of the uint64 image up to w = 64, whose
ones are counted as whole bytes), or, when the scan meets published
cells, its charged cells as explicit (address, content) steps.  Only
``rank`` reads through it.  A :class:`ProbePlan` is the batch path:
probe counts, published overlaps and charged-cell sets for a query
array, computed with numpy.

A set pass charges each cell once: a cell one query fetched reads free
for the later ones, and the cells the set fetches, in first-seen order,
are its footprint.  One set pass, :func:`_set_pass`, serves live runs
(:func:`simulate_set`), footprints (:func:`build_footprint`), replays
(:func:`replay_from_footprint`) and the greedy :func:`detached_pass`,
which chooses its queries by their addresses (:func:`detached_set`),
at every cell width, through the set's plan.  What the plan computes
from the params and the queries alone is its program: the read order
and each answer's shifts.  Only the data step that sets the served
cells at their addresses and sums them depends on the memory or
footprint and on the published cells: :meth:`~ProbePlan.read_order`
fetches the charged cells in one ``gather`` (all a footprint records;
one numpy take from a memory's uint64 image), and
:meth:`~ProbePlan.set_pass` computes every answer.  So a set pass takes
its plan from a small cache keyed by the params and the query values,
and a replay, or the re-encode that checks a decode, runs the program
of the pass before it over new contents.  The cached arrays are
read-only.  The tests hold the reader and every plan to a
query-generator driver kept with them as their oracle.

A :class:`StructureLayout` is its memory (the builder's image) and params:
its reader is the one of its params, and its published ledger starts
empty.  :func:`layout_from_params` rebuilds one from params and an array.
"""

from __future__ import annotations

import bisect
import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .bits import BitArray, cell_array
from .errors import CorruptFootprint, SimulationFault
from .model import CellMemory, Footprint, ProbeTrace, PublishedBits

EXHAUSTIVE_LIMIT = 1 << 14  # sample_queries takes every query up to this n
STATS_SAMPLE = 4096  # queries structure_stats and run_elimination sample past that


@dataclass
class StructureLayout:
    """A built structure: memory, query algorithm, and bookkeeping.

    `step` is :func:`step_from_params` of `params`, and `published` a
    ledger of the layout's own unless one is given.

    `redundancy_region` is the address range holding everything beyond the
    raw bits; publishing it (plus the padding slack in the last raw cell)
    releases exactly `redundancy_bits` bits, after which the unpublished
    remainder is at most n bits plus one cell of slack.
    """

    memory: CellMemory
    params: dict
    published: PublishedBits = field(default_factory=PublishedBits)
    step: callable = field(init=False, compare=False)

    def __post_init__(self):
        self.step = step_from_params(self.params)

    @property
    def n(self) -> int:
        return self.params["n"]

    @property
    def kind(self) -> str:
        return self.params["kind"]

    @property
    def redundancy_bits(self) -> int:
        return self.memory.total_bits() - self.n

    @property
    def worst_probes(self) -> int:
        return self.params["worst_probes"]

    @property
    def redundancy_region(self) -> range:
        return range(self.params["raw_cells"], self.params["cell_count"])

    def published_mask(self) -> np.ndarray:
        """Boolean mask over the cells: True where a published cell reads free."""
        mask = np.zeros(self.memory.cell_count, dtype=bool)
        mask[list(self.published.cells)] = True
        return mask

    def publish_redundancy(self) -> int:
        """Free the counter region: contents plus padding slack, exactly
        redundancy_bits published.  Addresses are fixed by the layout and
        cost nothing.  The region is read as one slice of the memory's
        cells, not gathered: publishing it is not a probe.  Cells already
        published keep their place.  Returns bits added to the ledger."""
        region = self.redundancy_region
        new = dict(zip(region, self.memory.cells[region.start : region.stop]))
        for a in new.keys() & self.published.cells.keys():
            del new[a]
        self.published.cells.update(new)
        pad = self.params["raw_cells"] * self.memory.word_bits - self.n
        added = len(new) * self.memory.word_bits + pad
        self.published.publish_raw(added)
        self.published.bootstrapped = True
        return added


@dataclass
class StructureStats:
    redundancy_bits: int
    worst_probes: int
    avg_probes: float


def _slot_cells(values: np.ndarray, width: int, per: int, w: int) -> np.ndarray:
    """Pack counters of `width` bits, `per` to a cell from the low end, into
    w-bit cells: one OR over each cell's row of slots, each shifted into
    place, on uint64 up to w = 64 and on Python ints (an object array) past it."""
    dtype = np.uint64 if w <= 64 else object
    slots = np.zeros(-(-len(values) // per) * per, dtype=dtype)
    slots[: len(values)] = values
    return np.bitwise_or.reduce(slots.reshape(-1, per) << np.arange(per, dtype=dtype) * width, axis=1)


def _counter_layout(array: BitArray, superblock: int, block: int, word_bits: int, kind: str, extra: dict | None = None) -> StructureLayout:
    """Shared constructor for the two-level and staged builders."""
    n = array.n
    w = word_bits
    if w < 1:
        raise ValueError("cell width must be positive")
    if superblock % block or superblock <= block:
        raise ValueError("superblock must be a proper multiple of block")
    if block % w:
        raise ValueError("block size must be a whole number of cells")
    ratio = superblock // block

    raw_cells = (n + w - 1) // w
    width = max(1, min(superblock - block, n).bit_length())
    per = w // width
    if per < 1 or (n // superblock * superblock).bit_length() > w:  # a relative or the largest absolute counter
        raise ValueError("counter width exceeds cell width")
    # ones before each block start, one row per superblock
    n_abs = n // superblock + 1
    starts = np.zeros(n_abs * ratio, dtype=np.int64)
    starts[1 : n // block + 1] = array.ranks(np.arange(block, n + 1, block))
    starts = starts.reshape(n_abs, ratio)
    abs_vals = starts[:, 0]
    # a superblock's first block stores no relative counter; the last row
    # runs past n, and its blocks past n // block are no blocks at all
    rel_entries = (starts[:, 1:] - starts[:, :1]).ravel()[: n // block + 1 - n_abs]
    rel_cells = (len(rel_entries) + per - 1) // per

    # memory image: [raw][absolute][relative], uint64 up to w = 64
    raw = cell_array(array.words.view(np.uint8), n, w)
    cells = np.concatenate((raw, abs_vals.astype(raw.dtype), _slot_cells(rel_entries, width, per, w)))

    rel_base = raw_cells + n_abs
    total = rel_base + rel_cells
    memory = CellMemory(w, cells)

    scan_max = min(block // w, raw_cells)
    worst = 1 + (1 if rel_cells else 0) + scan_max

    params = {
        "kind": kind,
        "n": n,
        "word_bits": w,
        "superblock": superblock,
        "block": block,
        "ratio": ratio,
        "width": width,
        "per_cell": per,
        "raw_cells": raw_cells,
        "rel_base": rel_base,
        "cell_count": total,
        "worst_probes": worst,
    }
    if extra:
        params.update(extra)

    return StructureLayout(memory, params)


def _counter_geometry(params: dict):
    """Where Rank(pos) reads in a counter layout, as arithmetic that works
    the same on a Python int and on an int64 array of positions.

    Returns a function of pos giving the absolute counter's address,
    whether the block stores a relative counter, that counter's cell
    address and entry index (meaningless where it stores none), and the
    first raw cell of the scan."""
    block = params["block"]
    ratio = params["ratio"]
    per = params["per_cell"]
    abs_base = params["raw_cells"]  # the absolute counters follow the raw cells
    rel_base = params["rel_base"]
    w = params["word_bits"]

    def where(pos):
        j = pos // block
        sb = j // ratio  # pos // superblock, as superblock = ratio * block
        entry = j - sb - 1  # blocks before j minus skipped first blocks
        has_rel = j != sb * ratio
        sb += abs_base  # the absolute counter's address, in place: one array fewer at peak
        return sb, has_rel, rel_base + entry // per, entry, j * block // w

    return where


def step_from_params(params: dict):
    """Rebuild a layout's query reader from its params alone.

    Probe addresses depend only on the query index, never on the data, so
    a decoder holding just the params can replay queries from recorded
    cell contents.  Counter layouts probe the absolute counter, then the
    relative counter (absent for a superblock's first block), then the raw
    cells from the block start up to the query position; a naive query is
    the same query with no counters, scanning from cell 0.  Only the last
    raw cell holds bits at or past the position, and their ones are taken
    off the scan's count.

    The reader ``step(query, known, source)`` is the one-query protocol
    of this module's docstring; `source` is a :class:`~model.CellMemory`.
    The counters are read from its `cells` by address, and a scan that
    meets no published cell is one slice of them, which its trace keeps
    with the scan's range: a read-only view of the uint64 image up to
    w = 64, with no Python int or pair per cell.  An address past the
    end faults through ``source.read`` or ``source.gather``.  With
    nothing published (`known` empty) no cell is looked up in `known`.
    The reader keeps `params`, by which :func:`_set_pass` checks and
    plans a set.
    """
    w = params["word_bits"]
    where = None
    if params["kind"] != "naive":
        where = _counter_geometry(params)
        width, per = params["width"], params["per_cell"]
        slot_mask = (1 << width) - 1

    def step(query, known, source):
        query = operator.index(query)
        pos = query + 1
        cells = source.cells
        size = len(cells)
        head = ()
        total = lo = 0
        if where is not None:
            a_abs, has_rel, a_rel, entry, lo = where(pos)
            total = known.get(a_abs) if known else None
            if total is None:
                total = cells[a_abs] if a_abs < size else source.read(a_abs)
                head = ((a_abs, total),)
            if has_rel:
                word = known.get(a_rel) if known else None
                if word is None:
                    word = cells[a_rel] if a_rel < size else source.read(a_rel)
                    head += ((a_rel, word),)
                total += (word >> (entry % per * width)) & slot_mask
        last = (pos - 1) // w
        span = range(lo, last + 1)
        if known and not known.keys().isdisjoint(span):  # its charged scan cells join the head
            charged = [a for a in span if a not in known]
            got = source.gather(charged)
            head += tuple(zip(charged, got))
            got = iter(got)
            scanned = [known[a] if a in known else next(got) for a in span]
            return ProbeTrace(query, head, total + _ones_below(scanned, pos - last * w))
        scan = cells[lo : last + 1]
        if len(scan) != len(span):
            scan = source.gather(span)  # faults at the first address past the end
        return ProbeTrace(query, head, total + _ones_below(scan, pos - last * w), lo, scan)

    step.params = params
    return step


POPCOUNT_RUN = 1024  # cells per int of a scan's popcount: 8 KiB, however long the scan


def _ones_below(scan, shift: int) -> int:
    """The ones of a scan's cells below the position, which lies `shift`
    bits into the last one: every earlier cell lies wholly below it.  A
    view of the uint64 image counts as the bytes of one int per run of
    :data:`POPCOUNT_RUN` cells, exact as each cell is its own range-checked
    word; a list of Python ints cell by cell.  The cells are read, never
    masked in place."""
    if not scan:
        return 0
    if scan.__class__ is list:
        ones = sum(map(int.bit_count, scan))
    elif len(scan) <= POPCOUNT_RUN:
        ones = int.from_bytes(scan, "little").bit_count()
    else:
        runs = range(0, len(scan), POPCOUNT_RUN)
        ones = sum(int.from_bytes(scan[i : i + POPCOUNT_RUN], "little").bit_count() for i in runs)
    return ones - (scan[-1] >> shift).bit_count()


def _before(a: np.ndarray, increasing: bool = False) -> np.ndarray:
    """Running max over the earlier queries along the last axis, -1 for
    the first.  For an `increasing` (never decreasing) array that is the
    previous entry, shifted in without a scan."""
    out = np.empty_like(a)
    out[..., :1] = -1
    if increasing:
        out[..., 1:] = a[..., :-1]
    else:
        np.maximum.accumulate(a[..., :-1], axis=-1, out=out[..., 1:])
    return out


_NO_CELL = np.zeros(1, dtype=bool)


def _padded(mask: np.ndarray) -> np.ndarray:
    """`mask` with one False entry appended: the entry an absent
    counter's address -1 reads, so it flags no cell."""
    return np.concatenate((mask, _NO_CELL))


class ProbePlan:
    """A query array's probes, built from a layout's params alone.

    The batch counterpart of the layout's reader.  For every query (an
    int64 array of any shape, each in [0, n): :func:`_set_pass` checks a
    set's queries before it plans them) the plan holds the
    absolute-counter address (-1 for naive layouts), the relative-counter
    address (-1 where the block stores none) and the raw cells ``lo .. hi`` its scan reads (``hi = lo - 1``
    when the scan is empty).  A query reads no cell twice, so its charged
    probes are the cells it reads that are not published.  Cell sets are
    boolean masks over the layout's cells, such as
    :meth:`StructureLayout.published_mask`.  Address -1 reads the False
    entry :func:`_padded` appends to a mask (:meth:`cells` marks it in an
    array one entry longer), so an absent counter needs no guard.
    """

    def __init__(self, params: dict, queries):
        q = np.asarray(queries, dtype=np.int64)
        self.params = params
        self.queries = q
        self._cached = None  # the set-pass program, once a pass needs it
        self.hi = q // params["word_bits"]
        if params["kind"] == "naive":
            self.abs_addr = self.rel_addr = np.full(q.shape, -1, dtype=np.int64)
            self.lo = np.zeros(q.shape, dtype=np.int64)
        else:
            a_abs, has_rel, a_rel, self.entry, self.lo = _counter_geometry(params)(q + 1)
            self.abs_addr = a_abs
            self.rel_addr = np.where(has_rel, a_rel, -1)

    def _raw_prefix(self, mask: np.ndarray) -> np.ndarray:
        """How many raw cells below each index `mask` flags."""
        return np.concatenate(([0], np.cumsum(mask[: self.params["raw_cells"]], dtype=np.int64)))

    def charged(self, published: np.ndarray) -> np.ndarray:
        """Charged probes per query: the cells it reads that are not published."""
        free = _padded(~published)
        pre = self._raw_prefix(free)
        return pre.take(self.hi + 1) - pre.take(self.lo) + free[self.abs_addr] + free[self.rel_addr]

    def cells(self, published: np.ndarray) -> np.ndarray:
        """Mask of the cells some query charges: the union of the charged
        addresses of its queries."""
        raw = self.params["raw_cells"]
        read = np.zeros(published.size + 1, dtype=bool)  # address -1 marks the entry past the cells
        read[self.abs_addr] = True
        read[self.rel_addr] = True
        edges = np.bincount(self.lo.ravel(), minlength=raw + 1) - np.bincount(self.hi.ravel() + 1, minlength=raw + 1)
        read[:raw] |= np.cumsum(edges)[:raw] > 0
        return read[:-1] & ~published

    def _new_reads(self):
        """Per query of an array sorted along the last axis: whether its
        absolute and its relative counter are new, and where the new part
        of its scan starts.

        In sorted order the counter addresses and both ends of the scan
        never decrease, so a counter cell is new exactly when it lies past
        every earlier query's, and the new part of a scan is the part past
        the previous query's last raw cell.  The absolute counters and the
        scan ends are compared with the previous query alone; the relative
        counters, absent (-1) in some blocks, need the running max."""
        new_abs = self.abs_addr > _before(self.abs_addr, increasing=True)  # an absent (-1) counter is never new
        new_rel = self.rel_addr > _before(self.rel_addr)
        return new_abs, new_rel, np.maximum(self.lo, _before(self.hi, increasing=True) + 1)

    def row_hits(self, mask: np.ndarray) -> np.ndarray:
        """Per row (the last axis) of a query array sorted by position
        along each row, how many distinct cells `mask` flags the row reads."""
        new_abs, new_rel, start = self._new_reads()
        mask = _padded(mask)
        pre = self._raw_prefix(mask)
        hits = pre.take(self.hi + 1) - pre.take(start)
        hits += mask[self.abs_addr] & new_abs
        hits += mask[self.rel_addr] & new_rel
        return hits.sum(axis=-1)

    def _program(self):
        """The set-pass program over this plan's queries, which must be
        sorted, distinct and at least one, computed on the plan's first
        pass: it depends on the params and the queries alone.

        Per query the set reads three runs of cells, each where
        :meth:`_new_reads` finds it new: the absolute counter, the
        relative counter, then the new part of the scan.  The answers need
        nothing more, as :meth:`set_pass` reads each query's cells at
        their addresses, the way the reader does.

        Returns the cells read, in that first-seen probe order, as a tuple
        and as an int64 array; the query list; per query hi + 1; rows of,
        per query, its last-cell shift and, on a counter layout, its slot
        shift (w where its block stores no relative counter), as uint64;
        and the slot mask (None on a naive layout).  The arrays are
        read-only."""
        if self._cached is None:
            new_abs, new_rel, start = self._new_reads()
            runs = np.empty((self.queries.size, 3), dtype=np.int64)
            runs[:, 0], runs[:, 1] = new_abs, new_rel
            np.subtract(self.hi + 1, start, out=runs[:, 2])
            firsts = np.empty_like(runs)  # the address each run starts at
            firsts[:, 0], firsts[:, 1], firsts[:, 2] = self.abs_addr, self.rel_addr, start
            runs = runs.ravel()
            ends = np.add.accumulate(runs)
            read = np.repeat(firsts.ravel() - ends + runs, runs) + np.arange(ends[-1])
            w = self.params["word_bits"]
            shifts = [self.queries % w + 1]
            slot_mask = None
            if self.params["kind"] != "naive":
                width = self.params["width"]
                shifts.append(np.where(self.rel_addr < 0, w, self.entry % self.params["per_cell"] * width))
                slot_mask = np.uint64((1 << width) - 1)
            shifts = np.array(shifts, dtype=np.uint64)
            past = self.hi + 1
            _read_only(read, past, shifts)
            self._cached = (tuple(read.tolist()), read, tuple(self.queries.tolist()), past, shifts, slot_mask)
        return self._cached

    def read_order(self, known: dict, gather):
        """The read step of a set pass over this plan's queries, which must
        be sorted and distinct: the cells of :meth:`_program`'s read
        order.  Cells in `known` (the published cells, read in place) are
        served from it; one call of `gather(addresses)` gives the contents
        of the others, in that order, as a list: with none known, of the
        read order's int64 array, one numpy take from a memory.  Returns
        (charged addresses, their contents), a footprint the contents."""
        read, at = self._program()[:2]
        charged = [a for a in read if a not in known] if known else read
        return charged, gather(charged if known else at)

    def set_pass(self, known: dict, gather):
        """The set pass of :func:`simulate_set` over this plan's
        queries, which must be sorted, distinct and at least one: the read
        step :meth:`read_order`, then every answer read from the served
        contents set at their addresses, as the reader reads it: a scan
        lo .. hi between two entries of a popcount prefix over addresses,
        less cell hi's ones at or past the position, plus the counters.
        An empty scan (lo = hi + 1) and an absent relative counter (-1)
        shift their cell by w, and numpy shifts a uint64 by 64 to 0.  So
        the data step costs the layout's cell count, not the cells read.
        The answers are uint64 up to w = 64 and Python ints past it.
        Returns (answers dict, fetched cells)."""
        charged, got = self.read_order(known, gather)
        read, at, keys, past, shifts, slot_mask = self._program()
        cells = got
        if known:  # the published contents go back in probe order
            fetched = iter(got)
            cells = [known[a] if a in known else next(fetched) for a in read]
        wide = self.params["word_bits"] > 64
        served = np.array(cells, dtype=object if wide else np.uint64)
        image = np.zeros(self.params["cell_count"], dtype=served.dtype)
        image[at] = served
        ones = np.zeros(image.size + 1, dtype=np.int64 if wide else np.uint64)
        ones[1:][at] = _bit_counts(served)  # ones[a + 1] for the cell at a
        np.add.accumulate(ones, out=ones)
        answers = ones[past] - ones[self.lo] - _bit_counts(image[self.hi] >> shifts[0])
        if slot_mask is not None:  # Python ints past w = 64
            answers = answers + image[self.abs_addr] + ((image[self.rel_addr] >> shifts[1]) & slot_mask)
        return dict(zip(keys, answers.tolist())), dict(zip(charged, got))


def _bit_counts(cells: np.ndarray) -> np.ndarray:
    """The popcount of each cell of a uint64 array, or of an object array
    of Python ints (cells past w = 64), as int64 for the latter."""
    if cells.dtype == object:
        return np.fromiter(map(int.bit_count, cells), np.int64, len(cells))
    return np.bitwise_count(cells)


def _read_only(*arrays) -> tuple:
    """The arrays, each made read-only in place."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


SET_PLANS = 2  # the reference set and the kept detached set: a decode's two replays and its re-encode reuse both


@functools.lru_cache(maxsize=SET_PLANS)
def _set_plan(params: tuple, queries: bytes) -> ProbePlan:
    """The plan of a set pass, cached by value: `params` is a layout's
    params as a tuple of items and `queries` the set's int64 bytes.
    Probe addresses depend on those alone, never on the data or the
    published cells, so a replay reuses the program of the footprint
    that recorded it.  Every array of a cached plan is read-only."""
    plan = ProbePlan(dict(params), np.frombuffer(queries, dtype=np.int64))
    _read_only(*(a for a in vars(plan).values() if isinstance(a, np.ndarray)))
    return plan


def _sorted_queries(params: dict, queries) -> np.ndarray:
    """The distinct `queries` in increasing order, as an int64 array,
    checked against `params` before anything is read: TypeError for a
    query that is not an integer, IndexError for one outside [0, n).  A
    list, tuple or array of integers that is already strictly increasing
    goes to numpy as it is; anything else is sorted and deduplicated in
    Python."""
    q = None
    if isinstance(queries, (list, tuple, np.ndarray)):
        q = np.array(queries)
        if q.dtype.kind not in "iu" or q.ndim != 1 or not (q[1:] > q[:-1]).all():
            q = None  # floats, ints past 64 bits (object) or any other order
    if q is None:
        q = sorted(set(map(operator.index, queries)))
    if len(q) and not (0 <= q[0] and q[-1] < params["n"]):
        raise IndexError(f"query outside [0, {params['n']})")
    return np.asarray(q, dtype=np.int64)


def _set_pass(step_fn, queries, published: PublishedBits | None, gather, answered: bool = True):
    """Pass `queries` in increasing order, charging each cell once: a cell
    fetched for one query reads free for the later ones.  Published cells
    are read in place, never copied or changed.  Returns (answers dict,
    fetched cells): every fetched address with its contents, in
    first-seen order.  Unless `answered`, it returns those contents
    alone, the plan's read step, with no answer computed and no dict.

    The queries are checked and sorted by :func:`_sorted_queries` against
    the step's params.  A set of any size, at any w, then runs the
    program of its plan from :func:`_set_plan`, which fetches the charged
    cells in one call of `gather`, from memory or from a footprint.  An
    empty set reads nothing but still calls ``gather([])``, so a replay
    sees a footprint with cells left over."""
    params = step_fn.params
    q = _sorted_queries(params, queries)
    known = published.cells if published is not None else {}
    if not q.size:
        gather([])
        return ({}, {}) if answered else []
    plan = _set_plan(tuple(params.items()), q.tobytes())
    return plan.set_pass(known, gather) if answered else plan.read_order(known, gather)[1]


def simulate_set(step_fn, queries, memory: CellMemory, published: PublishedBits | None = None):
    """Pass `queries` once against live memory, in increasing order.

    Returns (answers dict, charged cells) as :func:`_set_pass` does.  The
    contents are the set's footprint; the addresses are the union of the
    charged probes of its queries."""
    return _set_pass(step_fn, queries, published, memory.gather)


def build_footprint(step_fn, queries, memory: CellMemory, published: PublishedBits | None = None) -> Footprint:
    """First-seen probed cell contents over `queries` in increasing order:
    the set pass's fetched contents, with no answer computed."""
    bits = _set_pass(step_fn, queries, published, memory.gather, answered=False)
    return Footprint(tuple(bits), memory.word_bits)


def replay_from_footprint(step_fn, queries, footprint: Footprint, published: PublishedBits | None = None):
    """Re-run `queries` (increasing order) feeding charged probes from the
    footprint instead of memory: the set pass's one ``gather`` takes the
    recorded cells in order, whatever their addresses.

    Returns (answers dict, charged cells), the same shape as
    :func:`simulate_set` returns for the recorded set.  Raises
    CorruptFootprint when the recording is too short or has cells left
    over.
    """

    def gather(addresses) -> list:
        bits = list(footprint.bits)
        if len(bits) < len(addresses):
            raise CorruptFootprint(f"footprint exhausted at address {addresses[len(bits)]}")
        if len(bits) > len(addresses):
            raise CorruptFootprint("footprint has cells left over")
        return bits

    return _set_pass(step_fn, queries, published, gather)


def detached_set(params: dict, queries: np.ndarray, known: dict) -> list:
    """The sorted, distinct `queries` whose charged cells miss every earlier
    kept one's, chosen by :func:`_counter_geometry` and the published
    addresses (`known`) alone.  In sorted order each kind of counter and both
    scan ends never decrease, so a query is kept when each charged counter lies
    past its kind's largest kept one and lo .. the last kept hi is published."""
    where = params["kind"] != "naive" and _counter_geometry(params)
    w, raw = params["word_bits"], sorted(a for a in known if a < params["raw_cells"])
    kept, top_abs, top_rel, top_hi = [], -1, -1, -1
    for q in queries.tolist():
        a, has_rel, r, _, lo = where(q + 1) if where else (-1, False, -1, 0, 0)
        a, r = -1 if a in known else a, r if has_rel and r not in known else -1
        if (a < 0 or a > top_abs) and (r < 0 or r > top_rel) and (
            top_hi < lo or bisect.bisect_right(raw, top_hi) - bisect.bisect_left(raw, lo) == top_hi - lo + 1
        ):
            kept.append(q)
            top_abs, top_rel, top_hi = max(a, top_abs), max(r, top_rel), q // w
    return kept


def detached_pass(step_fn, queries, memory: CellMemory, published: PublishedBits):
    """Greedy detached pass over `queries`, checked and sorted as a set pass
    checks them: :func:`simulate_set` over the ones :func:`detached_set` keeps."""
    params, q = step_fn.params, _sorted_queries(step_fn.params, queries)
    if memory.cell_count < params["cell_count"]:  # a memory shorter than its params: fault at the first cell past
        simulate_set(step_fn, q, memory, published)  # the end any query names, as its reads would, kept or not
    return simulate_set(step_fn, detached_set(params, q, published.cells), memory, published)


def build_naive(array: BitArray, word_bits: int = 64) -> StructureLayout:
    """Raw bits only; rank scans from the front.  Redundancy = padding."""
    n = array.n
    w = word_bits
    if w < 1:
        raise ValueError("cell width must be positive")
    raw_cells = (n + w - 1) // w
    memory = CellMemory(w, cell_array(array.words.view(np.uint8), n, w))
    params = {
        "kind": "naive",
        "n": n,
        "word_bits": w,
        "raw_cells": raw_cells,
        "cell_count": raw_cells,
        "worst_probes": raw_cells,
    }
    return StructureLayout(memory, params)


def build_two_level(array: BitArray, superblock: int = 512, block: int = 64, word_bits: int = 64) -> StructureLayout:
    """Two-level counters with the classic 2^9 / 2^6 defaults."""
    return _counter_layout(array, superblock, block, word_bits, "two_level")


def max_stage(n: int) -> int:
    """Deepest stage whose scan block fits in the array size rounded up to
    a power of two (at least 64 bits)."""
    ceiling = 1 << max(6, (max(n, 2) - 1).bit_length())
    t = 1
    while 1 << (2 * (t + 1) + 4) <= ceiling:
        t += 1
    return t


def build_recursive(array: BitArray, t: int, word_bits: int = 64) -> StructureLayout:
    """Stage-t structure: BB = 2^(2t+4) bit blocks, superblock = 8 * BB.

    Redundancy shrinks by ~3.3x per stage; worst-case probes are
    2 + BB / word_bits.  Stages past max_stage(n) are rejected rather than
    silently clamped, so redundancy stays strictly decreasing in t.
    """
    if t < 1:
        raise ValueError("stage must be >= 1")
    top = max_stage(array.n)
    if t > top:
        raise ValueError(f"stage {t} too deep for n={array.n} (max {top})")
    block = 1 << (2 * t + 4)
    return _counter_layout(array, 8 * block, block, word_bits, "recursive", {"stage": t})


def layout_from_params(array: BitArray, params: dict) -> StructureLayout:
    """The layout `params` describes, built over `array` by the builder
    and with the geometry that made it."""
    w = params["word_bits"]
    if params["kind"] == "naive":
        return build_naive(array, w)
    if params["kind"] == "recursive":
        return build_recursive(array, params["stage"], w)
    return build_two_level(array, params["superblock"], params["block"], w)


def rank(layout: StructureLayout, k: int) -> ProbeTrace:
    """Rank(k) by the layout's reader, as its trace.  k = 0 needs no probes."""
    params = layout.params
    if not 0 < k <= params["n"]:
        if k == 0:
            return ProbeTrace(query=-1, steps=(), answer=0)
        raise IndexError(f"rank position {k} outside [0, {params['n']}]")
    trace = layout.step(k - 1, layout.published.cells, layout.memory)
    if trace.probes > params["worst_probes"]:
        raise SimulationFault(
            f"rank({k}) charged {trace.probes} probes, over the budget of {params['worst_probes']}"
        )
    return trace


def block_queries(n: int, k: int, d: int = 0) -> np.ndarray:
    """The offset-`d` query of each of k stride blocks over [0, n), as an
    int64 array: block b holds queries b * (n // k) .. (b + 1) * (n // k)
    - 1, and the tail past k * (n // k) lies in no block."""
    return np.arange(k, dtype=np.int64) * _stride(n, k, d) + d


def _stride(n: int, k: int, d: int) -> int:
    """The block size n // k of a stride set, once k and d are checked."""
    if not 1 <= k <= n:
        raise ValueError(f"block count {k} outside [1, {n}]")
    if not 0 <= d < n // k:
        raise ValueError(f"offset {d} outside [0, {n // k})")
    return n // k


def stride_cover(params: dict, k: int) -> np.ndarray:
    """The queries of :func:`block_queries` (n, k) that read every cell
    the whole set reads: the last query of each scan block.

    Queries of one scan block read the same counters, and their scans
    start at the same raw cell, so the block's last query reads what the
    others read; a naive layout has one scan, from cell 0.  Costs
    O(n / block) arithmetic, never the k-entry set."""
    n = params["n"]
    stride = _stride(n, k, 0)
    last = (k - 1) * stride
    if params["kind"] == "naive":
        return np.array([last], dtype=np.int64)
    block = params["block"]
    # query b sits in scan block (b * stride + 1) // block, so the last
    # one in block j - 1 is b = (j * block - 2) // stride
    j = np.arange(1, (last + 1) // block + 2, dtype=np.int64)
    b = np.minimum((j * block - 2) // stride, k - 1)  # nondecreasing, ends at k - 1
    last_of_run = np.ones(b.size, dtype=bool)  # the last entry always ends a run
    np.not_equal(b[1:], b[:-1], out=last_of_run[:-1])
    return b[last_of_run] * stride  # np.unique would import numpy.ma


def offset_starts(params: dict, k: int) -> np.ndarray:
    """The offsets d in [1, n // k) at which some query of
    :func:`block_queries` (n, k, d) reads other cells than at d - 1:
    offset 1 and every later offset where a read changes.

    Query b * (n // k) + d reads by its scan block (b * (n // k) + d + 1)
    // block and its last raw cell (b * (n // k) + d) // w alone (the
    last cell alone on a naive layout), so its reads change exactly where
    one of those steps up: at the d congruent to -(b * (n // k)) modulo w
    or to -(b * (n // k) + 1) modulo the block.  Costs O(n / k + k)
    through one residue table per modulus."""
    stride = _stride(params["n"], k, 0)
    offsets = np.arange(stride, dtype=np.int64)
    change = offsets == 1
    column = np.arange(k, dtype=np.int64) * stride
    steps = [(params["word_bits"], 0)]  # the last raw cell steps up where w divides the query
    if params["kind"] != "naive":
        steps.append((params["block"], 1))  # the scan block, where the block divides the query + 1
    for modulus, shift in steps:
        residues = -(column + shift) % modulus
        table = np.zeros(min(modulus, stride), dtype=bool)  # a residue past the stride is no offset
        table[residues[residues < table.size]] = True
        change[2:] |= table[offsets[2:] % modulus]
    return offsets[change]


def sample_queries(n: int, sample: int, seed: int) -> np.ndarray:
    """The query indices probe statistics average over: all of them when
    n is small, otherwise a seeded uniform sample."""
    if n <= EXHAUSTIVE_LIMIT:
        return np.arange(n, dtype=np.int64)
    return np.random.default_rng(seed).integers(0, n, size=sample)


def structure_stats(layout: StructureLayout, seed: int = 0) -> StructureStats:
    """Measured probe statistics over :func:`sample_queries`."""
    if layout.n < 1:
        raise ValueError("probe statistics need n >= 1")
    probes = ProbePlan(layout.params, sample_queries(layout.n, STATS_SAMPLE, seed)).charged(layout.published_mask())
    return StructureStats(
        redundancy_bits=layout.redundancy_bits,
        worst_probes=int(probes.max()),
        avg_probes=int(probes.sum()) / probes.size,
    )
