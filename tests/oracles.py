"""Reference implementations the tests and ``tools/fuzz.py`` hold the
program to.

* ``query_generator(params)``: a layout's query as a generator.  It
  yields cell addresses, receives each cell's contents and returns the
  answer, one address at a time.  The layout's reader
  (:func:`rankprobe.structures.step_from_params`) and every
  :class:`~rankprobe.structures.ProbePlan` must charge the cells it
  charges, in the same order, and give its answers.
* ``_drive``, ``run_query`` and ``probes_of_set``: the driver that runs
  one generator query at a time.  It serves each address from the
  published cells, then from a charged map, and only then charges a
  probe by fetching the cell into that map.  ``run_query`` and
  ``probes_of_set`` take a layout's reader (and drive the generator of
  its params) or a hand-written generator.
* ``driver_pass`` and ``greedy_scan``: a set pass and the greedy
  detached pass, query by query through ``run_query``, the oracles of
  :func:`rankprobe.structures.simulate_set` (and every set pass) and
  :func:`rankprobe.structures.detached_pass`.
* ``popcount_rank(array, k)``: the ones among A[1..k], counted over
  the array's bits, apart from the prefix table
  (:meth:`rankprobe.bits.BitArray.ranks`) every layout's counters come
  from.
* ``slot_cells_by_bits``: counters packed into cells through a
  matrix of one byte per bit, the oracle of
  :func:`rankprobe.structures._slot_cells`.
* ``publish_cells_per_cell`` and ``publish_redundancy_per_cell``: the
  ledger's publish steps, filtering and fetching one cell at a time, the
  oracles of :meth:`rankprobe.model.PublishedBits.publish_cells` and
  :meth:`rankprobe.structures.StructureLayout.publish_redundancy`.
* ``binom_entropy_exact``: H(Binomial(m, 1/2)) by exact big-int terms,
  the oracle of :func:`rankprobe.entropy.binom_entropy`.
* ``binom_code_exact``: the binomial answer code from exact weights
  C(m, v), made by a big-int running product and merged as they are,
  the oracle of :func:`rankprobe.coding.binomial_code`, which merges
  float log2 weights.
* ``choose_offset_full_grid``: the offset of least overlap with the
  reference set by a plan over every offset, the oracle of
  :func:`rankprobe.encoding.choose_offset`, which plans only the offsets
  :func:`rankprobe.structures.offset_starts` gives.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from rankprobe.bits import BitArray, cell_array
from rankprobe.coding import CanonicalCode, _huffman_depths
from rankprobe.entropy import _lg_int
from rankprobe.errors import SimulationFault
from rankprobe.model import CellMemory, ProbeTrace, PublishedBits
from rankprobe.structures import ProbePlan, _counter_geometry, block_queries, stride_cover


def query_generator(params: dict):
    """A layout's query generator, from its params alone.

    Counter layouts probe the absolute counter, then the relative counter
    (absent for a superblock's first block), then the raw cells from the
    block start up to the query position; a naive query is the same query
    with no counters, scanning from cell 0.  Only the last raw cell is
    masked: every earlier one lies wholly below the position.
    """
    w = params["word_bits"]
    where = None
    if params["kind"] != "naive":
        where = _counter_geometry(params)
        width, per = params["width"], params["per_cell"]
        slot_mask = (1 << width) - 1

    def query_step(query):
        pos = query + 1
        total = lo = 0
        if where is not None:
            a_abs, has_rel, a_rel, entry, lo = where(pos)
            total = yield a_abs
            if has_rel:
                total += ((yield a_rel) >> (entry % per * width)) & slot_mask
        last = (pos - 1) // w
        for c in range(lo, last):
            total += (yield c).bit_count()
        if lo <= last:
            total += ((yield last) & ((1 << (pos - last * w)) - 1)).bit_count()
        return total

    query_step.params = params  # sets the driver's budget past MAX_STEPS
    return query_step


@functools.lru_cache(maxsize=64)  # run_query is called query by query
def generator_of(step_fn):
    """The generator a step stands for: a layout reader's, rebuilt from
    its params, or `step_fn` itself when it is a generator function."""
    if hasattr(step_fn, "params"):
        return query_generator(step_fn.params)
    return step_fn


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
    answer = _drive(generator_of(step_fn), query, known, charged, memory.read)
    return ProbeTrace(query, tuple(charged.items()), answer)


def probes_of_set(step_fn, queries, memory: CellMemory, published: PublishedBits | None = None):
    """Traces for a query set plus the union of charged addresses."""
    traces = [run_query(step_fn, q, memory, published) for q in queries]
    return traces, {a for tr in traces for a in tr.addresses}


def driver_pass(layout, queries):
    """Each query's trace in increasing order, every cell an earlier one
    fetched dropped: the oracle of a set pass."""
    answers, fetched = {}, {}
    for q in sorted(set(queries)):
        trace = run_query(layout.step, q, layout.memory, layout.published)
        answers[q] = trace.answer
        for a, c in trace.steps:
            fetched.setdefault(a, c)
    return answers, fetched


def greedy_scan(layout, queries):
    """The queries, in order, that share no charged cell with a query
    kept before them, and the cells the kept ones charge: the oracle of
    ``detached_pass``."""
    kept, used = [], {}
    for q in queries:
        steps = run_query(layout.step, q, layout.memory, layout.published).steps
        if not any(a in used for a, _ in steps):
            kept.append(q)
            used.update(steps)
    return kept, used


def popcount_rank(array: BitArray, k: int) -> int:
    """Rank(k) of `array`, the ones among A[1..k], by a popcount over its
    first k bits.  Raises IndexError unless 0 <= k <= n."""
    if not 0 <= k <= array.n:
        raise IndexError(f"rank position {k} outside [0, {array.n}]")
    return int(np.count_nonzero(array.to_bits()[:k]))


def slot_cells_by_bits(values: np.ndarray, width: int, per: int, w: int) -> np.ndarray:
    """Counters of `width` bits, `per` to a cell from the low end, packed
    into w-bit cells through a bit matrix of one row per cell, zero-padded
    to w, then cut into cells by ``cell_array``."""
    if not len(values):
        return np.zeros(0, dtype=np.uint64)
    rows = -(-len(values) // per)
    slots = np.zeros(rows * per, dtype="<u8")
    slots[: len(values)] = values
    bits = np.unpackbits(slots.view(np.uint8).reshape(-1, 8), axis=1, count=width, bitorder="little")
    matrix = np.zeros((rows, w), dtype=np.uint8)
    matrix[:, : per * width] = bits.reshape(rows, per * width)
    return cell_array(np.packbits(matrix, bitorder="little"), rows * w, w)


def publish_cells_per_cell(ledger: PublishedBits, memory: CellMemory, addresses) -> int:
    """Publish the cells at `addresses` into `ledger` cell by cell: drop
    repeats, then every address already published, then fetch the rest
    in one checked gather before the ledger changes, and charge
    word_bits + address_bits per new cell.  Returns bits added."""
    if isinstance(addresses, np.ndarray):
        addresses = addresses.tolist()
    new = [a for a in dict.fromkeys(addresses) if a not in ledger.cells]
    ledger.cells.update(zip(new, memory.gather(new)))
    added = len(new) * (memory.word_bits + memory.address_bits())
    ledger.length += added
    return added


def publish_redundancy_per_cell(layout) -> int:
    """Publish a layout's redundancy region cell by cell, skipping the
    cells already published, plus the padding slack of its last raw
    cell.  Returns bits added."""
    ledger = layout.published
    new = [a for a in layout.redundancy_region if a not in ledger.cells]
    ledger.cells.update((a, layout.memory.read(a)) for a in new)
    added = len(new) * layout.memory.word_bits + layout.params["raw_cells"] * layout.memory.word_bits - layout.n
    ledger.publish_raw(added)
    ledger.bootstrapped = True
    return added


def binom_entropy_exact(m: int) -> float:
    """Oracle route: H(Binomial(m, 1/2)) by exact big-int terms.

    Each probability C(m, i) / 2^m is formed by correctly-rounded integer
    division; terms are accumulated with fsum.  O(m) big-int operations,
    use for modest m and for checking the fast route.
    """
    if m < 0:
        raise ValueError("negative m")
    if m == 0:
        return 0.0
    pow2 = 1 << m
    terms = []
    c = 1
    for i in range(m + 1):
        p = c / pow2
        if p > 0.0:
            terms.append(p * (m - _lg_int(c)))
        c = c * (m - i) // (i + 1)
    return math.fsum(terms)


def choose_offset_full_grid(layout, k: int) -> int:
    """The offset d in [1, n // k) whose queries share the fewest charged
    cells with the offset-0 reference queries, the smallest on a tie, by
    one plan row per offset: every offset of the grid is scored."""
    reference = block_queries(layout.n, k)
    bs = layout.n // k
    if bs < 2:
        raise ValueError("blocks too small to hold a nonzero offset")
    ref_cells = ProbePlan(layout.params, stride_cover(layout.params, k)).cells(layout.published_mask())
    rows = max(1, (1 << 13) // k)
    overlap = np.concatenate([
        ProbePlan(layout.params, np.arange(d, min(d + rows, bs))[:, None] + reference).row_hits(ref_cells)
        for d in range(1, bs, rows)
    ])
    return int(np.argmin(overlap)) + 1


def binom_code_exact(m: int) -> CanonicalCode:
    """The canonical code of Binomial(m, 1/2) from its exact weights, in
    the leaf order v = 0, m, 1, m - 1 and so on, the centre last: C(m, v)
    grows up to the centre, and of two equal weights the lower v comes
    first.  The weights come from the running product, so the route costs
    about m big-int steps of up to m bits each."""
    weights, leaves, c = [], [], 1
    for v in range(m // 2 + 1):
        weights.append(c)
        leaves.append(v)
        if m - v != v:
            weights.append(c)
            leaves.append(m - v)
        c = c * (m - v) // (v + 1)
    return CanonicalCode(dict(zip(leaves, _huffman_depths(weights))))
