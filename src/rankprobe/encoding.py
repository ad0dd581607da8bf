"""Encoding argument engine.

The compression-versus-correlation experiment, run for real: encode a
bit array through the eyes of its own rank structure, decode it back,
and account for every bit.  A record has six components:

1. published bits (the free-bits ledger): if bootstrapped, the
   redundancy region's cells in address order, then zero padding slack;
   then one run of (address_bits + w)-bit pairs in increasing address
   order, each an address in the low bits under its cell's content,
2. the identity of the detached query set (size header + lexicographic
   subset index over blocks),
3. the detached answers (canonical per-increment binomial codes),
4. the footprint of the offset-0 reference queries,
5. the footprint of the detached queries,
6. every cell probed by neither, verbatim in address order.

Each query set is simulated once, by a set pass, into (answers dict,
charged cells); the detached set's queries are kept greedily by their
probe addresses alone.  The cells are its footprint and what component
6 leaves out.  One footprint codec writes and reads components 4 and 5.
By default it stores the raw first-seen cell contents (exactly
probed_cells * word_bits bits), which works at any size.  With
``ensemble=True`` it is the ensemble: exact conditional canonical codes
built by enumerating every array of the given length, honest only at
enumerable sizes.

Decoding parses the record back into cells: it replays the recorded
footprints through the structure's own set pass and reads the array
from the raw cells, which lie ahead of every counter cell, so the ones
no replay charged are component 6's leading cells.
One rule then decides acceptance: the record is valid exactly when
encoding that array again (the layout rebuilt by
:func:`~rankprobe.structures.layout_from_params`, with the cells the
record publishes, the same k, offset and footprint codes) gives back the
record, component by component.  So no padding bit, counter, duplicate
copy or trailing bit can disagree with the array it decodes to.

A published state the format cannot carry is refused at encode time:
a ledger its serialization does not match in length (such as the 1-bit
floor elimination starts from when there is no redundancy to publish),
a non-bootstrapped ledger whose length reads as a bootstrap prefix plus
pairs, or ensemble footprints over a layout with published cells.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .bits import BitArray, BitString, cells_to_bytes
from .coding import (
    CanonicalCode,
    binomial_code,
    subset_header_bits,
    subset_index_bits,
    subset_rank,
    subset_unrank,
)
from .entropy import analytic_deficit
from .errors import CorruptEncoding, CorruptFootprint, RefusalError
from .model import Footprint, PublishedBits, address_bits
from .structures import (
    ProbePlan,
    StructureLayout,
    block_queries,
    detached_pass,
    detached_set,
    layout_from_params,
    offset_starts,
    replay_from_footprint,
    simulate_set,
    step_from_params,
    stride_cover,
)

RPE1_MAGIC = b"RPE1"
ENSEMBLE_LIMIT = 14
COMPONENTS = ("published", "detached_id", "detached_answers", "foot_reference", "foot_detached", "remaining")
MIN_RECORDS = 100  # size accounting refuses smaller batches


@dataclass
class EncodingRecord:
    """Six components plus the chosen offset.  Sizes are bit lengths; the
    component-sum identity total == sum(sizes) holds by construction."""

    published: BitString
    detached_id: BitString
    detached_answers: BitString
    foot_reference: BitString
    foot_detached: BitString
    remaining: BitString
    offset: int

    @property
    def components(self) -> tuple:
        return tuple(getattr(self, name) for name in COMPONENTS)

    @property
    def sizes(self) -> tuple:
        return tuple(c.length for c in self.components)

    @property
    def total_bits(self) -> int:
        return sum(self.sizes)

    # RPE1: magic, then six length-prefixed bit strings (8-byte LE bit
    # length, then the padded payload bytes), then offset as 8-byte LE.

    def to_rpe1(self) -> bytes:
        out = [RPE1_MAGIC]
        for comp in self.components:
            out.append(struct.pack("<Q", comp.length))
            out.append(comp.to_bytes())
        out.append(struct.pack("<Q", self.offset))
        return b"".join(out)

    @classmethod
    def from_rpe1(cls, blob: bytes) -> "EncodingRecord":
        if blob[:4] != RPE1_MAGIC:
            raise CorruptEncoding("bad magic")
        pos = 4
        comps = []
        for _ in range(6):
            if pos + 8 > len(blob):
                raise CorruptEncoding("truncated length header")
            (bits,) = struct.unpack("<Q", blob[pos : pos + 8])
            pos += 8
            nbytes = (bits + 7) // 8
            if pos + nbytes > len(blob):
                raise CorruptEncoding("truncated component payload")
            try:
                comps.append(BitString.from_bytes(blob[pos : pos + nbytes], bits))
            except ValueError as e:
                raise CorruptEncoding(str(e)) from None
            pos += nbytes
        if pos + 8 != len(blob):
            raise CorruptEncoding("bad trailer")
        (offset,) = struct.unpack("<Q", blob[pos : pos + 8])
        return cls(*comps, offset=offset)


# -- query sets -----------------------------------------------------------

def choose_offset(layout: StructureLayout, k: int) -> int:
    """Offset whose queries share the fewest probed cells with the
    offset-0 reference queries; ties go to the smallest offset.  Offset 0
    itself is excluded (it IS the reference).  Only the offsets of
    :func:`~rankprobe.structures.offset_starts` are scored."""
    reference = block_queries(layout.n, k)
    bs = layout.n // k
    if bs < 2:
        raise ValueError("blocks too small to hold a nonzero offset")
    ref_cells = ProbePlan(layout.params, stride_cover(layout.params, k)).cells(layout.published_mask())
    # A row holds one offset's queries.  The reference cells exclude the
    # published ones, so the reference cells a row reads are exactly the
    # charged cells it shares with the reference.  An offset's reads, and
    # so its overlap, stay those of the last start before it, so the
    # first offset of the least overlap is a start.  The rows go in chunks
    # of about 2^13 queries, so each int64 temporary of a chunk's plan stays
    # under glibc's 128 KiB mmap threshold and reuses freed heap instead of
    # faulting in fresh pages, and the peak stays flat in n.
    starts = offset_starts(layout.params, k)
    rows = max(1, (1 << 13) // k)
    overlap = np.concatenate([
        ProbePlan(layout.params, starts[i : i + rows, None] + reference).row_hits(ref_cells)
        for i in range(0, starts.size, rows)
    ])
    return int(starts[np.argmin(overlap)])


def _simulate_sets(layout: StructureLayout, k: int, d: int):
    """(answers dict, charged cells) of the reference set and of the greedy
    :func:`~rankprobe.structures.detached_pass` at offset `d`, one set pass each."""
    return (
        simulate_set(layout.step, block_queries(layout.n, k), layout.memory, layout.published),
        detached_pass(layout.step, block_queries(layout.n, k, d), layout.memory, layout.published),
    )


# -- answer coding --------------------------------------------------------

@functools.lru_cache
def _binom_code(m: int) -> CanonicalCode:
    """The canonical code of a Binomial(m, 1/2) increment, weights C(m, v):
    :func:`~rankprobe.coding.binomial_code`, which merges float log2
    weights and settles near ties exactly, so the lengths are those of
    the exact weights.  Cached by m."""
    return binomial_code(m)


def _increment_codes(queries: list) -> list:
    """Exact canonical codes for the detached answers, one per increment.

    The i-th detached answer minus the previous one is Binomial over the
    gap length, so the tables are a pure function of the segment lengths
    and are cached by length."""
    codes = []
    prev = 0
    for q in queries:
        codes.append(_binom_code(q + 1 - prev))  # query q answers Rank(q + 1)
        prev = q + 1
    return codes


# -- footprint codec ------------------------------------------------------
#
# Components 4 and 5 are coded under a condition: (detached answers,) for
# the reference footprint and (detached answers, reference answers) for
# the detached one.  The codes are looked up by condition: w-bit cells
# for every condition, or the exact ensemble codes.

class _CellCode:
    """Verbatim footprint code: each cell in w bits, under any condition."""

    def __init__(self, w: int):
        self.w = w

    def __getitem__(self, cond):
        return self

    def encode_symbol(self, out: BitString, cells: tuple) -> None:
        out.append_cells(cells, self.w)

    def decode_symbol(self, data: BitString, offset: int):
        count = (data.length - offset) // self.w
        return tuple(data.read_cells(offset, count, self.w)), offset + count * self.w


@functools.lru_cache
def _ensemble_tables(config: tuple, k: int, d: int):
    """Exact conditional footprint codes by full enumeration of the arrays
    of the length, each built into the layout `dict(config)` describes.

    Returns the codes by condition.  Cached by structure config; valid
    because probe addresses are data-independent, so the detached set
    and footprint lengths are the same for every array of the length."""
    params = dict(config)
    n = params["n"]
    if n > ENSEMBLE_LIMIT:
        raise RefusalError(
            f"ensemble tables need full enumeration; n capped at {ENSEMBLE_LIMIT}"
        )
    weights: dict = {}
    reference, detached = block_queries(n, k), detached_set(params, block_queries(n, k, d), {})
    for v in range(1 << n):
        layout = layout_from_params(BitArray.from_int(n, v), params)
        (ref, ref_cells), (det, det_cells) = (simulate_set(layout.step, q, layout.memory) for q in (reference, detached))
        det_ans = tuple(det.values())
        for cond, cells in (((det_ans,), ref_cells), ((det_ans, tuple(ref.values())), det_cells)):
            counts = weights.setdefault(cond, {})
            foot = tuple(cells.values())
            counts[foot] = counts.get(foot, 0) + 1

    return {cond: CanonicalCode.from_weights(w) for cond, w in weights.items()}


def _footprint_codes(ensemble: bool, params: dict, k: int, d: int):
    return _ensemble_tables(tuple(sorted(params.items())), k, d) if ensemble else _CellCode(params["word_bits"])


# -- encode ---------------------------------------------------------------

def _bootstrap_prefix(params: dict, ledger_bits: int) -> int:
    """Bits of the bootstrap prefix (the redundancy region's contents in
    address order, then the zero padding slack) that a published ledger
    of `ledger_bits` bits starts with: the prefix is there exactly when
    the length admits it with whole (address, content) pairs after.
    Returns 0 when it is not."""
    w = params["word_bits"]
    cell_count = params["cell_count"]
    prefix = cell_count * w - params["n"]  # the layout's redundancy bits
    pair = address_bits(cell_count) + w
    if prefix and ledger_bits >= prefix and (ledger_bits - prefix) % pair == 0:
        return prefix
    return 0


def _published_bits(layout: StructureLayout) -> BitString:
    """Canonical serialization of the published ledger (component 1).

    Raises RefusalError unless the bit length equals the ledger exactly
    and decoding would read the prefix back as it was written."""
    out = BitString()
    pub = layout.published
    w = layout.memory.word_bits
    if pub.bootstrapped:
        out.append_cells([pub.cells[a] for a in layout.redundancy_region], w)
        out.append_bits(0, layout.params["raw_cells"] * w - layout.n)
        extra = sorted(pub.cells.keys() - layout.redundancy_region)
    else:
        extra = sorted(pub.cells)
    shift = layout.memory.address_bits()
    dtype = np.uint64 if shift + w <= 64 else object
    out.append_cells(np.fromiter(map(pub.cells.__getitem__, extra), dtype, len(extra)) << shift | np.array(extra, dtype), shift + w)
    if out.length != pub.length:
        raise RefusalError(f"published ledger {pub.length} bits, serialized {out.length}: a record cannot carry it")
    if not pub.bootstrapped and _bootstrap_prefix(layout.params, pub.length):
        raise RefusalError(f"a {pub.length}-bit ledger of pairs reads as a bootstrap prefix: a record cannot carry it")
    return out


def encode(layout: StructureLayout, k: int, d: int | None = None, ensemble: bool = False) -> EncodingRecord:
    """Encode the layout's array as a six-component record.

    The reference and detached query sets are each simulated once; their
    answers and charged cells feed components 3 to 6.  The footprints are
    stored verbatim unless `ensemble` selects the codes built by
    enumerating every array of the length; those tables know only
    layouts with nothing published, so a layout with published cells is
    refused.  So is a published ledger the record cannot carry."""
    if d is None:
        d = choose_offset(layout, k)
    if not d:
        raise ValueError("offset 0 holds the reference queries, not a detached set")
    if ensemble and layout.published.cells:
        raise RefusalError("ensemble tables enumerate layouts with no published cells")

    (ref, ref_cells), (det, det_cells) = _simulate_sets(layout, k, d)
    det_answers = tuple(det.values())
    det_blocks = tuple(q // (layout.n // k) for q in det)

    comp2 = BitString()
    comp2.append_bits(len(det_blocks), subset_header_bits(k))
    idx = subset_rank(k, det_blocks)
    comp2.append_bits(idx, subset_index_bits(k, len(det_blocks)))

    comp3 = BitString()
    prev = 0
    for code, ans in zip(_increment_codes(det), det_answers):
        code.encode_symbol(comp3, ans - prev)
        prev = ans

    foot = _footprint_codes(ensemble, layout.params, k, d)
    comp6 = BitString()
    rest = np.ones(layout.memory.cell_count, dtype=bool)  # component 6 is every other cell, in address order
    rest[[*ref_cells, *det_cells]] = False
    comp6.append_cells(layout.memory.image[rest], layout.memory.word_bits)

    comp1 = _published_bits(layout)
    comp4, comp5 = BitString(), BitString()
    foot[(det_answers,)].encode_symbol(comp4, tuple(ref_cells.values()))
    foot[(det_answers, tuple(ref.values()))].encode_symbol(comp5, tuple(det_cells.values()))
    return EncodingRecord(comp1, comp2, comp3, comp4, comp5, comp6, offset=d)


# -- decode ---------------------------------------------------------------

def decode(record: EncodingRecord, params: dict, k: int, ensemble: bool = False) -> BitArray:
    """Rebuild the array from a record plus the structure config.

    Pass the `ensemble` flag the record was encoded with.  Parsing reads
    the published ledger, the detached set and answers, replays the
    reference footprint and then the detached one (whose ensemble code
    is conditioned on the reference answers), and takes each raw cell
    from the replays' charged cells or, where neither charged it, from
    component 6.  The array is the raw cells.  Raises CorruptEncoding
    unless encoding that array again, with the cells the record
    publishes, gives back every component of the record."""
    n = params["n"]
    w = params["word_bits"]
    cell_count = params["cell_count"]
    step = step_from_params(params)
    reference = block_queries(n, k)
    d = record.offset
    if not 0 < d < n // k:
        raise CorruptEncoding(f"offset {d} outside (0, {n // k})")
    foot = _footprint_codes(ensemble, params, k, d)

    try:
        # component 1: published ledger, a bootstrap prefix (region
        # contents, then padding slack) and a run of (address, content)
        # pairs, the address in the low bits of each
        comp1 = record.published
        prefix = _bootstrap_prefix(params, comp1.length)
        region = range(params["raw_cells"], cell_count) if prefix else range(0)
        published = PublishedBits(comp1.length, dict(zip(region, comp1.read_cells(0, len(region), w))), bool(prefix))
        shift = address_bits(cell_count)
        pairs = comp1.cell_array(prefix, (comp1.length - prefix) // (shift + w), shift + w)
        addresses = pairs & ((1 << shift) - 1)
        if (addresses >= cell_count).any():
            raise CorruptEncoding("published address out of range")
        published.cells.update(zip(addresses.tolist(), (pairs >> shift).tolist()))

        # component 2: detached set identity
        hdr = subset_header_bits(k)
        j = record.detached_id.read_bits(0, hdr)
        det_blocks = subset_unrank(k, j, record.detached_id.read_bits(hdr, subset_index_bits(k, j)))
        det = [b * (n // k) + d for b in det_blocks]  # the queries of block_queries(n, k, d) it names

        # component 3: detached answers, one increment code per block
        pos = prev = 0
        det_answers = []
        for code in _increment_codes(det):
            inc, pos = code.decode_symbol(record.detached_answers, pos)
            prev += inc
            det_answers.append(prev)
        det_answers = tuple(det_answers)

        # components 4 and 5: footprints, the reference set first
        f_ref = Footprint(foot[(det_answers,)].decode_symbol(record.foot_reference, 0)[0], w)
        ref_answers, seen_ref = replay_from_footprint(step, reference, f_ref, published)
        ref_cond = (det_answers, tuple(ref_answers.values()))
        f_det = Footprint(foot[ref_cond].decode_symbol(record.foot_detached, 0)[0], w)
        seen_det = replay_from_footprint(step, det, f_det, published)[1]

        # the raw cells: each a replay charged, else the next leading cell
        # of component 6, which holds every other cell in address order
        charged = seen_ref | seen_det
        hit = np.fromiter(charged, np.int64, len(charged))
        hit = hit[hit < params["raw_cells"]]
        rest = np.ones(params["raw_cells"], dtype=bool)
        rest[hit] = False
        cells = np.empty(params["raw_cells"], dtype=np.uint64 if w <= 64 else object)
        cells[hit] = [charged[a] for a in hit.tolist()]
        cells[rest] = record.remaining.cell_array(0, int(rest.sum()), w)
        array = BitArray.from_bytes(n, cells_to_bytes(cells, w))

        # the one acceptance rule: the record is the array's encoding
        rebuilt = layout_from_params(array, params)
        rebuilt.published = PublishedBits(comp1.length, dict(zip(published.cells, rebuilt.memory.gather([*published.cells]))), published.bootstrapped)
        again = encode(rebuilt, k, d, ensemble)
    except (ValueError, KeyError, CorruptFootprint, RefusalError) as e:
        raise CorruptEncoding(str(e)) from None
    for name, ours, theirs in zip(COMPONENTS, again.components, record.components):
        if ours != theirs:
            raise CorruptEncoding(f"{name} is not the encoding of the decoded array")
    return array


# -- size accounting ------------------------------------------------------

@dataclass
class SizeAccounting:
    """Mean component sizes of a batch of records, with the analytic
    deficit at their modal offset as the yardstick."""

    records: int
    n: int
    k: int
    mean_sizes: tuple
    mean_total: float
    deficit_reference: float  # analytic deficit at the modal offset
    modal_offset: int


def size_accounting(records: list, n: int, k: int) -> SizeAccounting:
    """Summarize a batch of records.  Refuses small samples: means over a
    handful of records would dress noise up as measurement."""
    if len(records) < MIN_RECORDS:
        raise RefusalError(f"need at least {MIN_RECORDS} records, got {len(records)}")
    sums = [0] * 6
    for r in records:
        for i, s in enumerate(r.sizes):
            sums[i] += s
    m = len(records)
    mean_sizes = tuple(s / m for s in sums)
    offsets = sorted(r.offset for r in records)
    modal = max(set(offsets), key=offsets.count)
    deficit = analytic_deficit(n, k, modal).deficit if n // k > modal > 0 else 0.0
    return SizeAccounting(
        records=m,
        n=n,
        k=k,
        mean_sizes=mean_sizes,
        mean_total=sum(mean_sizes),
        deficit_reference=deficit,
        modal_offset=modal,
    )
