"""Encoding argument engine.

The compression-versus-correlation experiment, run for real: encode a
bit array through the eyes of its own rank structure, decode it back,
and account for every bit.  A record has six components:

1. published bits (the free-bits ledger, verbatim),
2. the identity of the detached query set (size header + lexicographic
   subset index over blocks),
3. the detached answers (canonical per-increment binomial codes),
4. the footprint of the offset-0 reference queries,
5. the footprint of the detached queries,
6. every cell probed by neither, verbatim in address order.

Each query set is simulated once: its pass yields the answers, the
footprint and the charged cells that component 6 leaves out.  One
footprint codec writes and reads components 4 and 5.  By default it
stores the raw first-seen cell contents (exactly probed_cells *
word_bits bits), which works at any size.  With ``ensemble=True`` it is
the ensemble: exact conditional canonical codes built by enumerating
every array of the given length, honest only at enumerable sizes.

Decoding replays the recorded footprints through the structure's own
query generators and fills the untouched cells; a cell that two
components both carry must read the same in each.  The array is the raw
cells of the reconstructed memory.  The record is accepted only if
rebuilding the layout over that array
(:func:`~rankprobe.structures.layout_from_params`) gives back exactly
that memory, so stored counters, padding bits and raw cells can never
disagree.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .bits import BitArray, BitString, cells_to_bytes
from .coding import (
    CanonicalCode,
    subset_header_bits,
    subset_index_bits,
    subset_rank,
    subset_unrank,
)
from .errors import CorruptEncoding, CorruptFootprint, RefusalError
from .model import (
    Footprint,
    PublishedBits,
    QueryBlocks,
    replay_from_footprint,
    run_query,
    simulate_set,
)
from .structures import ProbePlan, StructureLayout, layout_from_params, step_from_params

RPE1_MAGIC = b"RPE1"
ENSEMBLE_LIMIT = 14


@dataclass
class EncodingRecord:
    """Six components plus the chosen offset.  Sizes are bit lengths; the
    component-sum identity total == sum(sizes) holds by construction and
    is re-checked on parse."""

    published: BitString
    detached_id: BitString
    detached_answers: BitString
    foot_reference: BitString
    foot_detached: BitString
    remaining: BitString
    offset: int

    @property
    def components(self) -> tuple:
        return (
            self.published,
            self.detached_id,
            self.detached_answers,
            self.foot_reference,
            self.foot_detached,
            self.remaining,
        )

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
    itself is excluded (it IS the reference)."""
    blocks = QueryBlocks(layout.n, k)
    bs = blocks.block_size
    if bs < 2:
        raise ValueError("blocks too small to hold a nonzero offset")
    ref_cells = ProbePlan(layout.params, blocks.offset_queries(0)).cells(layout.published_mask())
    # Row d - 1 holds offset d's queries.  The reference cells exclude the
    # published ones, so the reference cells a row reads are exactly the
    # charged cells it shares with the reference.
    offsets = np.arange(1, bs)[:, None] + bs * np.arange(k)
    overlap = ProbePlan(layout.params, offsets).row_hits(ref_cells)
    return int(np.argmin(overlap)) + 1


def _detached_traces(layout: StructureLayout, queries) -> list:
    """Greedy scan in increasing order keeping the traces of queries whose
    charged probes avoid every previously kept query's probes."""
    kept = []
    used: set = set()
    for q in sorted(queries):
        tr = run_query(layout.step, q, layout.memory, layout.published)
        addrs = set(tr.addresses)
        if addrs & used:
            continue
        kept.append(tr)
        used |= addrs
    return kept


def detached_queries(layout: StructureLayout, queries) -> list:
    """Greedy scan in increasing order keeping queries whose charged
    probes avoid every previously kept query's probes."""
    return [tr.query for tr in _detached_traces(layout, queries)]


def _simulate_sets(layout: StructureLayout, blocks: QueryBlocks, d: int):
    """The detached queries at offset `d`, then (answers in query order,
    charged cells) for the reference set and for the detached set.

    The reference set is simulated once by :func:`model.simulate_set`.
    The detached set comes from the greedy scan's own traces: their
    charged cells are pairwise disjoint, so a set pass would charge each
    query exactly the cells it charged alone, in the same order."""
    kept = _detached_traces(layout, blocks.offset_queries(d))
    answers, cells = simulate_set(layout.step, blocks.offset_queries(0), layout.memory, layout.published)
    det_cells = {a: c for tr in kept for a, c in tr.steps}
    return (
        [tr.query for tr in kept],
        (tuple(answers.values()), cells),
        (tuple(tr.answer for tr in kept), det_cells),
    )


# -- answer coding --------------------------------------------------------

_BINOM_CODE_CACHE: dict = {}


def _binom_code(m: int) -> CanonicalCode:
    code = _BINOM_CODE_CACHE.get(m)
    if code is None:
        weights = {}
        c = 1
        for v in range(m + 1):
            weights[v] = c  # C(m, v), by the running product
            c = c * (m - v) // (v + 1)
        code = CanonicalCode.from_weights(weights)
        _BINOM_CODE_CACHE[m] = code
    return code


def _increment_codes(n: int, bs: int, d: int, blocks: tuple) -> list:
    """Exact canonical codes for the detached answers, one per increment.

    The i-th detached answer minus the previous one is Binomial over the
    gap length, so the tables are a pure function of the segment lengths
    and are cached by length."""
    codes = []
    prev = 0
    for b in blocks:
        pos = b * bs + d + 1  # rank position answered by query b*bs + d
        codes.append(_binom_code(pos - prev))
        prev = pos
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
        count, rest = divmod(data.length - offset, self.w)
        if rest:
            raise CorruptEncoding("verbatim footprint not cell-aligned")
        return tuple(data.read_cells(offset, count, self.w)), data.length


_ENSEMBLE_CACHE: dict = {}


def _ensemble_tables(params: dict, k: int, d: int):
    """Exact conditional footprint codes by full enumeration of the arrays
    of the length, each built into the layout `params` describes.

    Returns (codes by condition, detached blocks).  Keyed by structure
    config; valid because probe addresses are data-independent, so the
    detached set and footprint lengths are the same for every array of
    the length."""
    n = params["n"]
    if n > ENSEMBLE_LIMIT:
        raise RefusalError(
            f"ensemble tables need full enumeration; n capped at {ENSEMBLE_LIMIT}"
        )
    key = (tuple(sorted(params.items())), k, d)
    hit = _ENSEMBLE_CACHE.get(key)
    if hit is not None:
        return hit

    blocks = QueryBlocks(n, k)
    weights: dict = {}
    det_blocks = None
    for v in range(1 << n):
        layout = layout_from_params(BitArray.from_int(n, v), params)
        det, (ref_ans, ref_cells), (det_ans, det_cells) = _simulate_sets(layout, blocks, d)
        db = tuple(q // blocks.block_size for q in det)
        if det_blocks is None:
            det_blocks = db
        elif det_blocks != db:
            raise CorruptEncoding("detached set varies with data")
        for cond, cells in (((det_ans,), ref_cells), ((det_ans, ref_ans), det_cells)):
            counts = weights.setdefault(cond, {})
            foot = tuple(cells.values())
            counts[foot] = counts.get(foot, 0) + 1

    tables = (
        {cond: CanonicalCode.from_weights(w) for cond, w in weights.items()},
        det_blocks,
    )
    _ENSEMBLE_CACHE[key] = tables
    return tables


def _footprint_codes(ensemble: bool, params: dict, k: int, d: int, det_blocks: tuple):
    if not ensemble:
        return _CellCode(params["word_bits"])
    codes, expected_blocks = _ensemble_tables(params, k, d)
    if expected_blocks != det_blocks:
        raise CorruptEncoding("detached set disagrees with ensemble tables")
    return codes


def _write_footprint(codes, cond, cells: dict) -> BitString:
    out = BitString()
    codes[cond].encode_symbol(out, tuple(cells.values()))
    return out


def _read_footprint(codes, cond, comp: BitString, w: int, name: str) -> Footprint:
    try:
        cells, used = codes[cond].decode_symbol(comp, 0)
    except (KeyError, ValueError) as e:
        raise CorruptEncoding(str(e)) from None
    if used != comp.length:
        raise CorruptEncoding(f"{name} footprint overlong")
    return Footprint(cells, len(cells), w)


# -- encode ---------------------------------------------------------------

def _published_bits(layout: StructureLayout) -> BitString:
    """Canonical serialization of the published ledger.

    Bootstrap publishing (the redundancy region plus padding slack) is
    laid out as region contents in address order then zero padding;
    anything published later by address arrives as (address, content)
    pairs.  The bit length always equals the ledger exactly."""
    out = BitString()
    pub = layout.published
    w = layout.memory.word_bits
    if pub.bootstrapped:
        out.append_cells([pub.cells[a] for a in layout.redundancy_region], w)
        pad = layout.params["raw_cells"] * w - layout.n
        out.append_bits(0, pad)
        region = set(layout.redundancy_region)
        extra = sorted(a for a in pub.cells if a not in region)
    else:
        extra = sorted(pub.cells)
    addr_bits = layout.memory.address_bits()
    for a in extra:
        out.append_bits(a, addr_bits)
        out.append_bits(pub.cells[a], w)
    if out.length != pub.length:
        raise CorruptEncoding(
            f"published ledger {pub.length} bits, serialized {out.length}"
        )
    return out


def encode(layout: StructureLayout, k: int, d: int | None = None, ensemble: bool = False) -> EncodingRecord:
    """Encode the layout's array as a six-component record.

    The reference and detached query sets are each simulated once; their
    answers and charged cells feed components 3 to 6.  The footprints are
    stored verbatim unless `ensemble` selects the codes built by
    enumerating every array of the length."""
    n = layout.n
    blocks = QueryBlocks(n, k)
    bs = blocks.block_size
    if d is None:
        d = choose_offset(layout, k)
    if not 0 < d < bs:
        raise ValueError(f"offset {d} outside (0, {bs})")

    det, (ref_answers, ref_cells), (det_answers, det_cells) = _simulate_sets(layout, blocks, d)
    det_blocks = tuple(q // bs for q in det)

    comp2 = BitString()
    comp2.append_bits(len(det_blocks), subset_header_bits(k))
    idx = subset_rank(k, det_blocks)
    comp2.append_bits(idx, subset_index_bits(k, len(det_blocks)))

    comp3 = BitString()
    codes = _increment_codes(n, bs, d, det_blocks)
    prev = 0
    for code, ans in zip(codes, det_answers):
        code.encode_symbol(comp3, ans - prev)
        prev = ans

    foot = _footprint_codes(ensemble, layout.params, k, d, det_blocks)
    w = layout.memory.word_bits
    comp6 = BitString()
    comp6.append_cells([c for a, c in enumerate(layout.memory.cells) if a not in ref_cells and a not in det_cells], w)

    return EncodingRecord(
        published=_published_bits(layout),
        detached_id=comp2,
        detached_answers=comp3,
        foot_reference=_write_footprint(foot, (det_answers,), ref_cells),
        foot_detached=_write_footprint(foot, (det_answers, ref_answers), det_cells),
        remaining=comp6,
        offset=d,
    )


# -- decode ---------------------------------------------------------------

def decode(record: EncodingRecord, params: dict, k: int, ensemble: bool = False) -> BitArray:
    """Rebuild the array from a record plus the structure config.

    Pass the `ensemble` flag the record was encoded with.  The reference
    footprint is read and replayed before the detached one, whose
    ensemble code is conditioned on the reference answers.  Raises
    CorruptEncoding unless the record is exactly the encoding of the
    array it decodes to."""
    n = params["n"]
    w = params["word_bits"]
    cell_count = params["cell_count"]
    step = step_from_params(params)
    blocks = QueryBlocks(n, k)
    bs = blocks.block_size
    d = record.offset
    if not 0 < d < bs:
        raise CorruptEncoding(f"offset {d} outside (0, {bs})")

    # component 1: published ledger.  A bootstrap prefix (region contents
    # in address order plus zero padding slack) is present exactly when
    # the length admits it with (address, content) pairs after; a fresh
    # layout has an empty ledger and parses trivially.
    published = PublishedBits()
    comp1 = record.published
    pos = 0
    region = range(params.get("abs_base", cell_count), cell_count)
    addr_bits = max(1, (cell_count - 1).bit_length())
    pad = params["raw_cells"] * w - n
    boot_bits = len(region) * w + pad
    if (
        boot_bits
        and comp1.length >= boot_bits
        and (comp1.length - boot_bits) % (addr_bits + w) == 0
    ):
        published.cells.update(zip(region, comp1.read_cells(0, len(region), w)))
        pos = len(region) * w
        if comp1.read_bits(pos, pad):
            raise CorruptEncoding("padding slack bits not zero")
        pos += pad
        published.bootstrapped = True
    if (comp1.length - pos) % (addr_bits + w):
        raise CorruptEncoding("published ledger has a partial entry")
    # pairs come in increasing address order, outside a bootstrapped region
    end = region.start if published.bootstrapped else cell_count
    prev = -1
    while pos < comp1.length:
        a = comp1.read_bits(pos, addr_bits)
        pos += addr_bits
        if a >= end:
            raise CorruptEncoding("published address out of range")
        if a <= prev:
            raise CorruptEncoding("published addresses not increasing")
        prev = a
        published.cells[a] = comp1.read_bits(pos, w)
        pos += w
    published.length = comp1.length

    # component 2: detached set identity
    comp2 = record.detached_id
    hdr = subset_header_bits(k)
    if comp2.length < hdr:
        raise CorruptEncoding("detached-id header truncated")
    j = comp2.read_bits(0, hdr)
    if j > k:
        raise CorruptEncoding("detached set larger than block count")
    idx_bits = subset_index_bits(k, j)
    if comp2.length != hdr + idx_bits:
        raise CorruptEncoding("detached-id length mismatch")
    try:
        det_blocks = subset_unrank(k, j, comp2.read_bits(hdr, idx_bits))
    except ValueError as e:
        raise CorruptEncoding(str(e)) from None
    det = [b * bs + d for b in det_blocks]

    # component 3: detached answers
    comp3 = record.detached_answers
    codes = _increment_codes(n, bs, d, det_blocks)
    pos = 0
    det_answers = []
    prev = 0
    try:
        for code in codes:
            inc, pos = code.decode_symbol(comp3, pos)
            prev += inc
            det_answers.append(prev)
    except ValueError as e:
        raise CorruptEncoding(str(e)) from None
    if pos != comp3.length:
        raise CorruptEncoding("detached answers overlong")
    det_answers = tuple(det_answers)

    # components 4 and 5: footprints, the reference set first
    foot = _footprint_codes(ensemble, params, k, d, det_blocks)
    ref_q = blocks.offset_queries(0)
    f_ref = _read_footprint(foot, (det_answers,), record.foot_reference, w, "reference")
    ref_answers, seen_ref = _replay(step, ref_q, f_ref, published)
    ref_cond = (det_answers, tuple(ref_answers.values()))
    f_det = _read_footprint(foot, ref_cond, record.foot_detached, w, "detached")
    det_replay, seen_det = _replay(step, det, f_det, published)

    for q, ans in zip(det, det_answers):
        if det_replay[q] != ans:
            raise CorruptEncoding(
                f"replayed answer {det_replay[q]} != recorded {ans} at query {q}"
            )

    # component 6: everything probed by neither query set.  The encoder's
    # probe union counts charged probes only, so published cells that were
    # read for free are carried here as well; where comp1 already revealed
    # them the two copies must agree.
    recovered = {a for a in seen_ref if a not in published.cells}
    recovered.update(a for a in seen_det if a not in published.cells)
    cells = dict(published.cells)
    cells.update(seen_ref)
    for a, val in seen_det.items():
        if cells.setdefault(a, val) != val:
            raise CorruptEncoding(f"cell {a} disagrees between the footprints")
    comp6 = record.remaining
    rest = [a for a in range(cell_count) if a not in recovered]
    if len(rest) * w > comp6.length:
        raise CorruptEncoding("remaining-cells component truncated")
    if len(rest) * w < comp6.length:
        raise CorruptEncoding("remaining-cells component overlong")
    for a, val in zip(rest, comp6.read_cells(0, len(rest), w)):
        if cells.get(a, val) != val:
            raise CorruptEncoding(f"cell {a} disagrees with published copy")
        cells[a] = val

    memory = [cells[a] for a in range(cell_count)]
    raw = np.frombuffer(cells_to_bytes(memory[: params["raw_cells"]], w), dtype=np.uint8)
    array = BitArray.from_bits(np.unpackbits(raw, count=n, bitorder="little"))
    if layout_from_params(array, params).memory.cells != memory:
        raise CorruptEncoding("memory is not the layout of its own raw cells")
    return array


def _replay(step, queries, footprint: Footprint, published: PublishedBits):
    try:
        return replay_from_footprint(step, queries, footprint, published)
    except CorruptFootprint as e:
        raise CorruptEncoding(str(e)) from None


# -- size accounting ------------------------------------------------------

@dataclass
class SizeAccounting:
    """Empirical component sizes against their analytic yardsticks."""

    records: int
    n: int
    k: int
    mean_sizes: tuple
    mean_total: float
    mean_published: float
    detached_id_reference: float  # lg C(k, ceil(eps*k)) + header slack
    deficit_reference: float      # analytic deficit at the modal offset
    modal_offset: int


def size_accounting(records: list, n: int, k: int, epsilon: float = 0.05, min_records: int = 100) -> SizeAccounting:
    """Summarize a batch of records.  Refuses small samples: means over a
    handful of records would dress noise up as measurement."""
    if len(records) < min_records:
        raise RefusalError(
            f"need at least {min_records} records, got {len(records)}"
        )
    from .entropy import analytic_deficit

    sums = [0] * 6
    for r in records:
        for i, s in enumerate(r.sizes):
            sums[i] += s
    m = len(records)
    mean_sizes = tuple(s / m for s in sums)
    offsets = sorted(r.offset for r in records)
    modal = max(set(offsets), key=offsets.count)
    j = max(1, math.ceil(epsilon * k))
    ref_bits = math.log2(math.comb(k, j)) if j <= k else 0.0
    ref_bits += subset_header_bits(k)
    deficit = analytic_deficit(n, k, modal).deficit if n // k > modal > 0 else 0.0
    return SizeAccounting(
        records=m,
        n=n,
        k=k,
        mean_sizes=mean_sizes,
        mean_total=sum(mean_sizes),
        mean_published=mean_sizes[0],
        detached_id_reference=ref_bits,
        deficit_reference=deficit,
        modal_offset=modal,
    )
