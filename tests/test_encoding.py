import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankprobe import encoding
from rankprobe.bits import BitArray, BitString
from rankprobe.encoding import (
    EncodingRecord,
    CorruptEncoding,
    choose_offset,
    encode,
    decode,
    size_accounting,
)
from rankprobe.encoding import _simulate_sets
from rankprobe.elimination import run_elimination
from rankprobe.entropy import binom_entropy
from rankprobe.errors import RefusalError
from rankprobe.model import PublishedBits
from rankprobe.structures import block_queries, build_naive, build_recursive, build_two_level, detached_pass, layout_from_params, simulate_set
from oracles import greedy_scan, probes_of_set, run_query
from test_set_pass import layouts as set_pass_layouts


def roundtrip(layout, k, **kw):
    rec = encode(layout, k, **kw)
    back = decode(rec, layout.params, k, ensemble=kw.get("ensemble", False))
    return rec, back


def test_verbatim_roundtrip_exhaustive_n10():
    for v in range(1 << 10):
        a = BitArray.from_int(10, v)
        layout = build_two_level(a)
        rec, back = roundtrip(layout, 2, d=2)
        assert back.to_int() == v
        assert rec.total_bits == sum(rec.sizes)


def test_roundtrip_across_structures():
    rng = np.random.default_rng(0)
    for v in rng.integers(0, 1 << 12, size=15):
        a = BitArray.from_int(12, int(v))
        for layout in (build_naive(a), build_two_level(a), build_recursive(a, 1)):
            rec, back = roundtrip(layout, 3, d=2)
            assert back.to_int() == int(v), layout.kind


def test_roundtrip_bootstrapped():
    rng = np.random.default_rng(1)
    for v in rng.integers(0, 1 << 12, size=10):
        a = BitArray.from_int(12, int(v))
        layout = build_two_level(a)
        layout.publish_redundancy()
        rec, back = roundtrip(layout, 3, d=2)
        assert back.to_int() == int(v)
        assert rec.sizes[0] == layout.redundancy_bits  # ledger match


def test_roundtrip_chosen_offset():
    a = BitArray.from_int(12, 0b101100111010)
    layout = build_two_level(a)
    d = choose_offset(layout, 3)
    assert 0 < d < 4
    rec, back = roundtrip(layout, 3)
    assert rec.offset == d
    assert back.to_int() == a.to_int()


def test_detached_queries_disjoint():
    a = BitArray.random(1 << 12, np.random.default_rng(2))
    layout = build_two_level(a)
    qs = [b * (layout.n // 8) + 2 for b in range(8)]
    det = list(detached_pass(layout.step, qs, layout.memory, layout.published)[0])
    assert det and det[0] == min(qs)
    used = set()
    for q in det:
        tr = run_query(layout.step, q, layout.memory, layout.published)
        addrs = set(tr.addresses)
        assert not (addrs & used)
        used |= addrs


def test_rpe1_roundtrip():
    a = BitArray.from_int(12, 0x5A5)
    layout = build_two_level(a)
    rec = encode(layout, 3, d=2)
    blob = rec.to_rpe1()
    rec2 = EncodingRecord.from_rpe1(blob)
    assert rec2.offset == rec.offset
    assert [c.to_bytes() for c in rec2.components] == [c.to_bytes() for c in rec.components]
    assert rec2.sizes == rec.sizes
    assert decode(rec2, layout.params, 3).to_int() == a.to_int()


def test_all_zero_rpe1_roundtrip():
    # every detached answer is 0, the rarest value of its increment code,
    # so component 3 is a run of the longest codewords
    n = 1 << 16
    a = BitArray.from_bits(np.zeros(n, dtype=np.uint8))
    layout = build_two_level(a)
    rec = EncodingRecord.from_rpe1(encode(layout, 16).to_rpe1())
    assert rec.detached_answers.length > n // 2
    back = decode(rec, layout.params, 16)
    assert back.n == n and not back.to_bits().any()


def test_rpe1_rejects_corruption():
    a = BitArray.from_int(12, 77)
    layout = build_two_level(a)
    blob = encode(layout, 3, d=2).to_rpe1()
    with pytest.raises(CorruptEncoding):
        EncodingRecord.from_rpe1(b"XXXX" + blob[4:])
    with pytest.raises(CorruptEncoding):
        EncodingRecord.from_rpe1(blob[:10])
    with pytest.raises(CorruptEncoding):
        EncodingRecord.from_rpe1(blob[:-3])
    with pytest.raises(CorruptEncoding):
        EncodingRecord.from_rpe1(blob + b"\x00")


def test_decode_rejects_bad_offset():
    a = BitArray.from_int(12, 99)
    layout = build_two_level(a)
    rec = encode(layout, 3, d=2)
    rec.offset = 4  # block size at k=3 is 4; offsets live in (0, 4)
    with pytest.raises(CorruptEncoding):
        decode(rec, layout.params, 3)


def test_decode_rejects_oversize_detached_set():
    a = BitArray.from_int(12, 99)
    layout = build_two_level(a)
    rec = encode(layout, 4, d=1)
    bad = BitString()
    bad.append_bits(7, 3)  # claims 7 detached blocks out of 4
    rec.detached_id = bad
    with pytest.raises(CorruptEncoding):
        decode(rec, layout.params, 4)


def test_decode_rejects_swapped_answers():
    ones = BitArray.from_int(12, (1 << 12) - 1)
    zeros = BitArray.from_int(12, 0)
    rec_ones = encode(build_two_level(ones), 3, d=2)
    rec_zeros = encode(build_two_level(zeros), 3, d=2)
    # same structure geometry, so the swapped component parses cleanly;
    # the replayed-answer cross-check has to catch it
    rec_zeros.detached_answers = rec_ones.detached_answers
    with pytest.raises(CorruptEncoding):
        decode(rec_zeros, build_two_level(zeros).params, 3)


def test_decode_rejects_truncated_remaining():
    # geometry with cells outside the probe union, so the component is live
    a = BitArray.random(256, np.random.default_rng(9))
    layout = build_two_level(a)
    rec = encode(layout, 2, d=1)
    w = layout.memory.word_bits
    assert rec.remaining.length >= 2 * w
    cut = BitString()
    for i in range((rec.remaining.length // w) - 1):
        cut.append_bits(rec.remaining.read_bits(i * w, w), w)
    whole = rec.remaining
    rec.remaining = cut
    with pytest.raises(CorruptEncoding):
        decode(rec, layout.params, 2)
    over = BitString()
    for i in range(whole.length // w):
        over.append_bits(whole.read_bits(i * w, w), w)
    over.append_bits(0, w)
    rec.remaining = over
    with pytest.raises(CorruptEncoding):
        decode(rec, layout.params, 2)


def test_decode_rejects_overlong_footprint():
    layout = build_two_level(BitArray.random(4096, np.random.default_rng(0)))
    rec = encode(layout, 4, d=512)
    assert decode(rec, layout.params, 4) == BitArray.random(4096, np.random.default_rng(0))
    w = layout.memory.word_bits
    longer = BitString()
    for i in range(rec.foot_reference.length // w):
        longer.append_bits(rec.foot_reference.read_bits(i * w, w), w)
    longer.append_bits(0, w)
    rec.foot_reference = longer
    assert rec.total_bits == 5215 + w
    with pytest.raises(CorruptEncoding):
        decode(rec, layout.params, 4)


@pytest.mark.parametrize("bit", [63, 10], ids=["past-int64", "plausible-rank"])
def test_decode_rejects_corrupt_counter(bit):
    # decode rebuilds the layout over the raw cells and compares memories,
    # so a corrupt absolute counter must surface even though the raw bits
    # alone still spell the array.  The last counter holds Rank(n); it is
    # probed by neither query set, so the record carries it in the
    # remaining-cells component.
    layout = build_two_level(BitArray.random(4096, np.random.default_rng(0)))
    rec = encode(layout, 4, d=512)
    det = list(detached_pass(layout.step, [b * 1024 + 512 for b in range(4)], layout.memory, layout.published)[0])
    probed = set()
    for qs in ([b * 1024 for b in range(4)], det):
        probed |= probes_of_set(layout.step, qs, layout.memory, layout.published)[1]
    carried = [a for a in range(layout.memory.cell_count) if a not in probed]
    counter = layout.params["rel_base"] - 1
    assert counter in carried
    at = carried.index(counter) * layout.memory.word_bits + bit
    rec.remaining = BitString(rec.remaining.value ^ (1 << at), rec.remaining.length)
    with pytest.raises(CorruptEncoding):
        decode(rec, layout.params, 4)


def test_decode_rejects_noncanonical_published_pairs():
    # (address, content) pairs after the bootstrap prefix are written in
    # increasing address order and never name a cell of the region
    layout = build_two_level(BitArray.random(4096, np.random.default_rng(0)))
    layout.publish_redundancy()
    layout.published.publish_cells(layout.memory, [40, 7])
    rec = encode(layout, 4, d=512)
    assert decode(rec, layout.params, 4) == BitArray.random(4096, np.random.default_rng(0))
    w = layout.memory.word_bits
    addr_bits = layout.memory.address_bits()
    prefix = len(layout.redundancy_region) * w
    pair = addr_bits + w
    assert rec.published.length == prefix + 2 * pair

    def ledger(*pairs):
        out = BitString()
        out.append_bits(rec.published.read_bits(0, prefix), prefix)
        for a in pairs:  # a pair past the last cell holds zero
            out.append_bits(a, addr_bits)
            out.append_bits(layout.memory.cells[a] if a < layout.memory.cell_count else 0, w)
        return out

    assert ledger(7, 40) == rec.published
    assert (layout.memory.cell_count, addr_bits) == (81, 7)
    region_cell = layout.redundancy_region.start
    length = rec.published.length
    bad_ledgers = (
        ledger(40, 7),
        ledger(7, 7, 40),
        ledger(7, 40, region_cell),
        BitString(rec.published.value & ((1 << (length - 1)) - 1), length - 1),  # pair run a bit short
        BitString(rec.published.value, length + 1),  # a zero bit past the run
        ledger(7, 40, 81),  # 7 address bits name cells past the 81 there are
        ledger(7, 40, 127),
    )
    for bad in bad_ledgers:
        rec.published = bad
        with pytest.raises(CorruptEncoding):
            decode(rec, layout.params, 4)


def test_published_array_addresses_encode_as_a_list():
    # np.flatnonzero over a plan's cell mask gives numpy ints; the ledger
    # keeps Python ints, so each (address, content) pair shifts past 64
    # bits as it does for a list
    array = BitArray.random(4096, np.random.default_rng(0))
    layouts = [build_two_level(array) for _ in range(2)]
    layouts[0].published.publish_cells(layouts[0].memory, np.array([3, 70]))
    layouts[1].published.publish_cells(layouts[1].memory, [3, 70])
    ledgers = [layout.published for layout in layouts]
    assert ledgers[0] == ledgers[1] and all(type(a) is int for a in ledgers[0].cells)
    records = [encode(layout, 4) for layout in layouts]
    assert records[0] == records[1]
    assert records[0].sizes == (142, 3, 27, 448, 256, 4480)
    for rec, layout in zip(records, layouts):
        assert decode(rec, layout.params, 4) == array


def _random_layout(build, n, seed, **kw):
    return build(BitArray.random(n, np.random.default_rng(seed)), **kw)


def _bootstrapped(layout, cells=()):
    layout.publish_redundancy()
    layout.published.publish_cells(layout.memory, cells)
    return layout


# sha256 of the .rpe1 bytes: (layout, k, offset or None to choose it,
# ensemble footprints, digest)
RPE1_PINS = {
    "bench-geometry-offset-511": (
        lambda: _random_layout(build_two_level, 1 << 16, 0), 16, None, False,
        "7e450e4b278af76290879b2fa7217d15fa7f34bc8e784a2706572dbd4fdb53d5",
    ),
    "bootstrapped-two-level": (
        lambda: _bootstrapped(_random_layout(build_two_level, 4096, 1)), 4, 512, False,
        "b47be329de62e58dd8b72dd37fc7336bfc47215560c5f761eb65319ad525f6b5",
    ),
    "w96-384-96": (
        lambda: _random_layout(build_two_level, 4096, 2, superblock=384, block=96, word_bits=96),
        4, None, False,
        "13fcbe9fb0e1f9f92deb1b0121cc279b2642deec07b8077725eb415ec5598e32",
    ),
    "naive-w8": (
        lambda: _random_layout(build_naive, 4096, 3, word_bits=8), 4, None, False,
        "99cd843a9b3923fd3bc3fb1a7bf84039aeafe15521fbc912685aa76a74e7d8a9",
    ),
    "recursive-t2": (
        lambda: _random_layout(build_recursive, 4096, 4, t=2), 4, 700, False,
        "b12321eedcac2fbb79946aa19d87a87ab4fedc7b5a296800986962c512e13ead",
    ),
    "bootstrapped-pairs": (
        lambda: _bootstrapped(_random_layout(build_two_level, 4096, 1), [40, 7, 46]), 4, 512, False,
        "ae3e00a0dbf0629df850b82ee5311de6c8216b0ed68cdb0773284a5eaa425a86",
    ),
    "w96-bootstrapped-pairs": (  # 102-bit pairs, past the codec's 64-bit cells
        lambda: _bootstrapped(_random_layout(build_two_level, 4096, 2, superblock=384, block=96, word_bits=96), [0, 5, 17]),
        4, None, False,
        "d8a573a2e2908fa13965719ca125f2641dd2f1e7e4b545aeb4a7ce4bf956c042",
    ),
    "ensemble-n12": (
        lambda: build_two_level(BitArray.from_int(12, 0b101100111010)), 3, 2, True,
        "9cfabbcc97a082bcd37c7ca1a2cd680610334aa1826996fd81202b8214272e89",
    ),
}


@pytest.mark.parametrize("case", list(RPE1_PINS))
def test_rpe1_bytes_pinned(case):
    make, k, d, ensemble, digest = RPE1_PINS[case]
    rec = encode(make(), k, d, ensemble)
    assert hashlib.sha256(rec.to_rpe1()).hexdigest() == digest


def assert_detached_pass_is_greedy(layout, k, d):
    """The greedy pass keeps the queries a scan over single-query traces
    keeps, and gives what a set pass over them gives, in the same order.
    Returns the kept queries."""
    _, (answers, cells) = _simulate_sets(layout, k, d)
    kept = greedy_scan(layout, block_queries(layout.n, k, d).tolist())[0]
    assert list(answers) == kept
    want_answers, want_cells = simulate_set(layout.step, kept, layout.memory, layout.published)
    assert list(answers.items()) == list(want_answers.items())
    assert list(cells.items()) == list(want_cells.items())
    return kept


@pytest.mark.parametrize("case", list(RPE1_PINS))
def test_detached_pass_on_pinned_records(case):
    make, k, d, _, _ = RPE1_PINS[case]
    layout = make()
    if d is None:
        d = choose_offset(layout, k)
    assert_detached_pass_is_greedy(layout, k, d)


@settings(max_examples=200, deadline=None)
@given(case=set_pass_layouts(), data=st.data())
def test_detached_pass_on_published_states(case, data):
    _, layout = case
    n = layout.n
    assume(n >= 2)
    k = data.draw(st.integers(1, n // 2))
    assert_detached_pass_is_greedy(layout, k, data.draw(st.integers(1, n // k - 1)))


def test_detached_pass_relative_cell_across_superblocks():
    # Recursive stage 1 at w = 32 packs 3 relative counters a cell but
    # has 7 a superblock, so one relative cell serves two superblocks.
    # With the absolute counters published, query 576 (block 1 of the
    # second superblock) shares a relative cell with the kept query 450
    # (block 7 of the first) but no cell with 520, the last query kept
    # before it, which has no relative counter: the greedy drops it.
    layout = _random_layout(build_recursive, 1151, 0, t=1, word_bits=32)
    params = layout.params
    assert (params["per_cell"], params["ratio"]) == (3, 8)
    layout.published.publish_cells(layout.memory, range(params["raw_cells"], params["rel_base"]))
    assert assert_detached_pass_is_greedy(layout, 79, 2) == [2, 72, 268, 450, 520, 716, 898, 1024]


# sha256 over _binom_code(m) for m = 1..256, 1000, 2049 and 4097: every
# symbol's length and codeword, then the bits encode_symbol writes for a
# sweep of answers from 0 to m
BINOM_CODES_SHA256 = "41069a4ade496b6aa009b3689bafbd420e3f848a5e6f4c9597c2d27d50f49ebf"


def test_binom_codes_pinned():
    digest = hashlib.sha256()
    for m in [*range(1, 257), 1000, 2049, 4097]:
        code = encoding._binom_code(m)
        digest.update("".join(f"{v}:{code.lengths[v]}:{code.codeword(v):x};" for v in range(m + 1)).encode())
        sweep = sorted({*range(0, m + 1, max(1, m // 32)), m // 2, m})
        out = BitString()
        for v in sweep:
            code.encode_symbol(out, v)
        digest.update(out.to_bytes())
        pos = 0
        for v in sweep:
            got, pos = code.decode_symbol(out, pos)
            assert got == v
        assert pos == out.length
    assert digest.hexdigest() == BINOM_CODES_SHA256


def test_binom_code_memory_bounded():
    # The merge holds only its live queue of big ints and the code keeps
    # lengths, not codewords.  Traced peak at m = 8192: 3.0 MiB; building
    # the m + 1 weights and every codeword as big ints peaked at 14.0 MiB.
    encoding._binom_code.cache_clear()
    tracemalloc.start()
    try:
        encoding._binom_code(8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        encoding._binom_code.cache_clear()
    assert peak < 6 << 20


def test_memo_caches_are_functools_caches():
    # answer codes and ensemble tables are big, so their caches are
    # bounded; h(m) is one float per m and keeps every entry
    assert encoding._binom_code.cache_info().maxsize is not None
    assert encoding._ensemble_tables.cache_info().maxsize is not None
    assert binom_entropy.cache_info().maxsize is None
    caches = (encoding._binom_code, encoding._ensemble_tables)
    layout = build_two_level(BitArray.from_int(12, 0b101100111010))
    first = encode(layout, 3, 2, ensemble=True)
    before = [c.cache_info() for c in caches]
    assert encode(layout, 3, 2, ensemble=True) == first
    for b, a in zip(before, (c.cache_info() for c in caches)):
        assert a.hits > b.hits and (a.misses, a.currsize) == (b.misses, b.currsize)


def assert_canonical_or_rejected(layout, k, ensemble, blob):
    """Either the .rpe1 bytes are refused, or they decode to an array
    whose encoding (same layout, published state, k and offset) is
    exactly those bytes."""
    try:
        rec = EncodingRecord.from_rpe1(blob)
        array = decode(rec, layout.params, k, ensemble)
    except CorruptEncoding:
        return
    again = layout_from_params(array, layout.params)
    pub = layout.published
    again.published = PublishedBits(pub.length, {a: again.memory.read(a) for a in pub.cells}, pub.bootstrapped)
    assert encode(again, k, rec.offset, ensemble).to_rpe1() == blob


@functools.cache
def pinned_record(case):
    make, k, d, ensemble, _ = RPE1_PINS[case]
    layout = make()
    return layout, k, ensemble, encode(layout, k, d, ensemble).to_rpe1()


def flip_bit(blob, bit):
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@settings(max_examples=500, deadline=None)
@given(
    case=st.sampled_from(list(RPE1_PINS)),
    kind=st.sampled_from(["flip", "truncate", "insert"]),
    at=st.floats(0, 1, exclude_max=True),
    byte=st.integers(0, 255),
)
def test_rpe1_mutations_rejected_or_canonical(case, kind, at, byte):
    layout, k, ensemble, blob = pinned_record(case)
    if kind == "flip":
        blob = flip_bit(blob, int(at * 8 * len(blob)))
    elif kind == "truncate":
        blob = blob[: int(at * len(blob))]
    else:
        cut = int(at * (len(blob) + 1))
        blob = blob[:cut] + bytes([byte]) + blob[cut:]
    assert_canonical_or_rejected(layout, k, ensemble, blob)


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 300]),
    kind=st.sampled_from(["flip", "truncate", "insert"]),
    at=st.floats(0, 1, exclude_max=True),
    byte=st.sampled_from([0x00, 0x01, 0x80, 0xFF]),
)
def test_rpl1_mutations_rejected_or_canonical(n, kind, at, byte):
    # the .rpl1 reader either refuses a mutated file or reads an array
    # that writes back to exactly the same bytes
    blob = BitArray.random(n, np.random.default_rng(n)).to_rpl1()
    if kind == "flip":
        blob = flip_bit(blob, int(at * 8 * len(blob)))
    elif kind == "truncate":
        blob = blob[: int(at * len(blob))]
    else:
        cut = int(at * (len(blob) + 1))
        blob = blob[:cut] + bytes([byte]) + blob[cut:]
    try:
        array = BitArray.from_rpl1(blob)
    except ValueError:
        return
    assert array.to_rpl1() == blob


def component_bit(rec, index, bit):
    """Position in the .rpe1 bytes, in bits, of bit `bit` of component `index`."""
    start = 4 + sum(8 + (c.length + 7) // 8 for c in rec.components[:index]) + 8
    return 8 * start + bit


@pytest.mark.parametrize(
    "make,k,d,component,bit",
    [
        # naive cell 0 is in both footprints; the detached query (position
        # 3) never reads bits 4-7 of its copy
        *[(lambda: _random_layout(build_naive, 512, 0, word_bits=8), 4, 3, 4, b) for b in range(4, 8)],
        # a raw bit carried in the remaining cells, against the counters
        (lambda: _random_layout(build_two_level, 4096, 0), 4, 512, 5, 28),
    ],
    ids=["naive-shared-cell-bit4", "naive-shared-cell-bit5", "naive-shared-cell-bit6", "naive-shared-cell-bit7", "two-level-remaining-bit28"],
)
def test_decode_rejects_flip(make, k, d, component, bit):
    layout = make()
    rec = encode(layout, k, d)
    blob = flip_bit(rec.to_rpe1(), component_bit(rec, component, bit))
    with pytest.raises(CorruptEncoding):
        decode(EncodingRecord.from_rpe1(blob), layout.params, k)
    assert_canonical_or_rejected(layout, k, False, blob)


def test_ensemble_roundtrip_and_compression():
    verbatim_foot = 0
    ensemble_foot = 0
    total = 0
    for v in range(1 << 8):
        a = BitArray.from_int(8, v)
        layout = build_two_level(a)
        rec_v = encode(layout, 2, d=2)
        rec_e = encode(layout, 2, d=2, ensemble=True)
        back = decode(rec_e, layout.params, 2, ensemble=True)
        assert back.to_int() == v
        verbatim_foot += rec_v.sizes[3] + rec_v.sizes[4]
        ensemble_foot += rec_e.sizes[3] + rec_e.sizes[4]
        total += rec_e.total_bits
    assert ensemble_foot < verbatim_foot
    mean_total = total / 256
    assert mean_total == pytest.approx(15.125)  # frozen: exhaustive, deterministic
    assert mean_total >= 8 - 0.01  # can't beat the source entropy on average


def test_ensemble_refuses_large_n():
    a = BitArray.random(1 << 6, np.random.default_rng(3))
    layout = build_two_level(a)
    with pytest.raises(RefusalError):
        encode(layout, 4, d=2, ensemble=True)


def test_encode_refuses_ledger_read_as_bootstrap_prefix():
    # four pairs of 68 bits are exactly the 272-bit bootstrap prefix of
    # this geometry (4 counter cells plus 16 bits of padding slack), so
    # decode could not tell the ledger from a bootstrapped one
    array = BitArray.random(624, np.random.default_rng(0))
    layout = build_two_level(array)
    layout.published.publish_cells(layout.memory, [0, 1, 2])
    assert decode(encode(layout, 4, 1), layout.params, 4) == array
    layout.published.publish_cells(layout.memory, [3])
    assert layout.published.length == 272 == layout.redundancy_bits
    with pytest.raises(RefusalError):
        encode(layout, 4, 1)


def test_encode_refuses_floor_bit():
    # a naive layout without padding has nothing to bootstrap, so
    # elimination starts its ledger from a 1-bit floor tied to no cell
    layout = build_naive(BitArray.random(64, np.random.default_rng(0)))
    run_elimination(layout)
    assert layout.published.length == 1 + 65 * len(layout.published.cells)
    with pytest.raises(RefusalError):
        encode(layout, 4, 1)


def test_ensemble_refuses_published_layout(monkeypatch):
    layout = build_two_level(BitArray.from_int(12, 0b101100111010))
    layout.publish_redundancy()

    def no_tables(*args):
        raise AssertionError("tables built for a refused layout")

    monkeypatch.setattr(encoding, "_ensemble_tables", no_tables)
    with pytest.raises(RefusalError):
        encode(layout, 3, 2, ensemble=True)


def test_size_accounting():
    rng = np.random.default_rng(4)
    records = []
    for v in rng.integers(0, 1 << 12, size=120):
        layout = build_two_level(BitArray.from_int(12, int(v)))
        records.append(encode(layout, 3, d=2))
    acc = size_accounting(records, 12, 3)
    assert acc.records == 120
    assert acc.modal_offset == 2
    assert acc.mean_total == pytest.approx(sum(acc.mean_sizes))
    assert acc.mean_total >= 12 - 0.01
    assert acc.deficit_reference > 0
    with pytest.raises(RefusalError):
        size_accounting(records[:99], 12, 3)
