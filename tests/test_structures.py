import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe.bits import BitArray
from rankprobe.model import CellMemory
from rankprobe.structures import (
    StructureLayout,
    _slot_cells,
    block_queries,
    build_naive,
    build_recursive,
    build_two_level,
    max_stage,
    rank,
    step_from_params,
    structure_stats,
)
from oracles import popcount_rank, publish_redundancy_per_cell, slot_cells_by_bits

# frozen redundancy ladders for the staged family (64-bit cells)
LADDER_2_20 = [262208, 78720, 22592, 5696]
LADDER_2_16 = [16448, 4992, 1472, 448]


def all_layouts(array):
    out = [build_naive(array), build_two_level(array)]
    for t in range(1, max_stage(array.n) + 1):
        out.append(build_recursive(array, t))
    return out


def test_block_queries():
    assert block_queries(16, 4).tolist() == [0, 4, 8, 12]
    assert block_queries(16, 4, 3).tolist() == [3, 7, 11, 15]
    assert block_queries(16, 4).dtype == np.int64
    with pytest.raises(ValueError):
        block_queries(16, 4, 4)
    with pytest.raises(ValueError):
        block_queries(16, 4, -1)
    # remainder queries are dropped
    assert max(block_queries(17, 4, 3).tolist()) == 15
    for k in (0, 5):
        with pytest.raises(ValueError):
            block_queries(4, k)


def test_exhaustive_small():
    for n in (1, 5, 10):
        for v in range(1 << n):
            a = BitArray.from_int(n, v)
            layouts = all_layouts(a)
            for k in range(n + 1):
                want = popcount_rank(a, k)
                for layout in layouts:
                    tr = rank(layout, k)
                    assert tr.answer == want, (n, v, k, layout.kind)
                    assert len(tr.steps) <= layout.worst_probes


def test_random_sweep_2_16():
    rng = np.random.default_rng(5)
    a = BitArray.random(1 << 16, rng)
    layouts = [build_two_level(a)] + [
        build_recursive(a, t) for t in range(1, 5)
    ]
    ks = rng.integers(0, a.n + 1, size=800)
    for k in ks:
        want = popcount_rank(a, int(k))
        for layout in layouts:
            tr = rank(layout, int(k))
            assert tr.answer == want
            assert len(tr.steps) <= layout.worst_probes


def test_frozen_redundancy_ladders():
    rng = np.random.default_rng(0)
    for n, ladder in ((1 << 16, LADDER_2_16), (1 << 20, LADDER_2_20)):
        a = BitArray.random(n, rng)
        got = [build_recursive(a, t).redundancy_bits for t in range(1, 5)]
        assert got == ladder


def test_redundancy_strictly_decreasing():
    a = BitArray.random(1 << 16, np.random.default_rng(1))
    rs = [build_recursive(a, t).redundancy_bits for t in range(1, max_stage(a.n) + 1)]
    assert all(x > y for x, y in zip(rs, rs[1:]))
    assert all(r >= 0 for r in rs)


def test_two_level_is_stage_one():
    a = BitArray.random(1 << 14, np.random.default_rng(2))
    two = build_two_level(a)
    one = build_recursive(a, 1)
    assert two.redundancy_bits == one.redundancy_bits
    assert two.memory.cells == one.memory.cells
    assert two.worst_probes == one.worst_probes


def test_padding_counts_toward_redundancy():
    a = BitArray(100)  # not a multiple of 64
    naive = build_naive(a)
    assert naive.redundancy_bits == 2 * 64 - 100
    two = build_two_level(a)
    assert two.redundancy_bits == two.memory.total_bits() - 100
    assert two.redundancy_bits >= 0


def test_publish_redundancy_exact():
    a = BitArray.random(5000, np.random.default_rng(3))
    layout = build_two_level(a)
    r = layout.redundancy_bits
    added = layout.publish_redundancy()
    assert added == r
    assert layout.published.length == r
    assert layout.published.bootstrapped
    # what is left unpublished: at most n plus one cell of slack
    remaining = layout.memory.total_bits() - layout.published.length
    assert remaining <= layout.n + layout.memory.word_bits
    # published counters make counter probes free
    tr = rank(layout, 4999)
    region = set(layout.redundancy_region)
    assert all(adr not in region for adr in tr.addresses)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 1500), w=st.integers(1, 130), data=st.data())
def test_publish_redundancy_matches_per_cell_oracle(n, w, data):
    # the region read as one slice of the memory leaves the ledger the
    # per-cell reads leave, with cells published before (in the region
    # and out of it) kept where they are: at every width a layout takes,
    # a list memory past w = 64 included
    a = BitArray.random(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    block = w * data.draw(st.integers(1, 3))
    try:
        layout = build_two_level(a, superblock=data.draw(st.integers(2, 6)) * block, block=block, word_bits=w)
    except ValueError:
        layout = build_naive(a, w)  # refused geometry: the padding alone
    twin = StructureLayout(layout.memory, layout.params)
    before = data.draw(st.lists(st.integers(0, layout.memory.cell_count - 1), max_size=8))
    for ledger in (layout.published, twin.published):
        ledger.publish_cells(layout.memory, before)
    added = layout.publish_redundancy()
    assert added == publish_redundancy_per_cell(twin)
    assert list(layout.published.cells.items()) == list(twin.published.cells.items())
    assert layout.published.length == twin.published.length and layout.published.bootstrapped
    assert all(type(c) is int for c in layout.published.cells.values())


def test_publish_redundancy_reads_no_probe(monkeypatch):
    # publishing the region is not a probe: it never gathers
    a = BitArray.random(3000, np.random.default_rng(5))
    layouts = all_layouts(a) + [build_two_level(a, superblock=384, block=96, word_bits=96)]
    gathered = []
    monkeypatch.setattr(CellMemory, "gather", lambda memory, addresses: gathered.append(addresses))
    for layout in layouts:
        assert layout.publish_redundancy() == layout.redundancy_bits
        assert len(layout.published.cells) == len(layout.redundancy_region)
    assert gathered == []


def test_layouts_keep_their_own_ledgers():
    a = BitArray.random(3000, np.random.default_rng(8))
    layouts = all_layouts(a)
    layouts += [StructureLayout(layouts[1].memory, layouts[1].params) for _ in range(2)]
    for i, layout in enumerate(layouts):
        layout.publish_redundancy()
        layout.published.publish_cells(layout.memory, [0, 1])
        for other in layouts[i + 1 :]:
            assert other.published.length == 0
            assert other.published.cells == {}


def test_layout_reader_is_its_params_reader():
    a = BitArray.random(3000, np.random.default_rng(9))
    two = build_two_level(a)
    for layout in all_layouts(a) + [StructureLayout(two.memory, two.params)]:
        reader = step_from_params(layout.params)
        for q in (0, 63, 64, 1499, 2999):
            assert layout.step(q, {}, layout.memory) == reader(q, {}, layout.memory)


def test_stage_too_deep_rejected():
    a = BitArray.random(64, np.random.default_rng(4))
    assert max_stage(64) == 1
    with pytest.raises(ValueError):
        build_recursive(a, 2)
    with pytest.raises(ValueError):
        build_recursive(a, 0)


def test_rank_edges():
    a = BitArray.from_int(8, 0b10110101)
    layout = build_two_level(a)
    tr = rank(layout, 0)
    assert tr.answer == 0 and tr.steps == ()
    assert rank(layout, 8).answer == 5
    with pytest.raises(IndexError):
        rank(layout, 9)
    with pytest.raises(IndexError):
        rank(layout, -1)


def test_eight_bit_cells():
    rng = np.random.default_rng(6)
    for v in rng.integers(0, 1 << 20, size=20):
        a = BitArray.from_int(20, int(v))
        layout = build_two_level(a, superblock=64, block=8, word_bits=8)
        for k in range(21):
            assert rank(layout, k).answer == popcount_rank(a, k)


def test_structure_stats():
    a = BitArray.random(1 << 12, np.random.default_rng(7))
    layout = build_two_level(a)
    st = structure_stats(layout)
    assert st.redundancy_bits == layout.redundancy_bits
    assert 1 <= st.avg_probes <= st.worst_probes <= layout.worst_probes
    # exhaustive at this size: deterministic
    st2 = structure_stats(layout)
    assert st.avg_probes == st2.avg_probes


def test_bad_geometry_rejected():
    a = BitArray.random(256, np.random.default_rng(8))
    with pytest.raises(ValueError):
        build_two_level(a, superblock=100, block=64)
    with pytest.raises(ValueError):
        build_two_level(a, superblock=64, block=64)
    with pytest.raises(ValueError):
        build_two_level(a, superblock=512, block=63)


@pytest.mark.parametrize("superblock,block,w", [(384, 96, 96), (400, 80, 80), (640, 128, 128)])
def test_wide_cells_off_word_boundaries(superblock, block, w):
    a = BitArray.random(4096, np.random.default_rng(10))
    layout = build_two_level(a, superblock=superblock, block=block, word_bits=w)
    wrong = [k for k in range(a.n + 1) if rank(layout, k).answer != popcount_rank(a, k)]
    assert wrong == []


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 1200),
    w=st.integers(8, 140),
    cells_per_block=st.integers(1, 3),
    ratio=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_accepted_geometry_ranks_exactly(n, w, cells_per_block, ratio, seed):
    """A geometry the builder accepts answers every rank query exactly."""
    a = BitArray.random(n, np.random.default_rng(seed))
    block = w * cells_per_block
    try:
        layout = build_two_level(a, superblock=ratio * block, block=block, word_bits=w)
    except ValueError:
        return  # refused geometry: counters do not fit the cell width
    for k in range(n + 1):
        tr = rank(layout, k)
        assert tr.answer == popcount_rank(a, k), (k, layout.params)
        assert len(tr.steps) <= layout.worst_probes


def _old_build(array, w, superblock=None, block=None):
    """The memory image as it was built before the cell codec: cells cut
    from one big int, one rank per block start, counters packed slot by
    slot.  Raises ValueError where the counters do not fit a cell."""
    n = array.n
    big = array.to_int()
    raw = [(big >> (c * w)) & ((1 << w) - 1) for c in range(-(-n // w))]
    if superblock is None:
        return raw

    def rank_at(p):
        return (big & ((1 << p) - 1)).bit_count()

    ratio = superblock // block
    abs_vals = [rank_at(s * superblock) for s in range(n // superblock + 1)]
    width = max(1, min(superblock - block, n).bit_length())
    per = w // width
    if per < 1:
        raise ValueError("counter width exceeds cell width")
    rel = [rank_at(j * block) - abs_vals[j // ratio] for j in range(n // block + 1) if j % ratio]
    packed = []
    for c in range(-(-len(rel) // per)):
        val = 0
        for slot in range(per):
            if c * per + slot < len(rel):
                val |= rel[c * per + slot] << (slot * width)
        packed.append(val)
    cells = raw + abs_vals + packed
    if max(cells) >> w:
        raise ValueError("counters do not fit the cell width")
    return cells


BUILD_CASES = [
    (8, build_two_level, {"superblock": 512, "block": 64}),
    (8, build_recursive, {"t": 1}),
    (13, build_two_level, {"superblock": 416, "block": 104}),
    (64, build_two_level, {"superblock": 512, "block": 64}),
    (64, build_recursive, {"t": 2}),
    (64, build_two_level, {"superblock": 192, "block": 64}),
    (96, build_two_level, {"superblock": 384, "block": 96}),
    (80, build_two_level, {"superblock": 400, "block": 80}),
    (130, build_two_level, {"superblock": 1040, "block": 260}),
]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 2000), case=st.sampled_from(BUILD_CASES), seed=st.integers(0, 2**32 - 1))
def test_builders_match_old_construction(n, case, seed):
    w, build, kw = case
    a = BitArray.random(n, np.random.default_rng(seed))
    assert list(build_naive(a, w).memory.cells) == _old_build(a, w)
    if build is build_recursive:
        if kw["t"] > max_stage(n):
            return
        block = 1 << (2 * kw["t"] + 4)
        superblock = 8 * block
    else:
        superblock, block = kw["superblock"], kw["block"]
    try:
        want = _old_build(a, w, superblock, block)
    except ValueError:
        with pytest.raises(ValueError):
            build(a, word_bits=w, **kw)
        return
    layout = build(a, word_bits=w, **kw)
    assert list(layout.memory.cells) == want
    assert layout.params["cell_count"] == len(want)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 600), w=st.integers(1, 16), cells=st.integers(1, 3), ratio=st.sampled_from([2, 4, 8]))
def test_geometry_accepted_by_params_alone(n, w, cells, ratio):
    # a counter geometry is accepted or refused before any counter is
    # computed, so the all-zero and the all-one array of a length agree
    block = w * cells
    outcomes = []
    for bit in (0, 1):
        try:
            outcomes.append(build_two_level(BitArray.from_bits([bit] * n), block * ratio, block, w).params)
        except ValueError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("w", [0, -3])
@pytest.mark.parametrize("build", [build_naive, build_two_level, lambda a, word_bits: build_recursive(a, 1, word_bits)])
def test_nonpositive_width_refused(w, build):
    a = BitArray.random(64, np.random.default_rng(0))
    with pytest.raises(ValueError, match="cell width must be positive"):
        build(a, word_bits=w)


@settings(max_examples=300, deadline=None)
@given(w=st.integers(1, 130), data=st.data())
def test_slot_cells_match_bit_matrix_packer(w, data):
    # counters of any width a cell holds (int64, as the builders give
    # them), any number to a cell, packed by shifts and ors as the bit
    # matrix packs them: uint64 up to w = 64, Python ints past it
    width = data.draw(st.integers(1, min(w, 63)))
    per = data.draw(st.integers(1, w // width))
    values = np.array(data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40)), dtype=np.int64)
    got = _slot_cells(values, width, per, w)
    assert got.tolist() == slot_cells_by_bits(values, width, per, w).tolist()
    assert got.dtype == (np.uint64 if w <= 64 else object)
    assert all(type(c) is int for c in got.tolist())
