import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe.bits import BitArray
from rankprobe.structures import (
    build_naive,
    build_recursive,
    build_two_level,
    max_stage,
    rank,
    structure_stats,
)

# frozen redundancy ladders for the staged family (64-bit cells)
LADDER_2_20 = [262208, 78720, 22592, 5696]
LADDER_2_16 = [16448, 4992, 1472, 448]


def all_layouts(array):
    out = [build_naive(array), build_two_level(array)]
    for t in range(1, max_stage(array.n) + 1):
        out.append(build_recursive(array, t))
    return out


def test_exhaustive_small():
    for n in (1, 5, 10):
        for v in range(1 << n):
            a = BitArray.from_int(n, v)
            layouts = all_layouts(a)
            for k in range(n + 1):
                want = a.rank(k)
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
        want = a.rank(int(k))
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
            assert rank(layout, k).answer == a.rank(k)


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
    wrong = [k for k in range(a.n + 1) if rank(layout, k).answer != a.rank(k)]
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
        assert tr.answer == a.rank(k), (k, layout.params)
        assert len(tr.steps) <= layout.worst_probes
