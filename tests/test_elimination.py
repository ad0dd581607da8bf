import numpy as np
import pytest

from rankprobe.bits import BitArray
from rankprobe.elimination import run_elimination
from rankprobe.entropy import LabConfig
from rankprobe.structures import EXHAUSTIVE_LIMIT, build_naive, build_two_level, sample_queries


def slim_layout(seed=0):
    a = BitArray.random(1 << 12, np.random.default_rng(seed))
    return build_two_level(a, superblock=1024, block=128)


def test_naive_small_drains_in_one_round():
    a = BitArray.random(64, np.random.default_rng(1))
    layout = build_naive(a)
    assert layout.redundancy_bits == 0
    traj = run_elimination(layout)
    # bootstrap floor is one raw bit; the single cell gets published at once
    assert traj.status == "drained"
    assert len(traj.rows) == 1
    row = traj.rows[0]
    assert row.published_bits == 1
    assert row.block_count == 4
    assert row.published_cells == 1
    assert row.avg_probes_after == 0.0


def test_trajectory_accounting():
    layout = slim_layout()
    cfg = LabConfig(saturation_fraction=1.0, final_full_round=True)
    traj = run_elimination(layout, config=cfg)
    assert traj.rows
    assert traj.structure == layout.kind
    assert traj.n == 1 << 12
    w = layout.memory.word_bits
    addr = layout.memory.address_bits()
    p = layout.redundancy_bits
    for row in traj.rows:
        assert row.published_bits == p
        assert row.avg_probes_after <= row.avg_probes_before
        assert 0.0 <= row.overlap_prob <= 1.0
        p += row.published_cells * (w + addr)
    assert layout.published.length == p
    # uncapped rows obey the block-count law exactly
    for row in traj.rows:
        if row.block_count < traj.n:
            assert row.block_count == int(np.ceil(traj.gamma * max(row.published_bits, 1)))


def test_published_bits_strictly_grow():
    layout = slim_layout(2)
    cfg = LabConfig(saturation_fraction=1.0, final_full_round=True)
    traj = run_elimination(layout, config=cfg)
    ps = [r.published_bits for r in traj.rows]
    assert all(a < b for a, b in zip(ps, ps[1:]))


def test_default_two_level_overflows_immediately():
    # default geometry at 2^12 publishes 1088 bits, so the very first
    # block count 4 * 1088 exceeds n: no rounds fit
    a = BitArray.random(1 << 12, np.random.default_rng(3))
    layout = build_two_level(a)
    assert layout.redundancy_bits == 1088
    traj = run_elimination(layout)
    assert traj.status == "block_overflow"
    assert traj.rows == []


def test_final_full_round_drains_overflow():
    a = BitArray.random(1 << 12, np.random.default_rng(4))
    layout = build_two_level(a)
    cfg = LabConfig(final_full_round=True)
    traj = run_elimination(layout, config=cfg)
    assert traj.status == "drained"
    assert len(traj.rows) == 1
    assert traj.rows[0].block_count == traj.n
    assert traj.rows[0].avg_probes_after == 0.0


def test_saturation_stop():
    layout = slim_layout(5)
    cfg = LabConfig(saturation_fraction=0.001)
    traj = run_elimination(layout, config=cfg)
    assert traj.status == "saturated"
    assert len(traj.rows) == 1
    assert layout.published.length >= 0.001 * layout.n


def test_sample_queries():
    # the one sample elimination and structure_stats both draw
    assert sample_queries(100, 50, 0).tolist() == list(range(100))
    assert sample_queries(EXHAUSTIVE_LIMIT, 10, 0).tolist() == list(range(EXHAUSTIVE_LIMIT))
    big = sample_queries(EXHAUSTIVE_LIMIT + 1, 64, 0).tolist()
    assert len(big) == 64
    assert big == sample_queries(EXHAUSTIVE_LIMIT + 1, 64, 0).tolist()
    assert big != sample_queries(EXHAUSTIVE_LIMIT + 1, 64, 1).tolist()

