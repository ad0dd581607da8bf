import hashlib
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe.bits import BitArray
from rankprobe.elimination import run_elimination
from rankprobe.encoding import EncodingRecord, decode, encode
from rankprobe.entropy import LabConfig
from rankprobe.errors import RefusalError
from rankprobe.structures import (
    EXHAUSTIVE_LIMIT,
    ProbePlan,
    block_queries,
    build_naive,
    build_recursive,
    build_two_level,
    layout_from_params,
    max_stage,
    sample_queries,
)
from oracles import probes_of_set


def random_array(n, seed):
    return BitArray.random(n, np.random.default_rng(seed))


def slim_layout(seed=0):
    return build_two_level(random_array(1 << 12, seed), superblock=1024, block=128)


def bootstrapped_layout():
    layout = slim_layout(6)
    layout.publish_redundancy()
    layout.published.publish_cells(layout.memory, [0, 7, 40])
    return layout


TRAJECTORY_PINS = [
    # layout, config keywords, status, sha256 of (rows, status, published length)
    pytest.param(lambda: build_naive(random_array(64, 1)), {}, "drained",
                 "05f23b866426da3ab7dd4f9b40900c2169af3b30a7ea27800c91e0e92ce2186b", id="naive_floor"),
    pytest.param(lambda: build_two_level(random_array(1 << 12, 3)), {}, "block_overflow",
                 "dd1f2bf89426dece64a1bebf0c5cd276b25f169564933d8307563479b2a6d001", id="two_level_overflow"),
    pytest.param(lambda: build_two_level(random_array(1 << 12, 4)), dict(final_full_round=True), "drained",
                 "e05f30c3f90f859d95b3f07fc60cf9e925fe4ad7227ce7c04ef7d9481b6dab57", id="two_level_capped"),
    pytest.param(lambda: slim_layout(5), dict(saturation_fraction=0.001), "saturated",
                 "2650af0087be97f1397b50531667639cce43fa51e044f85a6d6387c160508a8d", id="slim_saturated"),
    pytest.param(lambda: slim_layout(2), dict(saturation_fraction=1.0, final_full_round=True), "drained",
                 "8d8556572eb97ebd46a0286dec76c0c1c74f574ef163a16a6bf556e50b85a396", id="slim_full"),
    pytest.param(lambda: build_recursive(random_array(1 << 20, 7), 4), {}, "drained",
                 "a3249d51e9e984d669fa1d85b4e55006cf1acffba96d631da06543eef198a030", id="recursive_t4"),
    pytest.param(bootstrapped_layout, {}, "saturated",
                 "ff0304ced4e029b95492f8f44240675750e01eddfe194d6d852f39d85d51e8d4", id="bootstrapped"),
]


@pytest.mark.parametrize("make, config, status, digest", TRAJECTORY_PINS)
def test_trajectory_pinned(make, config, status, digest, monkeypatch):
    # one case per stop path: the 1-bit floor, immediate overflow, one
    # capped round, saturation, a full run, a deep recursive layout and a
    # layout bootstrapped before the run
    layout = make()
    counts, charged = [], ProbePlan.charged
    monkeypatch.setattr(ProbePlan, "charged", lambda plan, published: counts.append(1) or charged(plan, published))
    traj = run_elimination(layout, LabConfig(**config))
    assert traj.status == status
    # one count per published state, plus one of the undiscounted reads
    assert len(counts) == len(traj.rows) + 2
    key = (tuple(astuple(r) for r in traj.rows), traj.status, layout.published.length)
    assert hashlib.sha256(repr(key).encode()).hexdigest() == digest
    # the final state round-trips through .rpe1, at a k that keeps the
    # answer codes at m <= 4,096; a layout with no redundancy starts from
    # the 1-bit floor, which a record cannot carry
    k = max(4, layout.n // 4096)
    if not layout.redundancy_bits:
        with pytest.raises(RefusalError):
            encode(layout, k)
        return
    record = EncodingRecord.from_rpe1(encode(layout, k).to_rpe1())
    array = decode(record, layout.params, k)
    assert layout_from_params(array, layout.params).memory.cells == layout.memory.cells


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



@st.composite
def odd_size_builds(draw):
    """(n, array -> layout) at a size that is not a power of two, so a
    block count below n can leave a tail of n % k queries in no block."""
    n = draw(st.integers(65, 5000).filter(lambda v: v & (v - 1)))
    kind = draw(st.sampled_from(["naive", "two_level", "slim", "recursive"]))
    if kind == "naive":
        w = draw(st.sampled_from([8, 64]))
        return n, lambda a: build_naive(a, w)
    if kind == "two_level":
        return n, build_two_level
    if kind == "slim":
        return n, lambda a: build_two_level(a, superblock=1024, block=128)
    t = draw(st.integers(1, max_stage(n)))
    return n, lambda a: build_recursive(a, t)


@settings(max_examples=40, deadline=None)
@given(case=odd_size_builds(), seed=st.integers(0, 2**32 - 1))
def test_reference_set_matches_driver_replay(case, seed):
    # Each round's reference set is the offset-0 query of every block of
    # n // k, the tail past k * (n // k) left out.  Replaying the rounds
    # through the query driver, publishing the union of charged probes
    # of that list, must publish as many new cells as each row reports.
    n, build = case
    a = BitArray.random(n, np.random.default_rng(seed))
    config = LabConfig(saturation_fraction=1.0, final_full_round=True)
    layout = build(a)
    traj = run_elimination(layout, config)
    replay = build(a)
    replay.publish_redundancy()
    if replay.published.length == 0:
        replay.published.publish_raw(1)
    for row in traj.rows:
        p = replay.published.length
        assert row.published_bits == p
        k = min(math.ceil(config.gamma * max(p, 1)), n)
        assert row.block_count == k
        queries = [b * (n // k) for b in range(k)]
        assert block_queries(n, k).tolist() == queries
        _, union = probes_of_set(replay.step, queries, replay.memory, replay.published)
        assert row.published_cells == len(union)
        replay.published.publish_cells(replay.memory, sorted(union))
    assert replay.published.length == layout.published.length
    # a round at k = n publishes every cell a query reads, so it drains
    # and is the last row
    for row in traj.rows:
        if row.block_count == n:
            assert row is traj.rows[-1]
            assert row.avg_probes_after == 0.0
            assert traj.status == "drained"
