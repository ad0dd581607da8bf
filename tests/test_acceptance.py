"""Acceptance gate: eight behaviors, one visible PASS/FAIL line each.

Every expected number here is frozen from an oracle computed outside the
code under test (exact big-int entropy sums, int-popcount rank, closed
forms evaluated by hand).  Tolerances are pinned next to each assert.
"""

import math

import conftest
import numpy as np
import pytest

from rankprobe.bits import BitArray
from rankprobe.elimination import run_elimination
from rankprobe.encoding import encode, decode, size_accounting
from rankprobe.entropy import (
    LabConfig,
    analytic_deficit,
    binom_entropy,
    binom_entropy_estimate,
    block_deficit,
    block_deficit_argmin,
    brute_force_deficit,
    deficit_from_counts,
    signature_counts,
)
from rankprobe.structures import (
    build_footprint,
    build_recursive,
    build_two_level,
    rank,
    replay_from_footprint,
)
from oracles import binom_entropy_exact, run_query

FULL_DEFICIT_16_4_2 = 3.7144734356069637  # exact big-int oracle, frozen
LADDER_2_20 = [262208, 78720, 22592, 5696]
LADDER_2_16 = [16448, 4992, 1472, 448]


def checked(label):
    def wrap(fn):
        def inner(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                conftest.acceptance_lines.append(f"FAIL: {label}")
                raise
            conftest.acceptance_lines.append(f"PASS: {label}")

        inner.__name__ = fn.__name__
        return inner

    return wrap


# -- 1 ---------------------------------------------------------------------

@checked("rank answers match the popcount oracle on every structure")
def test_rank_answers_exact():
    mismatches = 0
    # exhaustive: every 12-bit array, every position, both structure kinds
    for v in range(1 << 12):
        a = BitArray.from_int(12, v)
        prefix = np.concatenate([[0], np.cumsum(a.to_bits())])
        for layout in (build_two_level(a), build_recursive(a, 1)):
            for k in range(13):
                if rank(layout, k).answer != prefix[k]:
                    mismatches += 1
    # spot checks at scale: seeded arrays, random positions
    rng = np.random.default_rng(2718)
    n = 1 << 20
    for _ in range(10):
        a = BitArray.random(n, rng)
        prefix = np.concatenate([[0], np.cumsum(a.to_bits(), dtype=np.int64)])
        ks = rng.integers(0, n + 1, size=10_000)
        for layout in (build_two_level(a), build_recursive(a, 2)):
            for k in ks:
                if rank(layout, int(k)).answer != prefix[k]:
                    mismatches += 1
    assert mismatches == 0


# -- 2 ---------------------------------------------------------------------

@checked("half-offset correlation cost stays above 1 - 2/m and is minimal")
def test_half_offset_deficit_floor():
    for m in range(2, 4097, 2):
        assert block_deficit(m, m // 2) >= 1.0 - 2.0 / m, m
        mins = block_deficit_argmin(m)
        assert m // 2 in mins, m
        assert sorted(m - d for d in mins) == sorted(mins), m  # symmetric tie only


# -- 3 ---------------------------------------------------------------------

def _greedy_conditioning_search(counts, keep_floor, batch, order):
    """Steepest-descent removal of probability mass, one signature class
    at a time, never dropping below keep_floor kept arrays.  Returns the
    smallest exactly re-evaluated deficit along the path."""

    def f(x):
        return x * math.log2(x) if x > 1 else 0.0

    joint = dict(counts)
    refm, offm = {}, {}
    for (r, o), c in joint.items():
        refm[r] = refm.get(r, 0) + c
        offm[o] = offm.get(o, 0) + c
    total = sum(joint.values())
    s_r = math.fsum(f(c) for c in refm.values())
    s_o = math.fsum(f(c) for c in offm.values())
    s_j = math.fsum(f(c) for c in joint.values())

    best = deficit_from_counts(joint)[3]
    while total > keep_floor:
        budget = total - keep_floor
        pick, pick_val, pick_b = None, None, 0
        for (r, o), c in joint.items():
            b = min(batch, c, budget)
            if b == 0:
                continue
            if order == "wipe_rare" and c > batch:
                continue
            t2 = total - b
            num = (
                (s_r + f(refm[r] - b) - f(refm[r]))
                + (s_o + f(offm[o] - b) - f(offm[o]))
                - (s_j + f(joint[(r, o)] - b) - f(c))
            )
            val = math.log2(t2) - num / t2
            if pick_val is None or val < pick_val:
                pick, pick_val, pick_b = (r, o), val, b
        if pick is None:
            break
        r, o = pick
        b = pick_b
        s_j += f(joint[pick] - b) - f(joint[pick])
        s_r += f(refm[r] - b) - f(refm[r])
        s_o += f(offm[o] - b) - f(offm[o])
        joint[pick] -= b
        refm[r] -= b
        offm[o] -= b
        if joint[pick] == 0:
            del joint[pick]
        total -= b
        # score exactly; the incremental floats only steer the search
        exact = deficit_from_counts(joint)[3]
        best = min(best, exact)
        assert sum(joint.values()) >= keep_floor
    return best


@checked("block deficits add up exactly and survive adversarial conditioning")
def test_deficit_additivity_and_conditioning():
    rep = analytic_deficit(16, 4, 2)
    bf = brute_force_deficit(16, 4, 2)
    assert rep.deficit == pytest.approx(FULL_DEFICIT_16_4_2, abs=1e-12)
    assert abs(rep.deficit - bf.deficit) <= 1e-9
    assert rep.deficit >= 3.0 and bf.deficit >= 3.0
    assert abs(rep.deficit - math.fsum(rep.per_block_deficits)) <= 1e-9

    # adversary: any conditioning event keeping mass >= 2^(-eps*k) with
    # eps = 0.05, k = 4 must leave at least half the deficit standing
    _, counts = signature_counts(16, 4, 2, None)
    total = 1 << 16
    keep_floor = math.ceil(total * 2.0 ** -0.2)
    worst = min(
        _greedy_conditioning_search(counts, keep_floor, batch, order)
        for batch, order in ((64, "steepest"), (256, "steepest"), (256, "wipe_rare"))
    )
    assert worst >= 0.5 * FULL_DEFICIT_16_4_2, worst


# -- 4 ---------------------------------------------------------------------

@checked("closed-form entropy estimate lands within 0.07/m of exact")
def test_entropy_estimate_error():
    for m in range(4, 4097):
        gap = abs(binom_entropy_estimate(m) - binom_entropy(m))
        assert gap <= 0.07 / m, m
    # and the fast exact route agrees with the big-int oracle
    for m in (4, 17, 256, 1000, 4096):
        assert binom_entropy(m) == pytest.approx(binom_entropy_exact(m), abs=1e-10)


# -- 5 ---------------------------------------------------------------------

@checked("footprints replay to the live answers and cost exactly their cells")
def test_footprint_replay_identity():
    # exhaustive small: every array, the full query range
    for v in range(1 << 12):
        a = BitArray.from_int(12, v)
        layout = build_two_level(a)
        qs = list(range(12))
        foot = build_footprint(layout.step, qs, layout.memory, layout.published)
        answers, seen = replay_from_footprint(layout.step, qs, foot, layout.published)
        for q in qs:
            direct = run_query(layout.step, q, layout.memory, layout.published).answer
            assert answers[q] == direct
        assert foot.length == len(seen) * layout.memory.word_bits
    # at scale: one structure, many random query sets
    rng = np.random.default_rng(99)
    a = BitArray.random(1 << 16, rng)
    layout = build_two_level(a)
    for _ in range(100):
        qs = sorted({int(q) for q in rng.integers(0, 1 << 16, size=100)})
        foot = build_footprint(layout.step, qs, layout.memory, layout.published)
        answers, seen = replay_from_footprint(layout.step, qs, foot, layout.published)
        for q in qs:
            direct = run_query(layout.step, q, layout.memory, layout.published).answer
            assert answers[q] == direct
        assert foot.length == len(seen) * layout.memory.word_bits


# -- 6 ---------------------------------------------------------------------

@checked("encoding inverts exactly and never beats the source entropy")
def test_encoding_roundtrip_and_size():
    # exhaustive verbatim identity at enumerable size
    for v in range(1 << 12):
        a = BitArray.from_int(12, v)
        layout = build_two_level(a)
        rec = encode(layout, 3, d=2)
        assert rec.total_bits == sum(rec.sizes)
        assert decode(rec, layout.params, 3).to_int() == v
    # spot identity at scale
    rng = np.random.default_rng(123)
    n = 1 << 16
    for _ in range(1000):
        a = BitArray.random(n, rng)
        layout = build_two_level(a)
        rec = encode(layout, 16, d=2048)
        assert rec.total_bits == sum(rec.sizes)
        assert decode(rec, layout.params, 16) == a
    # mean size floor: uniform arrays cannot compress below n on average
    rng = np.random.default_rng(7)
    records = []
    for _ in range(10_000):
        a = BitArray.random(12, rng)
        records.append(encode(build_two_level(a), 3, d=2))
    acc = size_accounting(records, 12, 3)
    assert acc.mean_total >= 12 - 0.01
    # the tight route: exact conditional codes over the full ensemble
    total_e = 0
    total_v = 0
    for v in range(1 << 12):
        a = BitArray.from_int(12, v)
        layout = build_two_level(a)
        rec_e = encode(layout, 3, d=2, ensemble=True)
        assert decode(rec_e, layout.params, 3, ensemble=True).to_int() == v
        total_e += rec_e.total_bits
        total_v += encode(layout, 3, d=2).total_bits
    mean_e = total_e / (1 << 12)
    assert 12 - 0.01 <= mean_e < total_v / (1 << 12)


# -- 7 ---------------------------------------------------------------------

@checked("publish rounds drain the probe count under the exact growth law")
def test_elimination_trajectories():
    # slim geometry so several rounds fit below the block-count ceiling
    a = BitArray.random(1 << 12, np.random.default_rng(31))
    layout = build_two_level(a, superblock=1024, block=128)
    cfg = LabConfig(saturation_fraction=1.0, final_full_round=True)
    traj = run_elimination(layout, config=cfg)
    assert len(traj.rows) >= 2
    w = layout.memory.word_bits
    addr = layout.memory.address_bits()
    p = layout.redundancy_bits
    for row in traj.rows:
        assert row.published_bits == p
        if row.block_count < traj.n:
            assert row.block_count == math.ceil(cfg.gamma * max(p, 1))
        assert row.avg_probes_after <= row.avg_probes_before
        p += row.published_cells * (w + addr)
    assert layout.published.length == p
    assert traj.status == "drained"
    assert traj.rows[-1].avg_probes_after < 0.01

    # deep structure at scale: the whole ladder drains in <= t/4 rounds
    t = 4
    a = BitArray.random(1 << 20, np.random.default_rng(32))
    layout = build_recursive(a, t)
    traj = run_elimination(layout)
    assert traj.status == "drained"
    c = 1 / 4
    assert len(traj.rows) <= max(1, math.ceil(c * t))
    assert layout.published.length >= (1 << 20) / 10  # a constant fraction of n


# -- 8 ---------------------------------------------------------------------

@checked("each extra stage halves redundancy while probes stay geometric")
def test_redundancy_halving():
    rng = np.random.default_rng(77)
    a20 = BitArray.random(1 << 20, rng)
    ladder = [build_recursive(a20, t) for t in range(1, 5)]
    rs = [L.redundancy_bits for L in ladder]
    assert rs == LADDER_2_20
    for r_prev, r_next in zip(rs, rs[1:]):
        assert r_next <= r_prev / 2
    # the stage-1 structure is the plain two-level layout
    assert build_two_level(a20).redundancy_bits == rs[0]
    # worst-case probes grow, redundancy shrinks: a real trade-off
    probes = [L.worst_probes for L in ladder]
    assert all(a < b for a, b in zip(probes, probes[1:]))
    a16 = BitArray.random(1 << 16, rng)
    assert [build_recursive(a16, t).redundancy_bits for t in range(1, 5)] == LADDER_2_16
