"""Differential tests of the batch probe plan against the query driver.

The driver of ``tests/oracles.py`` runs one generator query at a time
and is the oracle.  For every query of a layout with a random set of
published cells, the plan's charged count, with the published cells
read free and without, must equal what the driver reports, so a query
meets a published cell exactly when its undiscounted count is the
larger; its charged-cell mask must equal the union that
``probes_of_set`` collects, also when only the stride set's cover
(``stride_cover``) is planned; and ``choose_offset`` must pick the
offset a search over ``probes_of_set`` unions picks, and the offset the
full-grid scan of ``tests/oracles.py`` picks, while every offset that
``offset_starts`` leaves out reads what the offset before it reads.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe import structures
from rankprobe.bits import BitArray
from rankprobe.encoding import choose_offset, decode, encode
from rankprobe.model import PublishedBits
from rankprobe.structures import (
    ProbePlan,
    block_queries,
    build_footprint,
    build_naive,
    build_recursive,
    build_two_level,
    max_stage,
    offset_starts,
    replay_from_footprint,
    simulate_set,
    stride_cover,
)
from oracles import choose_offset_full_grid, driver_pass, popcount_rank, probes_of_set, run_query


@st.composite
def layouts(draw):
    """(n, array -> layout): naive, two-level and staged layouts at w = 8
    and 64, and the two-level 384/96 (w = 96), 400/80 (w = 80) and 350/70
    (w = 70, not a whole number of bytes) geometries.  8-bit cells hold
    counters only while n < 256."""
    kind = draw(st.sampled_from(["naive", "two_level", "recursive", "384/96/96", "400/80/80", "350/70/70"]))
    w = draw(st.sampled_from([8, 64])) if kind in ("naive", "two_level", "recursive") else None
    n = draw(st.integers(1, 255 if w == 8 else 1200))
    if kind == "naive":
        return n, lambda a: build_naive(a, w)
    if kind == "two_level":
        return n, (lambda a: build_two_level(a, 64, 8, 8)) if w == 8 else build_two_level
    if kind == "recursive":
        t = draw(st.integers(1, max_stage(n)))
        return n, lambda a: build_recursive(a, t, w)
    superblock, block, cell = (int(x) for x in kind.split("/"))
    return n, lambda a: build_two_level(a, superblock, block, cell)


def publish_at_random(layout, rng, share):
    """Publish a random subset of the cells; returns its mask."""
    mask = rng.random(layout.memory.cell_count) < share
    layout.published = PublishedBits(
        cells={int(a): layout.memory.cells[a] for a in np.flatnonzero(mask)}
    )
    assert np.array_equal(layout.published_mask(), mask)
    return mask


@settings(max_examples=60, deadline=None)
@given(case=layouts(), share=st.sampled_from([0.0, 0.05, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_plan_matches_driver(case, share, seed):
    n, build = case
    rng = np.random.default_rng(seed)
    a = BitArray.random(n, rng)
    layout = build(a)
    published = publish_at_random(layout, rng, share)
    plan = ProbePlan(layout.params, np.arange(n))
    charged = plan.charged(published)
    reads = plan.charged(np.zeros_like(published))  # undiscounted
    for q in range(n):
        live = run_query(layout.step, q, layout.memory, layout.published)
        bare = run_query(layout.step, q, layout.memory)
        assert charged[q] == len(live.steps), q
        assert reads[q] == len(bare.steps), q
        assert (reads[q] > charged[q]) == any(published[x] for x in bare.addresses), q
        assert live.answer == popcount_rank(a, q + 1), q
    subset = sorted(rng.choice(n, size=1 + n // 8, replace=False).tolist())
    _, union = probes_of_set(layout.step, subset, layout.memory, layout.published)
    assert np.flatnonzero(ProbePlan(layout.params, subset).cells(published)).tolist() == sorted(union)


@settings(max_examples=60, deadline=None)
@given(case=layouts(), data=st.data(), share=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_stride_cover_reads_what_the_set_reads(case, data, share, seed):
    n, build = case
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    layout = build(BitArray.random(n, rng))
    published = publish_at_random(layout, rng, share)
    queries = block_queries(n, k)
    cover = stride_cover(layout.params, k)
    assert set(cover.tolist()) <= set(queries.tolist())
    assert cover.size <= n // layout.params.get("block", n) + 1  # a naive scan is one block
    _, union = probes_of_set(layout.step, queries.tolist(), layout.memory, layout.published)
    assert np.flatnonzero(ProbePlan(layout.params, cover).cells(published)).tolist() == sorted(union)


def brute_force_overlaps(layout, k):
    """|charged cells of offset d ∩ charged cells of offset 0| for every
    d in [1, n // k), from probes_of_set unions."""
    bs = layout.n // k

    def charged_cells(d):
        return probes_of_set(layout.step, [b * bs + d for b in range(k)], layout.memory, layout.published)[1]

    ref = charged_cells(0)
    return [len(charged_cells(d) & ref) for d in range(1, bs)]


@settings(max_examples=40, deadline=None)
@given(case=layouts(), k=st.integers(1, 9), share=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_choose_offset_matches_brute_force(case, k, share, seed):
    n, build = case
    if n // k < 2:
        return  # no nonzero offset to choose
    rng = np.random.default_rng(seed)
    layout = build(BitArray.random(n, rng))
    published = publish_at_random(layout, rng, share)
    overlaps = brute_force_overlaps(layout, k)
    bs = n // k
    ref = ProbePlan(layout.params, [b * bs for b in range(k)]).cells(published)
    grid = [[b * bs + d for b in range(k)] for d in range(1, bs)]
    assert ProbePlan(layout.params, grid).row_hits(ref).tolist() == overlaps
    assert choose_offset(layout, k) == 1 + overlaps.index(min(overlaps))


@settings(max_examples=60, deadline=None)
@given(case=layouts(), data=st.data(), share=st.sampled_from([0.0, 0.1, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_choose_offset_plans_only_where_reads_change(case, data, share, seed):
    n, build = case
    if n < 2:
        return  # no k leaves a nonzero offset
    k = data.draw(st.integers(1, n // 2))
    rng = np.random.default_rng(seed)
    layout = build(BitArray.random(n, rng))
    publish_at_random(layout, rng, share)
    assert choose_offset(layout, k) == choose_offset_full_grid(layout, k)
    bs = n // k
    starts = offset_starts(layout.params, k)
    assert starts[0] == 1 and (np.diff(starts) > 0).all() and starts[-1] < bs
    plan = ProbePlan(layout.params, np.arange(bs)[:, None] + block_queries(n, k))
    reads = np.stack((plan.abs_addr, plan.rel_addr, plan.lo, plan.hi))  # (read, offset, column)
    for d in sorted(set(range(2, bs)) - set(starts.tolist())):
        assert np.array_equal(reads[:, d], reads[:, d - 1]), d


def test_choose_offset_benchmark_geometry():
    a = BitArray.random(1 << 16, np.random.default_rng(0))
    assert choose_offset(build_two_level(a), 16) == 511


def test_choose_offset_memory_bounded():
    # The offset grid is scanned in chunks of about 2^13 queries and the
    # reference cells come from the stride cover.  Traced peak at 2^18
    # bits, k = 16: 0.8 MiB; one plan over the whole grid peaked at 18.5 MiB.
    layout = build_two_level(BitArray.random(1 << 18, np.random.default_rng(0)))
    tracemalloc.start()
    try:
        d = choose_offset(layout, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 511
    assert peak < 4 << 20


def _programs(monkeypatch):
    """Empty the set-pass plan cache and record the queries of every
    set-pass program computed from then on."""
    structures._set_plan.cache_clear()
    computed, new_reads = [], ProbePlan._new_reads

    def spy(plan):
        computed.append(plan.queries.tolist())
        return new_reads(plan)

    monkeypatch.setattr(ProbePlan, "_new_reads", spy)
    return computed


def test_footprint_and_replay_share_one_program(monkeypatch):
    computed = _programs(monkeypatch)
    array = BitArray.random(4096, np.random.default_rng(21))
    layout = build_two_level(array)
    layout.published.publish_cells(layout.memory, [64, 65, 3])
    queries = list(range(5, 4096, 97))
    foot = build_footprint(layout.step, queries, layout.memory, layout.published)
    answers, fetched = replay_from_footprint(layout.step, queries, foot, layout.published)
    assert computed == [queries]
    assert answers == {q: popcount_rank(array, q + 1) for q in queries}
    assert tuple(fetched.values()) == foot.bits
    assert simulate_set(layout.step, np.array(queries), layout.memory, layout.published) == (answers, fetched)
    # more published cells read free on the same program
    layout.published.publish_cells(layout.memory, [0, 1, 2, 70, 71])
    answers, fetched = simulate_set(layout.step, queries, layout.memory, layout.published)
    want_answers, want = driver_pass(layout, queries)
    assert list(answers.items()) == list(want_answers.items())
    assert list(fetched.items()) == list(want.items()) and len(want) < len(foot.bits)
    assert computed == [queries]


def test_decode_computes_the_reference_program_once(monkeypatch):
    # with the counters published each detached query reads its raw cell
    # alone, so all k are kept and the detached replay takes a plan too
    n, k = 4096, 64
    array = BitArray.random(n, np.random.default_rng(22))
    layout = build_two_level(array)
    layout.publish_redundancy()
    record = encode(layout, k)
    computed = _programs(monkeypatch)
    assert decode(record, layout.params, k) == array
    reference = block_queries(n, k).tolist()
    assert computed.count(reference) == 1
    assert len(computed) == 2 and computed[1] == [q + record.offset for q in reference]


def test_changed_query_list_gets_its_own_answers():
    array = BitArray.random(4096, np.random.default_rng(23))
    layout = build_two_level(array)
    for queries in (list(range(3, 4096, 131)), np.arange(3, 4096, 131)):
        for _ in range(3):
            answers, _ = simulate_set(layout.step, queries, layout.memory, layout.published)
            assert answers == {q: popcount_rank(array, q + 1) for q in map(int, queries)}
            queries[4] += 1  # changed in place, still increasing


def test_same_queries_on_other_geometries_get_their_own_answers():
    a, b = (BitArray.random(4096, np.random.default_rng(seed)) for seed in (24, 25))
    cases = [(a, build_two_level(a)), (a, build_recursive(a, 2)), (a, build_naive(a)), (b, build_two_level(b)), (a, build_two_level(a, 256, 32, 32))]
    queries = list(range(11, 4096, 101))
    for _ in range(2):
        for array, layout in cases:
            answers, fetched = simulate_set(layout.step, queries, layout.memory, layout.published)
            assert answers == {q: popcount_rank(array, q + 1) for q in queries}
            assert list(fetched.items()) == list(driver_pass(layout, queries)[1].items())


def test_cached_plan_arrays_are_read_only():
    for build in (build_two_level, build_naive):
        layout = build(BitArray.random(4096, np.random.default_rng(26)))
        queries = list(range(0, 4096, 77))
        simulate_set(layout.step, queries, layout.memory, layout.published)
        plan = structures._set_plan(tuple(layout.params.items()), np.array(queries, dtype=np.int64).tobytes())
        arrays = [a for a in (*vars(plan).values(), *plan._program()) if isinstance(a, np.ndarray)]
        assert len(arrays) >= 8
        for a in arrays:
            assert not a.flags.writeable
