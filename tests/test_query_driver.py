"""Differential tests of single queries against an address oracle and
the driver.

The oracle derives every charged address from the geometry alone: the
absolute counter of the query's superblock, the relative counter of its
block (not stored for a superblock's first block), then the raw cells
from the block start to the cell holding the queried bit.  Naive layouts
scan raw cells from the front.  ``rank`` reads a query by the layout's
reader; the generator that ``run_query`` drives in ``tests/oracles.py``
is its oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe.bits import BitArray
from rankprobe.errors import CorruptFootprint, SimulationFault
from rankprobe.model import CellMemory, Footprint, ProbeTrace
from rankprobe.structures import (
    POPCOUNT_RUN,
    ProbePlan,
    build_footprint,
    build_naive,
    build_recursive,
    build_two_level,
    detached_pass,
    max_stage,
    rank,
    replay_from_footprint,
    simulate_set,
)
from oracles import popcount_rank, query_generator, run_query
from test_set_pass import layouts as set_pass_layouts


def oracle_addresses(kind, n, w, superblock, block, q):
    pos = q + 1
    last = (pos - 1) // w
    if kind == "naive":
        return list(range(last + 1))
    raw_cells = -(-n // w)
    abs_base = raw_cells
    rel_base = abs_base + n // superblock + 1
    per = w // min(superblock - block, n).bit_length()
    ratio = superblock // block
    j = pos // block
    out = [abs_base + pos // superblock]
    if j % ratio:
        stored = j - j // ratio - 1  # blocks before j minus skipped first blocks
        out.append(rel_base + stored // per)
    out.extend(range(j * block // w, last + 1))
    return out


def _cases():
    small = BitArray.random(200, np.random.default_rng(11))
    big = BitArray.random(3000, np.random.default_rng(12))
    yield "naive-w7", small, lambda a: build_naive(a, 7), None
    yield "naive-w8", small, lambda a: build_naive(a, 8), None
    yield "naive-w64", big, lambda a: build_naive(a, 64), None
    yield "naive-w65", big, lambda a: build_naive(a, 65), None
    yield "two_level-w8", small, lambda a: build_two_level(a, word_bits=8), (512, 64)
    yield "two_level-64/8-w8", small, lambda a: build_two_level(a, 64, 8, 8), (64, 8)
    yield "two_level-w64", big, lambda a: build_two_level(a), (512, 64)
    yield "two_level-384/96-w96", big, lambda a: build_two_level(a, 384, 96, 96), (384, 96)
    yield "two_level-390/130-w65", big, lambda a: build_two_level(a, 390, 130, 65), (390, 130)
    for array, w in ((small, 8), (big, 64)):
        for t in range(1, max_stage(array.n) + 1):
            block = min(1 << (2 * t + 4), 1 << max(6, (array.n - 1).bit_length()))
            yield (
                f"recursive-t{t}-w{w}",
                array,
                lambda a, t=t, w=w: build_recursive(a, t, w),
                (8 * block, block),
            )


CASES = list(_cases())


@pytest.mark.parametrize("published", [False, True], ids=["bare", "published"])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_driver_matches_address_oracle(case, published):
    _, array, build, geometry = case
    layout = build(array)
    kind = "naive" if geometry is None else "counter"
    superblock, block = geometry or (None, None)
    w = layout.memory.word_bits
    if published:
        layout.publish_redundancy()
    free = set(layout.published.cells)
    for k in range(1, array.n + 1):
        tr = rank(layout, k)
        want = [
            a for a in oracle_addresses(kind, array.n, w, superblock, block, k - 1)
            if a not in free
        ]
        assert list(tr.addresses) == want, k
        assert tr.steps == tuple((a, layout.memory.cells[a]) for a in want)
        assert tr.answer == popcount_rank(array, k)
        assert len(tr.steps) <= layout.worst_probes


def _distinct_cases():
    # no n is a multiple of its width but for w = 1.  Counter layouts
    # need every counter to fit a cell: no two-level layout does at w = 1,
    # one at w = 7 only for n < 128, and recursive ones only at w = 64
    # here (their blocks are powers of two of at least 64 bits)
    array = BitArray.random(1003, np.random.default_rng(13))
    short = BitArray.random(123, np.random.default_rng(14))
    for w in (1, 7, 64, 65):
        yield f"naive-w{w}", array, lambda a, w=w: build_naive(a, w)
    yield "two_level-14/7-w7", short, lambda a: build_two_level(a, 14, 7, 7)
    yield "two_level-w64", array, lambda a: build_two_level(a)
    yield "two_level-390/130-w65", array, lambda a: build_two_level(a, 390, 130, 65)
    for t in range(1, max_stage(array.n) + 1):
        yield f"recursive-t{t}-w64", array, lambda a, t=t: build_recursive(a, t, 64)


DISTINCT_CASES = list(_distinct_cases())


def recording(step, yielded):
    """`step` with the addresses each query yields appended to `yielded`,
    one list per query."""

    def query(q):
        gen = step(q)
        seen = []
        yielded.append(seen)
        try:
            addr = next(gen)
            while True:
                seen.append(addr)
                addr = gen.send((yield addr))
        except StopIteration as stop:
            return stop.value

    return query


@pytest.mark.parametrize("published", [False, True], ids=["bare", "published"])
@pytest.mark.parametrize("case", DISTINCT_CASES, ids=[c[0] for c in DISTINCT_CASES])
def test_no_query_reads_a_cell_twice(case, published):
    # so every free read is a published cell, and the charged probes are
    # the batch plan's count
    _, array, build = case
    layout = build(array)
    if published:
        layout.publish_redundancy()
        layout.published.publish_cells(layout.memory, range(0, layout.params["raw_cells"], 3))
    free = layout.published.cells
    charged = ProbePlan(layout.params, np.arange(array.n)).charged(layout.published_mask())
    yielded = []
    step = recording(query_generator(layout.params), yielded)
    for q in range(array.n):
        trace = run_query(step, q, layout.memory, layout.published)
        seen = yielded[-1]
        assert len(set(seen)) == len(seen), q
        assert len(seen) - len(trace.steps) == sum(a in free for a in seen)
        assert trace.answer == popcount_rank(array, q + 1)
        assert len(trace.steps) == charged[q]


@settings(max_examples=300, deadline=None)
@given(case=set_pass_layouts(), data=st.data())
def test_reader_matches_driver(case, data):
    array, layout = case
    n = layout.n
    k = data.draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    got = rank(layout, k)
    if k == 0:
        assert got == ProbeTrace(-1, (), 0)
        return
    assert got == run_query(layout.step, k - 1, layout.memory, layout.published)
    assert got.answer == popcount_rank(array, k)


@pytest.mark.parametrize(
    "build", [lambda a: build_naive(a, 8), lambda a: build_two_level(a, 64, 8, 8)], ids=["naive", "two_level"]
)
@pytest.mark.parametrize("case", ["bare", "published", "rank0"])
def test_trace_equals_and_hashes_as_its_steps(build, case):
    # rank keeps a scan that meets no published cell as its range and
    # contents, and one that does as explicit pairs; either way the trace
    # equals, hashes and prints as the driver's (query, steps, answer)
    array = BitArray.random(200, np.random.default_rng(19))
    layout = build(array)
    k = 0 if case == "rank0" else 190
    if case == "published":
        layout.published.publish_cells(layout.memory, [20, 23])  # cell 23 holds position 190
    got = rank(layout, k)
    want = ProbeTrace(-1, (), 0) if k == 0 else run_query(layout.step, k - 1, layout.memory, layout.published)
    assert (got.span[-1] == 23) if case == "bare" else got.scan == ()
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got.steps == want.steps and got.addresses == want.addresses and got.probes == len(want.steps)
    assert {want: k}[got] == k
    assert got != ProbeTrace(want.query, want.steps, want.answer + 1)


@pytest.mark.parametrize(
    "build,cut",
    [(lambda a: build_naive(a, 8), 3), (lambda a: build_two_level(a, 64, 8, 8), 1)],
    ids=["naive-scan", "two_level-counter"],
)
def test_reader_refuses_memory_shorter_than_params(build, cut):
    # the scan of the last query, or its counter, runs past the cells
    # left; a slice would silently come back short.  rank, which reads it
    # by the reader, and the set passes, whose one gather reports the
    # first address past the end, say so as the oracle does; so does the
    # detached pass, whether it keeps that query or not
    array = BitArray.random(200, np.random.default_rng(15))
    layout = build(array)
    layout.memory = CellMemory(8, layout.memory.cells[:-cut])
    with pytest.raises(SimulationFault) as want:
        run_query(layout.step, array.n - 1, layout.memory, layout.published)
    with pytest.raises(SimulationFault) as got:
        rank(layout, array.n)
    assert str(got.value) == str(want.value)
    queries = [0, array.n - 1]
    for run in (simulate_set, build_footprint, detached_pass):
        with pytest.raises(SimulationFault) as got:
            run(layout.step, queries, layout.memory, layout.published)
        assert str(got.value) == str(want.value), run.__name__


@pytest.mark.parametrize("free", [[], [3]], ids=["slice", "per-cell"])
def test_replay_refuses_footprint_one_cell_short(free):
    # the last query scans cells 0 .. 24, less a published one; the
    # replay's one gather names the first cell the footprint lacks
    layout = build_naive(BitArray.random(200, np.random.default_rng(17)), 8)
    layout.published.publish_cells(layout.memory, free)
    foot = build_footprint(layout.step, [199], layout.memory, layout.published)
    assert foot.probed_cell_count == 25 - len(free)
    short = Footprint(foot.bits[:-1], 8)
    with pytest.raises(CorruptFootprint, match="^footprint exhausted at address 24$"):
        replay_from_footprint(layout.step, [199], short, layout.published)


def test_naive_w1_answers_past_the_step_guard():
    # one cell a bit: the last query scans 2^20 + 1 cells, past the
    # oracle driver's MAX_STEPS, and the builder's worst_probes says it may
    n = (1 << 20) + 1
    array = BitArray.random(n, np.random.default_rng(16))
    layout = build_naive(array, 1)
    assert layout.worst_probes == n
    trace = rank(layout, n)
    assert trace.answer == popcount_rank(array, n)
    assert trace.addresses == tuple(range(n))
    answers, cells = simulate_set(layout.step, [n - 1], layout.memory)
    assert answers == {n - 1: trace.answer} and list(cells.items()) == list(trace.steps)


@pytest.mark.parametrize("w", [1, 8, 63, 64, 65])
def test_rank_counts_long_scans_run_by_run(w):
    # naive scans of one popcount run, one cell past it and a few runs
    # deep: the answer is the popcount's, the trace the driver's, and up
    # to w = 64 the scan a read-only view of the memory
    n = (3 * POPCOUNT_RUN + 100) * w
    array = BitArray.random(n, np.random.default_rng(20 + w))
    layout = build_naive(array, w)
    for k in (POPCOUNT_RUN * w, POPCOUNT_RUN * w + 1, 2 * POPCOUNT_RUN * w + 37, n):
        got = rank(layout, k)
        want = run_query(layout.step, k - 1, layout.memory)
        assert got.answer == popcount_rank(array, k)
        assert got == want and hash(got) == hash(want)
        assert got.steps == want.steps and got.addresses == want.addresses
        if w <= 64:
            assert got.scan.readonly
            with pytest.raises(TypeError):
                got.scan[0] = 0


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.uint64])
def test_reader_route_takes_integer_arrays(dtype):
    # integer arrays, at w > 64 and in sets of a few queries, give what
    # the same list gives, keyed by Python ints; float arrays and queries
    # outside [0, n) are refused
    array = BitArray.random(4096, np.random.default_rng(18))
    for layout, queries in (
        (build_two_level(array, 384, 96, 96), [4000, 7, 7, 1000, 64, 3000, 5, 900, 2222, 4095, 96, 97, 191, 1500, 0, 3333, 2500, 2600, 2700, 2800, 2900, 3100, 3200, 3400, 3500, 3600, 3700]),
        (build_two_level(array), [4000, 7, 7, 1000, 64]),
    ):
        want = simulate_set(layout.step, queries, layout.memory, layout.published)
        got = simulate_set(layout.step, np.array(queries, dtype=dtype), layout.memory, layout.published)
        assert list(got[0].items()) == list(want[0].items()) and list(got[1].items()) == list(want[1].items())
        assert all(type(v) is int for v in (*got[0], *got[1]))
        assert got[0] == {q: popcount_rank(array, q + 1) for q in queries}
        with pytest.raises(TypeError):
            simulate_set(layout.step, np.array(queries, dtype=np.float64), layout.memory, layout.published)
        with pytest.raises(IndexError):
            simulate_set(layout.step, np.array([*queries, 4096], dtype=dtype), layout.memory, layout.published)
