"""Set passes against the driver.

Every set pass over a layout's step, of any size and at any cell width,
runs the program of its cached plan (:meth:`ProbePlan.set_pass`, or
:meth:`ProbePlan.read_order` alone for a footprint).  The generator
driver of ``tests/oracles.py``, query by query, is the oracle: a set
pass must give its answers, and the same fetched cells in the same
order.
"""

import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankprobe import structures
from rankprobe.bits import BitArray
from rankprobe.errors import CorruptFootprint
from rankprobe.model import CellMemory, Footprint
from rankprobe.structures import (
    ProbePlan,
    block_queries,
    build_footprint,
    build_naive,
    build_recursive,
    build_two_level,
    detached_pass,
    layout_from_params,
    max_stage,
    replay_from_footprint,
    simulate_set,
)
from oracles import driver_pass, greedy_scan, popcount_rank


@st.composite
def layouts(draw):
    """A layout of any kind and width, published as drawn."""
    n = draw(st.integers(1, 2000))
    array = BitArray.random(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    kind = draw(st.sampled_from(["naive", "two_level", "recursive"]))
    if kind == "naive":
        layout = build_naive(array, draw(st.integers(1, 128)))
    elif kind == "two_level":
        w = draw(st.integers(1, 128))
        block = w * draw(st.integers(1, 4))
        try:
            layout = build_two_level(array, block * draw(st.integers(2, 8)), block, w)
        except ValueError:  # a counter wider than the cell
            assume(False)
    else:
        t = draw(st.integers(1, max_stage(n)))
        block = 1 << (2 * t + 4)
        width = min(7 * block, n).bit_length()
        layout = build_recursive(array, t, draw(st.sampled_from([w for w in (16, 32, 64, 128) if block % w == 0 and width <= w])))
    if draw(st.booleans()):
        layout.publish_redundancy()
    if draw(st.booleans()):
        cells = draw(st.lists(st.integers(0, layout.memory.cell_count - 1), max_size=20))
        layout.published.publish_cells(layout.memory, cells)
    return array, layout


@settings(max_examples=250, deadline=None)
@given(case=layouts(), data=st.data())
def test_plan_route_matches_driver(case, data):
    array, layout = case
    n = layout.n
    queries = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=60))
    want_answers, want = driver_pass(layout, queries)
    assert want_answers == {q: popcount_rank(array, q + 1) for q in queries}
    published = layout.published.cells
    before = list(published.items())

    routes = [simulate_set(layout.step, queries, layout.memory, layout.published)]
    foot = build_footprint(layout.step, queries, layout.memory, layout.published)
    assert foot.bits == tuple(want.values())
    routes.append(replay_from_footprint(layout.step, queries, foot, layout.published))
    routes.append(ProbePlan(layout.params, np.unique(queries)).set_pass(published, layout.memory.gather))
    for answers, fetched in routes:
        assert list(answers.items()) == list(want_answers.items())
        assert list(fetched.items()) == list(want.items())
        assert all(type(v) is int for v in (*answers.values(), *fetched.values()))

    if want:  # a footprint one cell short or one cell long
        for bits in (foot.bits[:-1], foot.bits + (0,)):
            with pytest.raises(CorruptFootprint):
                replay_from_footprint(layout.step, queries, Footprint(bits, foot.word_bits), layout.published)
    assert layout.published.cells is published
    assert list(published.items()) == before


def _spied(monkeypatch):
    sizes = []
    plan_read = ProbePlan.read_order

    def spy(self, *args):
        sizes.append(self.queries.size)
        return plan_read(self, *args)

    monkeypatch.setattr(ProbePlan, "read_order", spy)
    return sizes


def _layouts_at(array, w):
    """Naive, two-level and, where its blocks hold whole cells, staged
    layouts at width `w`."""
    yield build_naive(array, w)
    yield build_two_level(array, 8 * w, w, w)
    if 64 % w == 0:
        yield build_recursive(array, 2, w)


@pytest.mark.parametrize("w", [7, 64, 65, 96])
def test_route_by_params_size_and_width(monkeypatch, w):
    # every set, from one query on and at every width, takes the cached
    # plan: one program per set, run to simulate, to record and to replay,
    # and the reader, which only rank calls, is never read
    sizes = _spied(monkeypatch)
    n = 120 if w == 7 else 4096  # absolute counters of 7 bits
    array = BitArray.random(n, np.random.default_rng(3))
    for layout in _layouts_at(array, w):

        def step(*args):
            raise AssertionError("a set pass called the reader")

        step.params = layout.params
        for size in (1, 2, 25, 27):
            queries = list(range(n - 1, 0, -(n // size)))[:size] + [n - 1]  # unsorted, a repeat
            want_answers, want = driver_pass(layout, queries)
            assert len(want_answers) == size
            before = structures._set_plan.cache_info()
            sizes.clear()
            live = simulate_set(step, queries, layout.memory, layout.published)
            foot = build_footprint(step, queries, layout.memory, layout.published)
            for answers, fetched in (live, replay_from_footprint(step, queries, foot, layout.published)):
                assert answers == {q: popcount_rank(array, q + 1) for q in queries}
                assert list(fetched.items()) == list(want.items())
            after = structures._set_plan.cache_info()
            assert sizes == [size] * 3
            assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)


def _kinds(n):
    array = BitArray.random(n, np.random.default_rng(9))
    yield "naive", build_naive(array)
    yield "two_level", build_two_level(array)
    yield "recursive", build_recursive(array, 2)
    yield "two_level-w96", build_two_level(array, 384, 96, 96)


@pytest.mark.parametrize("size", [3, 31], ids=["driver", "plan"])
@pytest.mark.parametrize("offset", [-1, 0, 4])
def test_set_passes_refuse_queries_outside_the_array(size, offset):
    n = 4096
    bad = -1 if offset == -1 else n + offset
    for _, layout in _kinds(n):
        queries = list(range(0, n, n // size))[: size - 1] + [bad]
        for run in (
            lambda: simulate_set(layout.step, queries, layout.memory, layout.published),
            lambda: build_footprint(layout.step, queries, layout.memory, layout.published),
            lambda: replay_from_footprint(layout.step, queries, Footprint((), layout.memory.word_bits)),
        ):
            with pytest.raises(IndexError, match=rf"query outside \[0, {n}\)"):
                run()


@st.composite
def query_shapes(draw, n):
    """A query set in one of the shapes a caller may pass (list, tuple,
    range, int64 ndarray or generator; sorted or not, with repeats or
    not, with int, np.int64 or bool elements), as a function that makes
    a fresh copy, plus its distinct queries in increasing order."""
    shape = draw(st.sampled_from(["list", "tuple", "range", "ndarray", "generator"]))
    if shape == "range":
        step = draw(st.integers(1, max(1, n // 8)))
        span = range(draw(st.integers(0, n - 1)), n, step)
        span = span[::-1] if draw(st.booleans()) else span
        return lambda: span, sorted(span)
    values = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=60))
    if draw(st.booleans()):
        values = sorted(set(values))
    if shape == "ndarray":
        return lambda: np.array(values, dtype=np.int64), sorted(set(values))
    kinds = draw(st.lists(st.sampled_from([int, np.int64, bool]), min_size=len(values), max_size=len(values)))
    items = [kind(v) if kind is not bool or v < 2 else v for kind, v in zip(kinds, values)]
    make = {"list": lambda: list(items), "tuple": lambda: tuple(items), "generator": lambda: (q for q in items)}[shape]
    return make, sorted(set(values))


@settings(max_examples=200, deadline=None)
@given(case=layouts(), data=st.data())
def test_set_shapes_match_driver(case, data):
    array, layout = case
    n = layout.n
    make, distinct = data.draw(query_shapes(n))
    want_answers, want = driver_pass(layout, distinct)
    answers, fetched = simulate_set(layout.step, make(), layout.memory, layout.published)
    foot = build_footprint(layout.step, make(), layout.memory, layout.published)
    replayed = replay_from_footprint(layout.step, make(), foot, layout.published)
    assert foot.bits == tuple(want.values())
    for got_answers, got in ((answers, fetched), replayed):
        assert list(got_answers.items()) == list(want_answers.items())
        assert list(got.items()) == list(want.items())
        assert all(type(v) is int for v in (*got_answers, *got_answers.values(), *got.values()))

    bad = data.draw(st.sampled_from([0.0, 1.5, float(distinct[0]), -1, -(2**70), n, n + 7, 2**70]))
    queries = [*distinct[:-1], bad, distinct[-1]]
    error = TypeError if isinstance(bad, float) else IndexError
    for run in (
        lambda: simulate_set(layout.step, iter(queries), layout.memory, layout.published),
        lambda: build_footprint(layout.step, list(queries), layout.memory, layout.published),
        lambda: detached_pass(layout.step, list(queries), layout.memory, layout.published),
    ):
        with pytest.raises(error):
            run()
    bits = (c for c in want.values())
    with pytest.raises(error):
        replay_from_footprint(layout.step, tuple(queries), Footprint(bits, layout.memory.word_bits), layout.published)
    assert inspect.getgeneratorstate(bits) == inspect.GEN_CREATED  # no cell was read


@pytest.mark.parametrize("empty", [[], (), range(0), np.array([], dtype=np.int64)], ids=["list", "tuple", "range", "ndarray"])
def test_empty_set_reads_nothing(empty):
    for _, layout in _kinds(4096):
        args = (layout.memory, layout.published)
        assert simulate_set(layout.step, empty, *args) == ({}, {})
        assert build_footprint(layout.step, empty, *args) == Footprint((), layout.memory.word_bits)
        assert replay_from_footprint(layout.step, empty, Footprint((), layout.memory.word_bits)) == ({}, {})
        assert detached_pass(layout.step, empty, *args) == ({}, {})
        with pytest.raises(CorruptFootprint, match="^footprint has cells left over$"):
            replay_from_footprint(layout.step, empty, Footprint((0,), layout.memory.word_bits))


def test_detached_pass_checks_queries_as_set_passes_do():
    for _, layout in _kinds(4096):
        args = (layout.memory, layout.published)
        for bad in (4096, -1, 5000, 2**70):
            with pytest.raises(IndexError, match=r"query outside \[0, 4096\)"):
                detached_pass(layout.step, [3, bad, 7], *args)
        for bad in (1.0, "3"):
            with pytest.raises(TypeError):
                detached_pass(layout.step, [3, bad, 7], *args)
        # sorted and deduplicated first: the order a caller gives keeps no other query
        queries = list(range(5, 4096, 61))
        want = detached_pass(layout.step, queries, *args)
        for shuffled in (queries[::-1], queries + queries[:9], np.array(queries[::-1], dtype=np.int64)):
            got = detached_pass(layout.step, shuffled, *args)
            assert list(got[0].items()) == list(want[0].items()) and list(got[1].items()) == list(want[1].items())
            assert all(type(q) is int for q in got[0])
        assert want[0] == driver_pass(layout, list(want[0]))[0]


@settings(max_examples=200, deadline=None)
@given(case=layouts(), data=st.data())
def test_detached_choice_ignores_the_data(case, data):
    # the kept queries depend on the params, the queries and the
    # published addresses alone: another array of the same geometry, with
    # the same cells published (their contents its own), keeps the same
    # ones.  layouts() draws naive layouts and widths past 64 among others
    _, layout = case
    n = layout.n
    other = layout_from_params(BitArray.random(n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))), layout.params)
    other.published.publish_cells(other.memory, list(layout.published.cells))
    k = data.draw(st.integers(1, n))
    queries = block_queries(n, k, data.draw(st.integers(0, n // k - 1)))
    kept = [list(detached_pass(x.step, queries, x.memory, x.published)[0]) for x in (layout, other)]
    assert kept[0] == kept[1]


class GatherLog(CellMemory):
    """A memory that keeps the addresses of each ``gather`` call."""

    def __init__(self, word_bits, cells):
        super().__init__(word_bits, cells)
        self.gathers = []

    def gather(self, addresses):
        self.gathers.append([int(a) for a in addresses])
        return super().gather(addresses)


@pytest.mark.parametrize("d", [1, 500, 1023])
@pytest.mark.parametrize("published", [(), range(0, 20)], ids=["bare", "published"])
def test_detached_pass_gathers_only_the_kept_cells(d, published):
    # every candidate scans from cell 0 of a naive layout, so most are
    # dropped: the pass reads none of theirs, only the kept set's charged
    # cells, in one gather, and never calls the reader
    n = 1 << 16
    layout = build_naive(BitArray.random(n, np.random.default_rng(21)))
    layout.published.publish_cells(layout.memory, published)
    memory = GatherLog(64, layout.memory.image)

    def step(*args):
        raise AssertionError("the detached pass called the reader")

    step.params = layout.params
    answers, cells = detached_pass(step, block_queries(n, 64, d), memory, layout.published)
    assert memory.gathers == [list(cells)]
    assert list(answers) == greedy_scan(layout, block_queries(n, 64, d).tolist())[0]
    assert len(answers) < 64


@pytest.mark.parametrize("w", [64, 65, 96])
@pytest.mark.parametrize("published", [False, True], ids=["bare", "published"])
def test_wide_set_pass_answers_match_popcount(w, published):
    # past w = 64 the served cells stay Python ints and are counted into
    # int64; only the last-cell and counter terms are Python ints.  A set
    # whose first query reads no raw cell (its position ends a block)
    # shifts its cell hi by w, which takes off nothing; with a
    # block of one cell, query w - 1 has an empty scan in the cell query
    # w - 2 reads, and only the shift by w keeps that cell out of its answer
    array = BitArray.random(4096, np.random.default_rng(21))
    for layout in _layouts_at(array, w):
        if published:
            layout.publish_redundancy()
            layout.published.publish_cells(layout.memory, range(0, layout.params["raw_cells"], 3))
        for queries in ([w - 1], [w - 2, w - 1], [w - 1, 8 * w - 1, 100], [*range(0, 4096, 37), 4095]):
            want = {q: popcount_rank(array, q + 1) for q in queries}
            answers, _ = simulate_set(layout.step, queries, layout.memory, layout.published)
            assert answers == want and all(type(v) is int for v in answers.values())
            plan = ProbePlan(layout.params, np.array(sorted(queries)))
            assert plan.set_pass(layout.published.cells, layout.memory.gather)[0] == want
