"""The two routes of a set pass against the driver.

A set pass over a layout's step takes :meth:`ProbePlan.set_pass` from
``structures.PLAN_MIN_QUERIES`` queries on, at w <= 64, and the layout's
reader below that.  The generator driver of ``tests/oracles.py``, query
by query, is the oracle: both routes must give the same answers, and
the same fetched cells in the same order.
"""

import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankprobe import structures
from rankprobe.bits import BitArray
from rankprobe.errors import CorruptFootprint
from rankprobe.model import Footprint
from rankprobe.structures import ProbePlan, build_footprint, build_naive, build_recursive, build_two_level, max_stage, replay_from_footprint, simulate_set
from oracles import driver_pass, popcount_rank

C = structures.PLAN_MIN_QUERIES


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
    queries = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * C + 8))
    want_answers, want = driver_pass(layout, queries)
    assert want_answers == {q: popcount_rank(array, q + 1) for q in queries}
    published = layout.published.cells
    before = list(published.items())

    routes = [simulate_set(layout.step, queries, layout.memory, layout.published)]
    foot = build_footprint(layout.step, queries, layout.memory, layout.published)
    assert foot.bits == tuple(want.values())
    routes.append(replay_from_footprint(layout.step, queries, foot, layout.published))
    if layout.memory.word_bits <= 64:  # the plan itself, at any set size
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


@pytest.mark.parametrize("w", [64, 65, 96])
def test_route_by_params_size_and_width(monkeypatch, w):
    sizes = _spied(monkeypatch)
    array = BitArray.random(4096, np.random.default_rng(3))
    layout = build_naive(array, w) if w == 65 else build_two_level(array, 8 * w, w, w)
    big = list(range(7, 4096, 4096 // (C + 3)))[: C + 1] + [7]  # C + 1 distinct queries
    small = big[: C - 1]
    for queries in (small, big):
        want = list(driver_pass(layout, queries)[1].items())
        live = simulate_set(layout.step, queries, layout.memory, layout.published)
        foot = build_footprint(layout.step, queries, layout.memory, layout.published)
        for answers, fetched in (live, replay_from_footprint(layout.step, queries, foot, layout.published)):
            assert answers == {q: popcount_rank(array, q + 1) for q in queries}
            assert list(fetched.items()) == want
    # widths past 64 stay on the reader; below that the big set takes the
    # plan three times, to simulate, to record and to replay
    assert sizes == ([C + 1] * 3 if w <= 64 else [])


def _kinds(n):
    array = BitArray.random(n, np.random.default_rng(9))
    yield "naive", build_naive(array)
    yield "two_level", build_two_level(array)
    yield "recursive", build_recursive(array, 2)
    yield "two_level-w96", build_two_level(array, 384, 96, 96)


@pytest.mark.parametrize("size", [3, C + 5], ids=["driver", "plan"])
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
    values = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * C + 8))
    if draw(st.booleans()):
        values = sorted(set(values))
    if shape == "ndarray":
        return lambda: np.array(values, dtype=np.int64), sorted(set(values))
    kinds = draw(st.lists(st.sampled_from([int, np.int64, bool]), min_size=len(values), max_size=len(values)))
    items = [kind(v) if kind is not bool or v < 2 else v for kind, v in zip(kinds, values)]
    make = {"list": lambda: list(items), "tuple": lambda: tuple(items), "generator": lambda: (q for q in items)}[shape]
    return make, sorted(set(values))


def _routes():
    """PLAN_MIN_QUERIES values that send every set to the plan (at w <= 64) or to the reader."""
    return [mock.patch.object(structures, "PLAN_MIN_QUERIES", m) for m in (1, 10**9)]


@settings(max_examples=200, deadline=None)
@given(case=layouts(), data=st.data())
def test_set_shapes_match_on_both_routes(case, data):
    array, layout = case
    n = layout.n
    make, distinct = data.draw(query_shapes(n))
    want_answers, want = driver_pass(layout, distinct)
    for route in _routes():
        with route:
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
    for route in _routes():
        with route:
            for run in (
                lambda: simulate_set(layout.step, iter(queries), layout.memory, layout.published),
                lambda: build_footprint(layout.step, list(queries), layout.memory, layout.published),
            ):
                with pytest.raises(error):
                    run()
            bits = (c for c in want.values())
            with pytest.raises(error):
                replay_from_footprint(layout.step, tuple(queries), Footprint(bits, layout.memory.word_bits), layout.published)
            assert inspect.getgeneratorstate(bits) == inspect.GEN_CREATED  # no cell was read
