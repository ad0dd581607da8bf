import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe.bits import BitArray
from rankprobe.errors import CorruptFootprint, SimulationFault
from rankprobe.model import CellMemory, Footprint, PublishedBits
from rankprobe.structures import (
    ProbePlan,
    build_footprint,
    build_naive,
    build_recursive,
    build_two_level,
    replay_from_footprint,
    simulate_set,
)
from oracles import driver_pass, probes_of_set, publish_cells_per_cell, run_query


def sum_step(query):
    """Toy structure: 8-bit cells, query q sums cells 0..q."""
    total = 0
    for a in range(query + 1):
        total += yield a
    return total & 0xFF


def toy_layout():
    """Four 8-bit cells 5, 7, 11, 13 as a naive layout: query q scans
    cells 0 .. q // 8."""
    return build_naive(BitArray.from_int(32, 5 | 7 << 8 | 11 << 16 | 13 << 24), 8)


def test_cell_memory_contract():
    mem = CellMemory(8, [1, 2, 3])
    assert mem.cell_count == 3
    assert mem.total_bits() == 24
    assert mem.address_bits() == 2
    assert mem.read(2) == 3
    with pytest.raises(SimulationFault):
        mem.read(3)
    with pytest.raises(SimulationFault):
        mem.read(-1)
    with pytest.raises(ValueError):
        CellMemory(8, [256])
    assert list(CellMemory(8, np.zeros(0, dtype=np.uint64)).cells) == []


@pytest.mark.parametrize("w,cells", [(8, [0, 256, 1]), (8, [3, -1]), (64, [1 << 64]), (96, [5, 1 << 96, 0])])
def test_cell_memory_rejects_out_of_range_cells(w, cells):
    clamped = [max(0, min(c, (1 << w) - 1)) for c in cells]
    with pytest.raises(ValueError, match="wider than word"):
        CellMemory(w, cells)
    CellMemory(w, clamped)
    # an int64 or uint64 array is checked as its list is, and stored as the same Python ints
    for dtype in (np.int64, np.uint64):
        info = np.iinfo(dtype)
        if all(info.min <= c <= info.max for c in cells):
            with pytest.raises(ValueError, match="wider than word"):
                CellMemory(w, np.array(cells, dtype=dtype))
        if all(info.min <= c <= info.max for c in clamped):
            mem = CellMemory(w, np.array(clamped, dtype=dtype))
            assert list(mem.cells) == clamped
            assert all(type(c) is int for c in mem.cells)


def test_gather_checks_every_address_as_read_does():
    mem = CellMemory(8, [10, 11, 12, 13, 14])
    for addresses in ([], (), range(0), [3], (4,), range(2, 3), [4, 0, 2, 2], (1, 3), range(1, 5), range(0, 5, 2)):
        got = mem.gather(addresses)
        assert type(got) is list and got == [mem.read(a) for a in addresses]
    # the first address outside memory, in list order, is the one reported
    for addresses, bad in (([-1], -1), ([5], 5), ([2, 7, -3], 7), ([2, -3, 7], -3), ((0, 1, 5, 6), 5), (range(3, 6), 5), (range(-1, 2), -1)):
        with pytest.raises(SimulationFault, match=rf"^probe address {bad} outside memory of 5 cells$"):
            mem.gather(addresses)


@settings(max_examples=150, deadline=None)
@given(w=st.integers(1, 130), data=st.data())
def test_cell_memory_image_contract(w, data):
    # up to w = 64 the memory is a read-only uint64 image, past it a list;
    # either way it reads and gathers Python ints, in a list, and faults
    # on an address outside it whatever form the addresses take
    cells = data.draw(st.lists(st.integers(0, (1 << w) - 1), max_size=20))
    n = len(cells)
    mem = CellMemory(w, cells)
    for dtype in (np.int64, np.uint64):
        if all(c <= np.iinfo(dtype).max for c in cells):
            assert list(CellMemory(w, np.array(cells, dtype=dtype)).cells) == cells
    assert list(mem.cells) == cells and all(type(c) is int for c in mem.cells)
    addresses = data.draw(st.lists(st.integers(0, n - 1), max_size=10)) if n else []
    lo = data.draw(st.integers(0, n))
    for form in (range(lo, data.draw(st.integers(lo, n))), addresses, tuple(addresses), np.array(addresses, dtype=np.int64)):
        got = mem.gather(form)
        assert type(got) is list and got == [cells[a] for a in form] and all(type(c) is int for c in got)
    assert all(type(mem.read(a)) is int and mem.read(a) == cells[a] for a in addresses)
    bad = data.draw(st.sampled_from([-1, n, n + 5]))
    for form in ([bad], (*addresses, bad), np.array([*addresses, bad], dtype=np.int64), range(max(bad, 0), n + 6)):
        with pytest.raises(SimulationFault):
            mem.gather(form)
    with pytest.raises(SimulationFault):
        mem.read(bad)
    image = mem.image
    assert image.tolist() == cells
    if w <= 64:
        assert image.dtype == np.uint64 and not image.flags.writeable and mem.cells.readonly
        with pytest.raises(ValueError, match="read-only"):
            image[:] = 0


def test_cell_memory_takes_fresh_images_and_copies_lent_ones():
    fresh = np.arange(5, dtype=np.uint64)
    assert CellMemory(8, fresh).image is fresh
    a = BitArray.random(640, np.random.default_rng(4))
    for layout in (build_naive(a, 64), build_naive(a, 7), build_two_level(a), build_recursive(a, 1)):
        before = list(layout.memory.cells)
        assert not np.shares_memory(layout.memory.image, a.words)
        a.words[:] = ~a.words  # the array stays writeable, and the memory as it was built
        assert list(layout.memory.cells) == before


def test_builder_image_still_range_checked():
    # a builder's fresh image, taken without a copy, is range-checked as
    # any other: here one holding a counter past its 8-bit cells
    image = build_two_level(BitArray.random(200, np.random.default_rng(0)), 64, 8, 8).memory.image.copy()
    image[-1] = 1 << 8
    with pytest.raises(ValueError, match="wider than word"):
        CellMemory(8, image)


def test_run_query_trace_and_determinism():
    mem = CellMemory(8, [5, 7, 11, 13])
    tr1 = run_query(sum_step, 2, mem)
    tr2 = run_query(sum_step, 2, mem)
    assert tr1 == tr2
    assert tr1.answer == 23
    assert tr1.addresses == (0, 1, 2)
    assert tr1.steps == ((0, 5), (1, 7), (2, 11))


def test_published_reads_are_free():
    mem = CellMemory(8, [5, 7, 11, 13])
    pub = PublishedBits()
    pub.publish_cells(mem, [1])
    tr = run_query(sum_step, 2, mem, pub)
    assert tr.answer == 23
    assert tr.addresses == (0, 2)  # cell 1 served free, not charged


def test_publish_cells_exact_growth():
    mem = CellMemory(8, list(range(10)))
    pub = PublishedBits()
    added = pub.publish_cells(mem, [3, 5])
    assert added == 2 * (8 + mem.address_bits())
    assert pub.length == added
    # re-publishing the same cell costs nothing
    assert pub.publish_cells(mem, [3]) == 0
    assert pub.publish_cells(mem, [3, 7]) == 8 + mem.address_bits()
    # a repeated address is one new cell
    assert pub.publish_cells(mem, [9, 9]) == 8 + mem.address_bits()
    assert pub.length == 4 * (8 + mem.address_bits())


def test_publish_cells_bad_address_leaves_ledger_untouched():
    pub = PublishedBits()
    with pytest.raises(SimulationFault):
        pub.publish_cells(CellMemory(8, [1, 2, 3]), [0, 1, 7])
    assert pub.cells == {} and pub.length == 0


def _address_forms(addresses: list, start: int, stop: int, step: int) -> list:
    """Ways to hand `addresses` to publish_cells, each a fresh callable
    (a generator is read once), plus a range of its own."""
    kind = np.int64 if all(type(a) is int for a in addresses) else None
    return [
        lambda: np.array(addresses, dtype=kind),
        lambda: list(addresses),
        lambda: tuple(addresses),
        lambda: (a for a in addresses),
        lambda: range(start, stop, step),
    ]


def _publish_both(ledgers, memory, form):
    """Publish `form()` into the two ledgers, the program's and the per-cell
    oracle's.  Returns each one's result, or the error it raised with its
    ledger's items and length unchanged."""
    out = []
    for ledger, publish in zip(ledgers, (PublishedBits.publish_cells, publish_cells_per_cell)):
        before = list(ledger.cells.items()), ledger.length
        try:
            out.append(publish(ledger, memory, form()))
        except (SimulationFault, TypeError) as e:
            assert (list(ledger.cells.items()), ledger.length) == before
            out.append((type(e), str(e)))
    return out


@settings(max_examples=300, deadline=None)
@given(w=st.integers(1, 130), data=st.data())
def test_publish_cells_matches_per_cell_oracle(w, data):
    # repeats, already-published and bad addresses, in every form an
    # address list takes, at every width (a list memory past w = 64): the
    # program's dict operations and one gather leave the ledger the per-cell
    # filter leaves, item for item, and raise where it raises
    count = data.draw(st.integers(1, 24))
    memory = CellMemory(w, data.draw(st.lists(st.integers(0, (1 << w) - 1), min_size=count, max_size=count)))
    ledgers = [PublishedBits(), PublishedBits()]
    good = st.integers(0, count - 1)
    bad = st.sampled_from([-1, count, count + 3, 0.5, 2.0, -1.5])
    for _ in range(data.draw(st.integers(1, 4))):
        addresses = data.draw(st.lists(st.one_of(good, good, good, bad) if data.draw(st.booleans()) else good, max_size=2 * count))
        start = data.draw(st.integers(-1, count + 1))
        stop = data.draw(st.integers(start, count + 2))
        form = data.draw(st.sampled_from(_address_forms(addresses, start, stop, data.draw(st.integers(1, 3)))))
        got, want = _publish_both(ledgers, memory, form)
        assert got == want
        assert list(ledgers[0].cells.items()) == list(ledgers[1].cells.items())
        assert ledgers[0].length == ledgers[1].length
        assert all(type(c) is int for c in ledgers[0].cells.values())


def test_bad_step_faults():
    mem = CellMemory(8, [0])

    def bad(query):
        yield ("jump", 0)

    with pytest.raises(SimulationFault):
        run_query(bad, 0, mem)

    def runaway(query):
        while True:
            yield 0

    # probing a known cell repeatedly burns steps without progress
    with pytest.raises(SimulationFault):
        run_query(runaway, 0, mem)


def test_footprint_first_seen_and_length():
    layout = toy_layout()
    mem = layout.memory
    fp = build_footprint(layout.step, [9, 17], mem)
    # query 9 probes 0,1; query 17 adds only 2
    assert fp.bits == (5, 7, 11)
    assert fp.probed_cell_count == 3
    assert fp.length == 3 * 8
    _, union = probes_of_set(layout.step, [9, 17], mem)
    assert fp.length == len(union) * mem.word_bits


def test_replay_matches_direct():
    layout = toy_layout()
    mem = layout.memory
    queries = [7, 23, 31]
    fp = build_footprint(layout.step, queries, mem)
    answers, seen = replay_from_footprint(layout.step, queries, fp)
    for q in queries:
        assert answers[q] == run_query(layout.step, q, mem).answer
    assert seen == {0: 5, 1: 7, 2: 11, 3: 13}


def test_replay_with_published_and_known():
    layout = toy_layout()
    mem = layout.memory
    pub = PublishedBits()
    pub.publish_cells(mem, [0])
    fp = build_footprint(layout.step, [23], mem, pub)
    assert fp.bits == (7, 11)  # cell 0 free, never recorded
    answers, _ = replay_from_footprint(layout.step, [23], fp, pub)
    assert answers[23] == 8  # the ones of 5, 7 and 11


def test_live_and_replayed_set_pass_agree():
    # both passes return the cells the set fetched, in first-seen order,
    # and leave out the published ones it read free
    layout = build_two_level(BitArray.random(4096, np.random.default_rng(5)))
    layout.publish_redundancy()
    layout.published.publish_cells(layout.memory, [0, 7, 40])
    queries = list(range(3, 4096, 37))
    answers, charged = simulate_set(layout.step, queries, layout.memory, layout.published)
    foot = build_footprint(layout.step, queries, layout.memory, layout.published)
    replayed = replay_from_footprint(layout.step, queries, foot, layout.published)
    assert replayed[0] == answers
    assert list(replayed[1].items()) == list(charged.items())
    assert not charged.keys() & layout.published.cells.keys()
    assert tuple(charged.values()) == foot.bits


def test_set_passes_read_published_cells_in_place():
    # live, footprint and replayed passes read the published dict itself
    # and change nothing in it; their one shared charged map takes no
    # published address
    layout = build_two_level(BitArray.random(4096, np.random.default_rng(6)))
    layout.publish_redundancy()
    layout.published.publish_cells(layout.memory, [0, 9, 63])
    cells = layout.published.cells
    before = list(cells.items())
    queries = list(range(5, 4096, 29))
    plan, published = ProbePlan(layout.params, queries), layout.published_mask()
    assert (plan.charged(np.zeros_like(published)) > plan.charged(published)).all()  # each meets a published cell
    _, live = simulate_set(layout.step, queries, layout.memory, layout.published)
    foot = build_footprint(layout.step, queries, layout.memory, layout.published)
    _, replayed = replay_from_footprint(layout.step, queries, foot, layout.published)
    assert layout.published.cells is cells
    assert list(cells.items()) == before
    for charged in (live, replayed):
        assert charged and not charged.keys() & cells.keys()


def test_replay_truncated_footprint():
    layout = toy_layout()
    fp = build_footprint(layout.step, [31], layout.memory)
    short = Footprint(fp.bits[:-1], 8)
    with pytest.raises(CorruptFootprint):
        replay_from_footprint(layout.step, [31], short)


def test_replay_overlong_footprint():
    layout = toy_layout()
    fp = build_footprint(layout.step, [15], layout.memory)
    long = Footprint(fp.bits + (11,), 8)
    with pytest.raises(CorruptFootprint):
        replay_from_footprint(layout.step, [15], long)


def test_repeated_reads_charged_once():
    def twice(query):
        first = yield 1
        second = yield 1
        return first + second

    tr = run_query(twice, 0, CellMemory(8, [3, 4]))
    assert tr.answer == 8
    assert tr.steps == ((1, 4),)

    def mixed(query):  # cell 0 is published below, cell 1 is not
        return (yield 0) + (yield 1) + (yield 0) + (yield 1)

    mem = CellMemory(8, [3, 4])
    pub = PublishedBits()
    pub.publish_cells(mem, [0])
    tr = run_query(mixed, 0, mem, pub)
    assert tr.answer == 14
    assert tr.steps == ((1, 4),)


def test_set_pass_fetches_each_query_steps_once():
    # the set pass's fetched map is the per-query traces joined in query
    # order, with every cell an earlier query already fetched dropped
    layout = build_recursive(BitArray.random(5000, np.random.default_rng(8)), 2)
    raw = layout.params["raw_cells"]
    layout.published.publish_cells(layout.memory, [1, 5, raw, raw + 3, layout.params["rel_base"]])
    queries = [4999, 300, 17, 310, 2047, 2048, 1000, 260, 3333, 3334, 0]
    _, fetched = simulate_set(layout.step, queries, layout.memory, layout.published)
    want = driver_pass(layout, queries)[1]
    assert list(fetched.items()) == list(want.items())
    assert not fetched.keys() & layout.published.cells.keys()
