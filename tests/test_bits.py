import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe.bits import BitArray, BitString, cell_array, cells_to_bytes
from oracles import popcount_rank


def ref_rank(value: int, k: int) -> int:
    return (value & ((1 << k) - 1)).bit_count()


def test_bitarray_get_set_rank_small():
    rng = np.random.default_rng(1)
    for n in (1, 7, 63, 64, 65, 130):
        value = int(rng.integers(0, 1 << min(n, 62)))
        a = BitArray.from_int(n, value)
        assert a.ranks(np.arange(n + 1)).tolist() == [ref_rank(value, k) for k in range(n + 1)]


def test_bitarray_random_round_trips():
    rng = np.random.default_rng(7)
    for n in (12, 100, 4096):
        a = BitArray.random(n, rng)
        assert BitArray.from_int(n, a.to_int()) == a
        assert BitArray.from_bits(a.to_bits()) == a


def test_rpl1_layout():
    # bit i (1-indexed) sits in byte (i-1)//8 at position (i-1) % 8
    a = BitArray.from_int(12, 0x101)
    blob = a.to_rpl1()
    assert blob[:4] == b"RPL1"
    assert int.from_bytes(blob[4:12], "little") == 12
    assert blob[12:] == bytes([0x01, 0x01])
    assert BitArray.from_rpl1(blob) == a


def test_rpl1_round_trip_random(tmp_path):
    rng = np.random.default_rng(3)
    for n in (1, 12, 64, 1000):
        a = BitArray.random(n, rng)
        p = tmp_path / f"a{n}.rpl1"
        a.write_rpl1(p)
        assert BitArray.from_rpl1(p.read_bytes()) == a


def test_rpl1_corrupt():
    a = BitArray.random(100, np.random.default_rng(0))
    blob = a.to_rpl1()
    with pytest.raises(ValueError):
        BitArray.from_rpl1(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        BitArray.from_rpl1(blob[:-1])
    with pytest.raises(ValueError):
        BitArray.from_rpl1(blob[:8])


def test_rpl1_rejects_trailing_bytes():
    a = BitArray.random(13, np.random.default_rng(1))
    blob = a.to_rpl1()
    assert BitArray.from_rpl1(blob) == a
    with pytest.raises(ValueError):
        BitArray.from_rpl1(blob + b"xyz")


@pytest.mark.parametrize("n", [13, 100])
def test_rpl1_rejects_nonzero_padding(n):
    blob = BitArray.random(n, np.random.default_rng(2)).to_rpl1()
    for pad_bit in range(n % 8, 8):
        with pytest.raises(ValueError):
            BitArray.from_rpl1(blob[:-1] + bytes([blob[-1] | (1 << pad_bit)]))


def test_bitstring_append_read():
    s = BitString()
    s.append_bits(0b101, 3)
    s.append_bits(0, 4)
    s.append_bits(0xFF, 8)
    assert s.length == 15
    assert s.read_bits(0, 3) == 0b101
    assert s.read_bits(3, 4) == 0
    assert s.read_bits(7, 8) == 0xFF
    with pytest.raises(ValueError):
        s.read_bits(8, 8)
    with pytest.raises(ValueError):
        s.append_bits(4, 2)


def test_bitstring_bytes_round_trip():
    s = BitString()
    s.append_bits(0x1A2B, 16)
    s.append_bits(1, 1)
    data = s.to_bytes()
    back = BitString.from_bytes(data, s.length)
    assert back == s
    with pytest.raises(ValueError):
        BitString.from_bytes(data, s.length - 9)
    with pytest.raises(ValueError):
        BitString.from_bytes(b"\xff\xff\xff", 17)  # nonzero padding


def sliced_cells(value: int, n: int, w: int) -> list:
    """The big-int reference: w-bit cells sliced off the bits of `value`."""
    return [(value >> (c * w)) & ((1 << w) - 1) for c in range(-(-n // w))]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 2000), w=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
def test_cell_codec_matches_big_int_slicing(n, w, seed):
    a = BitArray.random(n, np.random.default_rng(seed))
    cells = cell_array(a.words.view(np.uint8), n, w).tolist()
    assert cells == sliced_cells(a.to_int(), n, w)
    assert all(type(c) is int for c in cells)
    packed = cells_to_bytes(cells, w)
    assert len(packed) == (len(cells) * w + 7) // 8
    assert int.from_bytes(packed, "little") == a.to_int()
    s = BitString(0b10, 2)
    s.append_cells(cells, w)
    assert s.length == 2 + len(cells) * w
    assert s.value == 0b10 | a.to_int() << 2
    assert s.read_cells(2, len(cells), w) == cells


def packed_cells(cells: list, w: int) -> bytes:
    """The per-cell big-int reference: cell i at bits i * w .. (i + 1) * w - 1."""
    value = 0
    for i, c in enumerate(cells):
        value |= c << (i * w)
    return value.to_bytes(-(-len(cells) * w // 8), "little")


@settings(max_examples=300, deadline=None)
@given(w=st.integers(1, 200), data=st.data())
def test_cell_array_round_trip_at_any_width(w, data):
    cells = data.draw(st.lists(st.integers(0, (1 << w) - 1), max_size=40))
    packed = cells_to_bytes(cells, w)
    assert packed == packed_cells(cells, w)
    array = cell_array(np.frombuffer(packed, dtype=np.uint8), len(cells) * w, w)
    assert array.dtype == (np.uint64 if w <= 64 else object)
    assert array.tolist() == cells
    assert all(type(c) is int for c in array.tolist())
    assert cells_to_bytes(array, w) == packed
    if cells:  # one cell negative or a bit too wide
        at = data.draw(st.integers(0, len(cells) - 1))
        for bad in (-1 - cells[at], cells[at] | 1 << w):
            with pytest.raises(ValueError, match=f"does not fit in {w} bits"):
                cells_to_bytes([*cells[:at], bad, *cells[at + 1 :]], w)


@pytest.mark.parametrize("w", [1, 8, 13, 63, 64, 96, 130])
def test_cell_codec_rejects_bad_cells(w):
    for bad in (-1, 1 << w):
        with pytest.raises(ValueError):
            cells_to_bytes([0, bad], w)
        with pytest.raises(ValueError):
            BitString().append_cells([bad], w)
    for width in (0, -3):
        with pytest.raises(ValueError, match="cell width must be positive"):
            cell_array(np.zeros(8, dtype=np.uint8), 8, width).tolist()


def test_ranks_match_rank():
    rng = np.random.default_rng(11)
    for n in (0, 1, 63, 64, 65, 128, 1000):
        a = BitArray.random(n, rng)
        ks = np.arange(n + 1)
        assert a.ranks(ks).tolist() == [popcount_rank(a, k) for k in range(n + 1)]
        assert a.ranks(ks[::-7]).tolist() == [popcount_rank(a, int(k)) for k in ks[::-7]]
