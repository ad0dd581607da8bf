"""Bit arrays and bit strings.

Two containers with different jobs:

* :class:`BitArray` is the data under study: a fixed-length 0/1 array
  ``A[1..n]`` (1-indexed, as rank queries are phrased) backed by packed
  64-bit little-endian words.  It answers batched prefix-sum queries
  (``ranks``, where the layouts' counters come from) and round-trips
  through the ``RPL1`` file format.
* :class:`BitString` is a growable bit buffer used for published bits and
  encodings, backed by a Python int (LSB first) with an explicit length so
  trailing zeros survive.

Both meet the cell memories of :mod:`structures` through one codec:
:func:`cell_array` cuts packed bits into w-bit cells and
:func:`cells_to_bytes` packs cells back, for any width, in time linear in
the bits.
"""

from __future__ import annotations

import struct

import numpy as np

RPL1_MAGIC = b"RPL1"


def cell_array(data: np.ndarray, nbits: int, width: int) -> np.ndarray:
    """Cut the first `nbits` bits of `data` into ceil(nbits / width) cells
    of `width` bits, in a uint64 array, or past width 64 an object array
    of Python ints; the last cell is zero-padded.

    `data` is a uint8 array of packed bits, LSB first (a ``BitArray``'s
    words viewed as bytes), at least ceil(nbits / 8) long and zero past
    `nbits`.  Up to width 64 the cells own their data, but at 64 may view `data`."""
    if width < 1:
        raise ValueError("cell width must be positive")
    count = -(-nbits // width)
    if width == 64 and data.size >= count * 8:
        return data[: count * 8].view("<u8")
    bits = np.zeros(count * width, dtype=np.uint8)
    bits[:nbits] = np.unpackbits(data, count=nbits, bitorder="little")
    rows = np.packbits(bits.reshape(count, width), axis=1, bitorder="little")
    nl = -(-width // 64)  # 64-bit limbs per cell
    flat = np.zeros(count * nl, dtype="<u8")  # each cell's limbs, low first; owns its data up to width 64
    flat.view(np.uint8).reshape(count, nl * 8)[:, : rows.shape[1]] = rows
    if nl == 1:
        return flat
    cells = flat[nl - 1 :: nl]
    for i in range(nl - 2, -1, -1):  # past width 64, Python ints: the top limb up
        cells = cells.astype(object) << 64 | flat[i::nl].astype(object)
    return cells


def cells_to_bytes(cells, width: int) -> bytes:
    """Pack `width`-bit cells LSB first into ceil(len(cells) * width / 8)
    bytes, padding bits zero: the inverse of :func:`cell_array`.
    Raises ValueError on a cell that is negative or wider than `width`."""
    if width < 1:
        raise ValueError("cell width must be positive")
    count = len(cells)
    if not count:  # a published ledger without pairs, say
        return b""
    nl = -(-width // 64)  # 64-bit limbs per cell
    top = width - 64 * (nl - 1)  # bits in the top limb
    try:
        values = np.array(cells, dtype=object if nl > 1 else np.uint64)
        limbs = np.empty((count, nl), dtype="<u8")  # low limb first
        for i in range(nl - 1):  # past width 64, Python ints: the low limb off
            limbs[:, i] = values & 0xFFFF_FFFF_FFFF_FFFF
            values = values >> 64
        limbs[:, -1] = values  # OverflowError where a value is negative or too wide for uint64
        if top < 64 and (limbs[:, -1] >> np.uint64(top)).any():
            raise OverflowError
    except OverflowError:
        raise ValueError(f"a cell does not fit in {width} bits") from None
    bits = np.unpackbits(limbs.view(np.uint8), axis=1, count=width, bitorder="little")
    return np.packbits(bits, bitorder="little").tobytes()


class BitArray:
    """Fixed-length bit array A[1..n] over packed uint64 words."""

    __slots__ = ("n", "words", "_prefix")

    def __init__(self, n: int, words: np.ndarray | None = None):
        if n < 0:
            raise ValueError("negative length")
        self.n = n
        n_words = (n + 63) // 64
        if words is None:
            words = np.zeros(n_words, dtype=np.uint64)
        else:
            words = np.ascontiguousarray(words, dtype=np.uint64)
            if words.shape != (n_words,):
                raise ValueError("word buffer does not match length")
        self.words = words
        self._mask_tail()
        self._prefix = None  # lazy cumulative popcounts, one entry per word

    def _mask_tail(self) -> None:
        tail = self.n % 64
        if tail and len(self.words):
            self.words[-1] &= np.uint64((1 << tail) - 1)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_bytes(cls, n: int, data: bytes) -> "BitArray":
        """A[1..n] from packed bits, LSB first: bit i - 1 of `data` is A[i].
        Bits past n are dropped, and a short `data` reads as zeros past its end."""
        size = ((n + 63) // 64) * 8
        return cls(n, np.frombuffer(data[:size].ljust(size, b"\0"), dtype=np.uint64).copy())

    @classmethod
    def from_bits(cls, bits) -> "BitArray":
        arr = np.asarray(bits, dtype=np.uint8)
        return cls.from_bytes(len(arr), np.packbits(arr, bitorder="little").tobytes())

    @classmethod
    def from_int(cls, n: int, value: int) -> "BitArray":
        # bit i of value (LSB first) becomes A[i+1]
        return cls.from_bytes(n, value.to_bytes(((n + 63) // 64) * 8, "little"))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitArray":
        n_bytes = ((n + 63) // 64) * 8
        raw = rng.integers(0, 256, size=n_bytes, dtype=np.uint8)
        return cls(n, raw.view(np.uint64).copy())

    # -- access -----------------------------------------------------------

    def ranks(self, positions: np.ndarray) -> np.ndarray:
        """Rank(k), the ones among A[1..k], for every k of an int64 array
        with 0 <= k <= n."""
        if not (self.n and positions.size):
            return np.zeros(positions.shape, dtype=np.int64)
        if self._prefix is None:  # ones through each word, kept for the array's next layout
            self._prefix = np.add.accumulate(np.bitwise_count(self.words), dtype=np.int64)
        q = np.minimum(positions >> 6, len(self.words) - 1)
        # ones through word q, less those of word q at or past position k
        high = self.words[q] >> (positions - (q << 6)).astype(np.uint64)
        return self._prefix[q] - np.bitwise_count(high)

    def popcount(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def to_int(self) -> int:
        return int.from_bytes(self.words.tobytes(), "little")

    def to_bits(self) -> np.ndarray:
        flat = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return flat[: self.n]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitArray)
            and self.n == other.n
            and bool(np.array_equal(self.words, other.words))
        )

    def __repr__(self) -> str:
        return f"BitArray(n={self.n}, ones={self.popcount()})"

    # -- RPL1 format ------------------------------------------------------
    # magic "RPL1", n as 8-byte little-endian unsigned, then ceil(n/8)
    # payload bytes; bit i (1-indexed) lives in byte (i-1)//8 at bit
    # position (i-1) % 8.  The reader accepts only that canonical form:
    # no bytes after the payload, and zero padding bits in the last byte.

    def to_rpl1(self) -> bytes:
        n_bytes = (self.n + 7) // 8
        payload = self.words.tobytes()[:n_bytes]
        return RPL1_MAGIC + struct.pack("<Q", self.n) + payload

    @classmethod
    def from_rpl1(cls, blob: bytes) -> "BitArray":
        if blob[:4] != RPL1_MAGIC:
            raise ValueError("not an RPL1 payload (bad magic)")
        if len(blob) < 12:
            raise ValueError("truncated RPL1 header")
        (n,) = struct.unpack("<Q", blob[4:12])
        n_bytes = (n + 7) // 8
        payload = blob[12 : 12 + n_bytes]
        if len(payload) != n_bytes:
            raise ValueError("truncated RPL1 payload")
        if len(blob) != 12 + n_bytes:
            raise ValueError("trailing bytes after RPL1 payload")
        if n % 8 and payload[-1] >> (n % 8):
            raise ValueError("RPL1 padding bits are not zero")
        return cls.from_bytes(n, payload)

    def write_rpl1(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_rpl1())


class BitString:
    """Growable bit string, LSB-first, with explicit length."""

    __slots__ = ("value", "length")

    def __init__(self, value: int = 0, length: int = 0):
        if length < 0 or value < 0 or value >> length:
            raise ValueError("value wider than declared length")
        self.value = value
        self.length = length

    def append_bits(self, value: int, width: int) -> None:
        """Append `width` bits of `value`, LSB first."""
        if width < 0 or value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self.value |= value << self.length
        self.length += width

    def append_cells(self, cells, width: int) -> None:
        """Append each cell in `width` bits, LSB first."""
        self.value |= int.from_bytes(cells_to_bytes(cells, width), "little") << self.length
        self.length += len(cells) * width

    def read_bits(self, offset: int, width: int) -> int:
        if offset < 0 or width < 0 or offset + width > self.length:
            raise ValueError("bit read outside string")
        return (self.value >> offset) & ((1 << width) - 1)

    def read_cells(self, offset: int, count: int, width: int) -> list:
        """`count` cells of `width` bits starting at bit `offset`."""
        return self.cell_array(offset, count, width).tolist()

    def cell_array(self, offset: int, count: int, width: int) -> np.ndarray:
        """The cells of :meth:`read_cells` as :func:`cell_array` gives them."""
        nbits = count * width
        raw = self.read_bits(offset, nbits).to_bytes(-(-nbits // 8), "little")
        return cell_array(np.frombuffer(raw, dtype=np.uint8), nbits, width)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes((self.length + 7) // 8, "little")

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitString":
        if (length + 7) // 8 != len(data):
            raise ValueError("byte payload does not match bit length")
        value = int.from_bytes(data, "little")
        if value >> length:
            raise ValueError("padding bits are not zero")
        return cls(value, length)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.length == other.length
            and self.value == other.value
        )

    def __repr__(self) -> str:
        return f"BitString(length={self.length})"
