"""Canonical prefix-free codes and lexicographic subset indexing.

Both tools are deterministic by construction: Huffman ties are broken by
symbol order, and codeword assignment is canonical (sorted by length,
then symbol), so encoder and decoder rebuild identical tables from the
same weights.  Codewords are written most-significant bit first into the
LSB-first bit strings used everywhere else.
"""

from __future__ import annotations

import bisect
import heapq
import math

from .bits import BitString


class CanonicalCode:
    """Canonical Huffman code over a finite symbol set.

    Weights may be floats or exact ints (big ints welcome).  A
    single-symbol alphabet gets a zero-bit codeword: the decoder emits
    the symbol without consuming input.
    """

    def __init__(self, lengths: dict):
        self.lengths = dict(lengths)
        self.codes = {}
        table = {}  # canonical decoding table: length -> (first code, symbols)
        code = length = 0
        for sym in sorted(self.lengths, key=lambda s: (self.lengths[s], s)):
            code <<= self.lengths[sym] - length
            length = self.lengths[sym]
            self.codes[sym] = code
            table.setdefault(length, (code, []))[1].append(sym)
            code += 1
        self._max_len = length
        self._table = [(ln, first, row) for ln, (first, row) in table.items()]  # ascending lengths

    @classmethod
    def from_weights(cls, weights: dict) -> "CanonicalCode":
        syms = sorted(weights)
        if not syms:
            raise ValueError("empty alphabet")
        if len(syms) == 1:
            return cls({syms[0]: 0})
        heap = [(weights[s], i, i) for i, s in enumerate(syms)]
        heapq.heapify(heap)
        parent = {}
        nxt = len(syms)
        while len(heap) > 1:
            wa, _, ia = heapq.heappop(heap)
            wb, _, ib = heapq.heappop(heap)
            parent[ia] = parent[ib] = nxt
            heapq.heappush(heap, (wa + wb, nxt, nxt))
            nxt += 1
        depth = {heap[0][2]: 0}
        for node in range(nxt - 2, -1, -1):
            depth[node] = depth[parent[node]] + 1
        return cls({s: depth[i] for i, s in enumerate(syms)})

    def encode_symbol(self, out: BitString, sym) -> int:
        length = self.lengths[sym]
        # most-significant bit first: the codeword's bits, reversed
        out.append_bits(int(f"{self.codes[sym]:0{length}b}"[::-1], 2), length)
        return length

    def decode_symbol(self, data: BitString, offset: int):
        """Returns (symbol, new offset)."""
        if len(self.lengths) == 1:
            return next(iter(self.lengths)), offset
        # One window of up to _max_len bits, first bit most significant and
        # zero-padded.  Left-justified, each length's codes start where the
        # shorter ones end, so only the last length starting at or below fits.
        top = self._max_len
        width = min(top, data.length - offset)
        window = int(f"{data.read_bits(offset, width):0{width}b}"[::-1], 2) << (top - width)
        length, first, row = self._table[bisect.bisect_right(self._table, window, key=lambda e: e[1] << (top - e[0])) - 1]
        index = (window >> (top - length)) - first
        if length <= width and index < len(row):
            return row[index], offset + length
        raise ValueError("bit read outside string" if width < top else "invalid codeword")


# -- subsets in lexicographic order ---------------------------------------

def subset_rank(k: int, subset) -> int:
    """Index of a sorted subset of [0, k) among same-size subsets in
    lexicographic order of the increasing sequence.  A running binomial
    c = C(a, b) counts the subsets of the last a blocks with b members
    left, so each block costs one product, not a fresh binomial."""
    s = sorted(subset)
    if s and (s[0] < 0 or s[-1] >= k):
        raise ValueError("subset element out of range")
    members = set(s)
    a, b = k, len(s)
    c, rank = math.comb(a, b), 0
    for v in range(max(s, default=-1) + 1):
        block = c * b // a  # C(a - 1, b - 1): the subsets whose next member is v
        if v in members:
            c, b = block, b - 1
        else:
            rank, c = rank + block, c - block  # the rest: C(a - 1, b)
        a -= 1
    return rank

def subset_unrank(k: int, j: int, rank: int) -> tuple:
    """Inverse of subset_rank for size-j subsets of [0, k), walking the
    same running binomial."""
    if not 0 <= j <= k:
        raise ValueError("bad subset size")
    a, b = k, j
    c = math.comb(a, b)
    if not 0 <= rank < c:
        raise ValueError("subset rank out of range")
    out = []
    while b:
        block = c * b // a
        if rank < block:
            out.append(k - a)
            c, b = block, b - 1
        else:
            rank, c = rank - block, c - block
        a -= 1
    return tuple(out)


def subset_index_bits(k: int, j: int) -> int:
    """Bits to store a lexicographic index among size-j subsets of [0, k)."""
    count = math.comb(k, j)
    return max(0, (count - 1).bit_length())


def subset_header_bits(k: int) -> int:
    """Bits to store a subset size in [0, k]."""
    return max(1, k.bit_length())
