"""Canonical prefix-free codes and lexicographic subset indexing.

Both tools are deterministic by construction: Huffman ties are broken by
symbol order, and codeword assignment is canonical (sorted by length,
then symbol), so encoder and decoder rebuild identical tables from the
same weights.  Codewords are written most-significant bit first into the
LSB-first bit strings used everywhere else.

Huffman lengths come from a two-queue merge (van Leeuwen, 1976): given
the leaves in ascending (weight, symbol index) order, the merged nodes
are made in ascending weight too, so the two lightest nodes are always
at the fronts of the two queues, with no heap and no sort past the
leaves'.  A caller that knows its leaf order, as the binomial answer
codes do, streams the leaves and keeps only the live queue.

A code keeps lengths, not codewords: each symbol's place in canonical
order and, per length L, S_L = 2^L - (first code of length L).  A
Huffman code has S_L at most its alphabet size, so the table stays small
however long the codewords grow.  A codeword is 2^L - S_L plus the
symbol's index among those of length L, made when it is needed.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter, deque

from .bits import BitString


def _huffman_depths(leaves, count: int) -> list:
    """Huffman code lengths of leaves 0..count-1, from an iterable of
    (weight, leaf) pairs in ascending (weight, leaf) order.

    The result is that of a heap keyed by (weight, node id) with merged
    nodes numbered from count up: on equal weight the leaf goes first.
    """
    if count == 1:
        return [0]
    parent = [0] * (2 * count - 1)
    leaves = iter(leaves)
    merged = deque()  # (weight, node) in ascending order, as they are made
    left = count
    weight, leaf = next(leaves)
    for node in range(count, 2 * count - 1):
        # the lighter front twice, unrolled: this loop is the whole merge
        if left and (not merged or weight <= merged[0][0]):
            total = weight
            parent[leaf] = node
            left -= 1
            if left:
                weight, leaf = next(leaves)
        else:
            total, child = merged.popleft()
            parent[child] = node
        if left and (not merged or weight <= merged[0][0]):
            total += weight
            parent[leaf] = node
            left -= 1
            if left:
                weight, leaf = next(leaves)
        else:
            w, child = merged.popleft()
            total += w
            parent[child] = node
        merged.append((total, node))
    depth = [0] * (2 * count - 1)
    for node in range(2 * count - 3, count - 1, -1):  # a parent always outnumbers its children
        depth[node] = depth[parent[node]] + 1
    return [depth[p] + 1 for p in parent[:count]]


class CanonicalCode:
    """Canonical Huffman code over a finite symbol set.

    Weights may be floats or exact ints (big ints welcome).  A
    single-symbol alphabet gets a zero-bit codeword: the decoder emits
    the symbol without consuming input.
    """

    def __init__(self, lengths: dict):
        self.lengths = dict(lengths)
        # canonical order: by length, then symbol
        self._order = sorted(sorted(self.lengths), key=self.lengths.__getitem__)
        self._place = dict(zip(self._order, range(len(self._order))))
        self._table = []  # (L, S_L, place of the first symbol of length L, their count)
        self._offsets = {}  # L -> S_L + place of the first symbol of length L
        length = min(self.lengths.values(), default=0)
        span, start = 1 << length, 0  # the first code is 0
        for ln, count in sorted(Counter(self.lengths.values()).items()):
            span <<= ln - length  # S_L: the words not taken by shorter codes
            self._table.append((ln, span, start, count))
            self._offsets[ln] = span + start
            span -= count
            start += count
            length = ln
        self._max_len = length
        self._table.reverse()  # descending L, so that S_L << (max L - L) ascends

    @classmethod
    def from_weights(cls, weights: dict) -> "CanonicalCode":
        syms = sorted(weights)
        if not syms:
            raise ValueError("empty alphabet")
        return cls.from_leaves(syms, sorted((weights[s], i) for i, s in enumerate(syms)))

    @classmethod
    def from_leaves(cls, syms, leaves) -> "CanonicalCode":
        """The Huffman code of sorted symbols syms, given (weight, index into
        syms) pairs in ascending order, as :func:`_huffman_depths` takes them."""
        return cls(dict(zip(syms, _huffman_depths(leaves, len(syms)))))

    def codeword(self, sym) -> int:
        """sym's codeword as an int, first bit most significant."""
        length = self.lengths[sym]
        return (1 << length) - self._offsets[length] + self._place[sym]

    def encode_symbol(self, out: BitString, sym) -> int:
        length = self.lengths[sym]
        # most-significant bit first: the codeword's bits, reversed
        out.append_bits(int(f"{self.codeword(sym):0{length}b}"[::-1], 2), length)
        return length

    def decode_symbol(self, data: BitString, offset: int):
        """Returns (symbol, new offset)."""
        if len(self.lengths) == 1:
            return next(iter(self.lengths)), offset
        # One window of up to _max_len bits, first bit most significant and
        # zero-padded.  Left-justified, the codes of length L and longer fill
        # the last S_L << (top - L) words below 2^top, so the window's length
        # is the longest whose span reaches down to the window.
        top = self._max_len
        width = min(top, data.length - offset)
        window = int(f"{data.read_bits(offset, width):0{width}b}"[::-1], 2) << (top - width)
        rest = (1 << top) - window
        i = bisect.bisect_left(self._table, rest, key=lambda e: e[1] << (top - e[0]))
        length, span, start, count = self._table[i]
        index = (window >> (top - length)) + span - (1 << length)
        if length <= width and index < count:
            return self._order[start + index], offset + length
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
