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
leaves'.  One merge serves exact weights, compared as they are, and the
binomial answer codes, whose weights C(m, v) it takes as float log2
weights: merged nodes add in log space, and a comparison that falls
within the walk's and the log-adds' error bound of a tie is settled
exactly, over the leaves under each side.  So those codes cost a float
step per node, not m big-int weights of up to m bits each.

A code keeps lengths, not codewords: each symbol's place in canonical
order and, per length L, S_L = 2^L - (first code of length L).  A
Huffman code has S_L at most its alphabet size, so the table stays small
however long the codewords grow.  A codeword is 2^L - S_L plus the
symbol's index among those of length L, made when it is needed.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import Counter

import numpy as np

from .bits import BitString


def _leaf_first(i, f, took, sums) -> bool:
    return True


def _huffman_depths(weights, log=False, close=0, settle=_leaf_first) -> list:
    """Huffman code lengths, in the order given, of leaves whose weights
    come in ascending (weight, symbol index) order.

    The result is that of a heap keyed by (weight, node id) with the
    leaves numbered in that order and merged nodes numbered from the
    leaf count up: on equal weight the leaf goes first.
    A merged node weighs the sum of its children, or with `log` the log2
    of the sum of the powers of 2 they weigh.  When the i-th leaf and
    merged node f differ in weight by at most `close`, settle(i, f, took,
    sums) puts them in order, true when the leaf goes first.  Merged node
    k weighs sums[k], and took[0][k] and took[1][k] say whether its first
    and second child were leaves (1) or merged nodes (0), each the next
    of its queue.
    """
    count = len(weights)
    if count == 1:
        return [0]
    took = first_leaf, second_leaf = bytearray(count - 1), bytearray(count - 1)
    sums = []  # the merged queue is sums[f:], made in ascending weight
    i = f = 0
    below = -close
    for k in range(count - 1):
        # the lighter front twice, unrolled: this loop is the whole merge
        if i < count and (f == k or (d := weights[i] - sums[f]) < below or d <= close and settle(i, f, took, sums)):
            first = weights[i]
            first_leaf[k] = 1
            i += 1
        else:
            first = sums[f]
            f += 1
        if i < count and (f == k or (d := weights[i] - sums[f]) < below or d <= close and settle(i, f, took, sums)):
            second = weights[i]
            second_leaf[k] = 1
            i += 1
        else:
            second = sums[f]
            f += 1
        sums.append(second + math.log2(1.0 + 2.0 ** (first - second)) if log else first + second)
    # depths from the root down: walked backwards, the children meet every
    # merged node after its parent, and the leaves and the merged nodes
    # each in reverse order
    depth, node_depth = [0] * count, [0] * (count - 1)
    for k in range(count - 2, -1, -1):
        dep = node_depth[k] + 1
        if second_leaf[k]:
            i -= 1
            depth[i] = dep
        else:
            f -= 1
            node_depth[f] = dep
        if first_leaf[k]:
            i -= 1
            depth[i] = dep
        else:
            f -= 1
            node_depth[f] = dep
    return depth


def _close_bound(m: int) -> float:
    """Twice the most that a leaf's and a merged node's float log2 weights
    in the binomial merge can be off together, the factor 2 for the
    comparison's own rounding.  The walk to log2 C(m, v) adds at most m/2
    terms t, |t| <= log2 m, each off by at most 8 units in its last place,
    and rounds each partial sum, at most m, by at most m 2^-53.  A log-add
    is off by at most (m + 7) 2^-53 more than its larger input, at most m
    times, the height of the tree."""
    return m * (m + 8 * m.bit_length() + 8) * 2.0 ** -51


def binomial_code(m: int) -> "CanonicalCode":
    """The canonical Huffman code of Binomial(m, 1/2) over 0..m, weights C(m, v).

    The leaves go in ascending order v = 0, m, 1, m - 1 and so on, the
    centre last, as C(m, v) grows up to the centre; of two equal weights
    the lower v comes first.  Their log2 weights come from one cumsum of
    log2((m - v) / (v + 1)) from v = 0.  A comparison within
    :func:`_close_bound` is settled exactly: the leaves under the node
    that are not too light to matter are weighed by a running product
    from the lightest of them up to the leaf, and the rest, whole
    subtrees lighter than 2^-g of the leaf, are bounded by their count;
    g doubles until that decides, which at worst weighs every leaf.
    """
    v = np.arange(m // 2, dtype=np.float64)
    lg = [0.0, *np.cumsum(np.log2((m - v) / (v + 1))).tolist()]  # log2 C(m, v), v <= m // 2
    close = _close_bound(m)

    kid, taken = [], [0, 0]  # children of merged nodes 0, 1, ..., a leaf index or ~f; leaves and nodes among them

    def settle(i, f, took, sums):
        for k in range(len(kid) // 2, f + 1):  # name the children of the nodes up to f
            for t in took:
                kid.append(taken[0] if t[k] else ~taken[1])
                taken[not t[k]] += 1  # one more leaf, or merged node, named
        # the i-th leaf is v = i // 2 or m - v, so min(v, m - v) = i >> 1
        r, g = i >> 1, 64
        while True:
            under, pruned, stack = Counter(), 0, [~f]  # under: exact leaves by min(v, m - v)
            while stack:
                x = stack.pop()
                if (lg[x >> 1] if x >= 0 else sums[~x]) + 2 * close < lg[r] - g:
                    pruned += 1  # less than 2^-g of C(m, r)
                elif x < 0:
                    stack += kid[-2 * x - 2 : -2 * x]
                elif x >> 1 >= r:
                    return True  # C(m, v) >= C(m, r) on its own
                else:
                    under[x >> 1] += 1
            lo = min(under, default=r)
            c, total = math.perm(r, r - lo), 0  # c runs over C(m, j) C(m, lo)^-1 r! / lo!, j = lo..r
            for j in range(lo, r):
                total += under[j] * c
                c = c * (m - j) // (j + 1)
            if c <= total:
                return True
            if not pruned or (c - total) << (g - 1) > pruned * c:
                return False
            g *= 2

    # the i-th leaf is v = i // 2 for even i and m - i // 2 for odd i
    depths = np.array(_huffman_depths([*itertools.chain.from_iterable(zip(lg, lg))][: m + 1], True, close, settle))
    lens = np.empty(m + 1, dtype=np.int64)
    lens[: (m + 2) // 2], lens[: m // 2 : -1] = depths[0::2], depths[1::2]
    return CanonicalCode.over_range(lens)


class CanonicalCode:
    """Canonical Huffman code over a finite symbol set.

    Weights may be floats or exact ints (big ints welcome).  A
    single-symbol alphabet gets a zero-bit codeword: the decoder emits
    the symbol without consuming input.  The table is arrays over the
    sorted symbols, so a code over 0..m (:meth:`over_range`) holds no
    Python object per symbol; :attr:`lengths` is made when read.
    """

    def __init__(self, lengths: dict):
        syms = sorted(lengths)
        self._index = dict(zip(syms, range(len(syms)))).__getitem__  # a symbol's place in sorted order
        self._tabulate(syms, np.array([lengths[s] for s in syms], dtype=np.int64))

    @classmethod
    def over_range(cls, lens: np.ndarray) -> "CanonicalCode":
        """The code of symbols 0..len(lens) - 1 with lengths lens."""
        code = cls.__new__(cls)
        code._index = range(len(lens)).index
        code._tabulate(range(len(lens)), lens)
        return code

    def _tabulate(self, syms, lens: np.ndarray) -> None:
        self._syms, self._lens = syms, lens
        # canonical order: by length, then symbol
        self._order = np.argsort(lens, kind="stable")  # canonical place -> place in sorted order
        self._place = np.empty_like(self._order)
        self._place[self._order] = np.arange(len(lens))
        ordered = lens[self._order]
        starts = np.flatnonzero(np.diff(ordered, prepend=-1, append=-1))  # place of the first symbol of each length
        distinct, counts, starts = ordered[starts[:-1]].tolist(), np.diff(starts).tolist(), starts.tolist()
        spans, span = [], 1 << distinct[0] if distinct else 1  # the first code is 0
        for gap, count in zip(np.diff(distinct, prepend=distinct[:1]).tolist(), counts):
            span <<= gap  # S_L: the words not taken by shorter codes
            spans.append(span)
            span -= count
        self._max_len = distinct[-1] if distinct else 0
        # (L, S_L, place of its first symbol, their count) as four lists in
        # descending L, so that S_L << (max L - L) ascends; lists, not a tuple
        # per length, so a long table makes no work for the garbage collector
        self._table = distinct[::-1], spans[::-1], starts[-2::-1], counts[::-1]
        self._row = len(distinct) - 1 - np.searchsorted(distinct, lens)  # each symbol's row of the table

    @functools.cached_property
    def lengths(self) -> dict:
        """Code length by symbol."""
        return dict(zip(self._syms, self._lens.tolist()))

    @classmethod
    def from_weights(cls, weights: dict) -> "CanonicalCode":
        syms = sorted(weights)
        if not syms:
            raise ValueError("empty alphabet")
        ordered, leaves = zip(*sorted((weights[s], i) for i, s in enumerate(syms)))
        return cls(dict(zip([syms[i] for i in leaves], _huffman_depths(ordered))))

    def _codeword(self, sym) -> tuple:
        i = self._index(sym)
        length, row = int(self._lens[i]), int(self._row[i])
        return length, (1 << length) - self._table[1][row] - self._table[2][row] + int(self._place[i])

    def codeword(self, sym) -> int:
        """sym's codeword as an int, first bit most significant."""
        return self._codeword(sym)[1]

    def encode_symbol(self, out: BitString, sym) -> int:
        length, word = self._codeword(sym)
        # most-significant bit first: the codeword's bits, reversed
        out.append_bits(int(f"{word:0{length}b}"[::-1], 2), length)
        return length

    def decode_symbol(self, data: BitString, offset: int):
        """Returns (symbol, new offset)."""
        if len(self._syms) == 1:
            return self._syms[0], offset
        # One window of up to _max_len bits, first bit most significant and
        # zero-padded.  Left-justified, the codes of length L and longer fill
        # the last S_L << (top - L) words below 2^top, so the window's length
        # is the longest whose span reaches down to the window.
        top = self._max_len
        width = min(top, data.length - offset)
        window = int(f"{data.read_bits(offset, width):0{width}b}"[::-1], 2) << (top - width)
        rest = (1 << top) - window
        lens, spans, starts, counts = self._table
        i = bisect.bisect_left(range(len(lens)), rest, key=lambda j: spans[j] << (top - lens[j]))
        length, span, start, count = lens[i], spans[i], starts[i], counts[i]
        index = (window >> (top - length)) + span - (1 << length)
        if length <= width and index < count:
            return self._syms[self._order[start + index]], offset + length
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
