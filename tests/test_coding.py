import heapq
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import binom_code_exact
from rankprobe import coding, encoding
from rankprobe.bits import BitString
from rankprobe.coding import (
    CanonicalCode,
    binomial_code,
    subset_header_bits,
    subset_index_bits,
    subset_rank,
    subset_unrank,
)


def merge_cost(weights):
    """Independent optimality oracle: total weighted path length equals
    the sum of all merged-pair weights in any Huffman merge."""
    heap = list(weights.values())
    heapq.heapify(heap)
    cost = 0
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        cost += a + b
        heapq.heappush(heap, a + b)
    return cost


def test_huffman_is_optimal():
    rng = np.random.default_rng(0)
    for trial in range(40):
        size = int(rng.integers(2, 12))
        weights = {f"s{i}": int(rng.integers(1, 100)) for i in range(size)}
        code = CanonicalCode.from_weights(weights)
        got = sum(weights[s] * code.lengths[s] for s in weights)
        assert got == merge_cost(weights), weights


def test_huffman_bigint_weights():
    weights = {"a": 1 << 200, "b": 1 << 200, "c": 1 << 201, "d": 3}
    code = CanonicalCode.from_weights(weights)
    got = sum(weights[s] * code.lengths[s] for s in weights)
    assert got == merge_cost(weights)


def test_kraft_equality():
    # Huffman trees are full: the Kraft sum is exactly 1
    weights = {i: w for i, w in enumerate([5, 9, 12, 13, 16, 45])}
    code = CanonicalCode.from_weights(weights)
    assert sum(2.0 ** -code.lengths[s] for s in weights) == pytest.approx(1.0)


def test_prefix_free_and_deterministic():
    weights = {i: (i % 3) + 1 for i in range(9)}
    a = CanonicalCode.from_weights(weights)
    b = CanonicalCode.from_weights(dict(reversed(list(weights.items()))))
    assert a.lengths == b.lengths and all(a.codeword(s) == b.codeword(s) for s in weights)
    words = [(a.codeword(s), a.lengths[s]) for s in weights]
    for (c1, l1), (c2, l2) in combinations(words, 2):
        lo = min(l1, l2)
        assert (c1 >> (l1 - lo)) != (c2 >> (l2 - lo))


def test_canonical_order():
    code = CanonicalCode.from_weights({"x": 10, "y": 1, "z": 1, "w": 4})
    # shorter codes come numerically first; ties ordered by symbol
    order = sorted(code.lengths, key=lambda s: (code.lengths[s], s))
    vals = [code.codeword(s) << (max(code.lengths.values()) - code.lengths[s]) for s in order]
    assert vals == sorted(vals)


def test_roundtrip_random_streams():
    rng = np.random.default_rng(1)
    weights = {i: int(w) for i, w in enumerate(rng.integers(1, 50, size=7))}
    code = CanonicalCode.from_weights(weights)
    for _ in range(20):
        syms = [int(s) for s in rng.integers(0, 7, size=30)]
        out = BitString()
        for s in syms:
            code.encode_symbol(out, s)
        out.append_bits(0b101, 3)  # trailing filler must not confuse decode
        pos = 0
        back = []
        for _ in syms:
            s, pos = code.decode_symbol(out, pos)
            back.append(s)
        assert back == syms
        assert pos == out.length - 3


def test_single_symbol_zero_bits():
    code = CanonicalCode.from_weights({"only": 17})
    assert code.lengths["only"] == 0
    out = BitString()
    assert code.encode_symbol(out, "only") == 0
    assert out.length == 0
    sym, pos = code.decode_symbol(out, 0)
    assert sym == "only" and pos == 0


def test_decode_rejects_unused_codeword():
    code = CanonicalCode({"a": 1, "b": 2})  # leaves the word 11 unassigned
    data = BitString()
    data.append_bits(0b11, 2)
    with pytest.raises(ValueError):
        code.decode_symbol(data, 0)


def bitwise_decode(code, data, offset):
    """Reference decoder: reads one bit at a time and tries every length
    from 1 up to the longest."""
    if len(code.lengths) == 1:
        return next(iter(code.lengths)), offset
    table = {}
    for sym in sorted(code.lengths, key=lambda s: (code.lengths[s], s)):
        first, row = table.setdefault(code.lengths[sym], (code.codeword(sym), []))
        row.append(sym)
    word = 0
    for length in range(1, max(code.lengths.values()) + 1):
        word = (word << 1) | data.read_bits(offset + length - 1, 1)
        first, row = table.get(length, (0, ()))
        if 0 <= word - first < len(row):
            return row[word - first], offset + length
    raise ValueError("invalid codeword")


def decode_or_error(decoder, code, data, offset):
    try:
        return decoder(code, data, offset)
    except ValueError as e:
        return "ValueError", str(e)


@st.composite
def codes(draw):
    """A Huffman code over 1 to 12 symbols with weights up to 2^70, or,
    from 3 symbols up, the same lengths with one symbol dropped: an
    incomplete code whose unassigned words do not decode."""
    weights = draw(st.dictionaries(st.integers(0, 40), st.integers(1, 1 << 70), min_size=1, max_size=12))
    code = CanonicalCode.from_weights(weights)
    if len(weights) >= 3 and draw(st.booleans()):
        lengths = dict(code.lengths)
        del lengths[draw(st.sampled_from(sorted(lengths)))]
        code = CanonicalCode(lengths)
    return code


@settings(max_examples=300, deadline=None)
@given(code=codes(), data=st.data())
def test_decode_matches_bitwise_decoder(code, data):
    syms = data.draw(st.lists(st.sampled_from(sorted(code.lengths)), max_size=20))
    stream = BitString()
    for sym in syms:
        code.encode_symbol(stream, sym)
    # symbol sequences decode the same, offset by offset
    pos = 0
    for sym in syms:
        got = code.decode_symbol(stream, pos)
        assert got == bitwise_decode(code, stream, pos) == (sym, pos + code.lengths[sym])
        pos = got[1]
    # a stream cut short, and random bits that may hit an unassigned word
    cut = BitString(stream.value & ((1 << (stream.length - 1)) - 1), stream.length - 1) if stream.length else stream
    noise = data.draw(st.integers(0, 60))
    junk = BitString(data.draw(st.integers(0, (1 << noise) - 1)), noise)
    for s in (cut, junk):
        for offset in range(s.length + 2):
            assert decode_or_error(CanonicalCode.decode_symbol, code, s, offset) == decode_or_error(
                bitwise_decode, code, s, offset
            )


def test_decode_long_codes_in_one_window():
    # a skewed code whose longest words run past 100 bits, as the
    # binomial tails of an all-zero array do
    code = CanonicalCode.from_weights({i: 1 << (3 * i) for i in range(120)})
    assert max(code.lengths.values()) == 119
    stream = BitString()
    syms = [0, 1, 119, 0, 60]
    for sym in syms:
        code.encode_symbol(stream, sym)
    pos = 0
    for sym in syms:
        sym_back, pos = code.decode_symbol(stream, pos)
        assert sym_back == sym
    assert pos == stream.length
    short = BitString(stream.value & ((1 << 100) - 1), 100)  # symbol 0 needs 119
    with pytest.raises(ValueError, match="outside"):
        code.decode_symbol(short, 0)


def heap_code(weights):
    """Reference Huffman code, built the way the coding layer once did:
    a heap keyed by (weight, node id) with leaves numbered in symbol
    order, then canonical codewords assigned in (length, symbol) order.
    Returns {symbol: (length, codeword)}."""
    syms = sorted(weights)
    if len(syms) == 1:
        return {syms[0]: (0, 0)}
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
    depth = {nxt - 1: 0}
    for node in range(nxt - 2, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = {s: depth[i] for i, s in enumerate(syms)}
    out, code, length = {}, 0, 0
    for sym in sorted(syms, key=lambda s: (lengths[s], s)):
        code <<= lengths[sym] - length
        length = lengths[sym]
        out[sym] = (length, code)
        code += 1
    return out


def code_words(code):
    return {s: (code.lengths[s], code.codeword(s)) for s in code.lengths}


@st.composite
def weight_dicts(draw):
    """Int or tuple symbols; weights all ints or all floats (a float sum
    of a big int rounds, so mixed weights need not merge in order)."""
    kind = draw(st.sampled_from([
        st.integers(1, 4),  # many ties
        st.integers(1 << 64, (1 << 64) + 3),  # past 2^64, tied too
        st.integers(0, 1 << 80),
        st.sampled_from([0.25, 0.5, 1.0, 3.0]),
        st.floats(0.0, 1e6, allow_nan=False),
    ]))
    keys = draw(st.sampled_from([st.integers(-40, 40), st.tuples(st.integers(0, 4), st.integers(0, 4))]))
    return draw(st.dictionaries(keys, kind, min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(weights=weight_dicts())
def test_merge_matches_heap_huffman(weights):
    assert code_words(CanonicalCode.from_weights(weights)) == heap_code(weights)


def test_binom_leaves_match_comb_weights():
    # the lazily streamed leaves give the code of the explicit weights,
    # math.comb over the lower half and mirrored: C(m, v) = C(m, m - v)
    for m in [*range(1, 301), 4096, 4097]:
        half = [math.comb(m, v) for v in range(m // 2 + 1)]
        want = CanonicalCode.from_weights({v: half[min(v, m - v)] for v in range(m + 1)})
        assert code_words(encoding._binom_code(m)) == code_words(want), m


def assert_binom_code_exact(m):
    # every length, and the codewords of a sweep: canonical codewords
    # follow from the lengths, and test_binom_leaves_match_comb_weights
    # compares every codeword of the smaller codes
    code, want = binomial_code(m), binom_code_exact(m)
    assert code.lengths == want.lengths, m
    sweep = sorted({*range(0, m + 1, max(1, m // 64)), m // 2, m})
    assert [code.codeword(v) for v in sweep] == [want.codeword(v) for v in sweep], m


def test_binom_code_matches_exact_route():
    # float log2 weights, with near ties settled exactly, give the code of
    # the exact weights: every m up to 1,500, every m = 2 (mod 3) up to
    # 3,000, where 2 C(m, v) = C(m, v + 1) ties exactly, and sampled m to 2^15
    rng = np.random.default_rng(40)
    for m in [*range(1, 1501), *range(1502, 3001, 3), *rng.integers(3001, (1 << 15) + 1, 16).tolist()]:
        assert_binom_code_exact(m)


def test_binom_code_exact_settlement_forced(monkeypatch):
    # with the close bound at infinity every comparison of the merge is
    # settled exactly, and the code is still that of the exact weights
    monkeypatch.setattr(coding, "_close_bound", lambda m: math.inf)
    settled = []
    merge = coding._huffman_depths
    monkeypatch.setattr(coding, "_huffman_depths", lambda weights, log, close, settle: merge(
        weights, log, close, lambda *args: settled.append(1) or settle(*args)))
    for m in range(1, 201):
        settled.clear()
        assert_binom_code_exact(m)
        assert len(settled) >= m - 1  # the exact path decided the merge: m - 1 settlements at least


def test_empty_alphabet_rejected():
    with pytest.raises(ValueError):
        CanonicalCode.from_weights({})


def test_subset_rank_exhaustive():
    for k in range(0, 9):
        for j in range(0, k + 1):
            for want, subset in enumerate(combinations(range(k), j)):
                assert subset_rank(k, subset) == want
                assert subset_unrank(k, j, want) == subset


def test_subset_rank_order_independent():
    assert subset_rank(10, (7, 2, 4)) == subset_rank(10, (2, 4, 7))


def test_subset_roundtrip_large():
    rng = np.random.default_rng(2)
    k = 64
    for _ in range(50):
        j = int(rng.integers(0, k + 1))
        subset = tuple(sorted(rng.choice(k, size=j, replace=False).tolist()))
        assert subset_unrank(k, j, subset_rank(k, subset)) == subset


def comb_sum_rank(k, subset):
    """The lexicographic index as a sum of binomials: for each non-member
    v below the i-th member, the subsets that take v there instead."""
    s = sorted(subset)
    return sum(
        math.comb(k - 1 - v, len(s) - 1 - i)
        for i, x in enumerate(s)
        for v in range((s[i - 1] + 1) if i else 0, x)
    )


@st.composite
def subsets(draw):
    k = draw(st.integers(0, 120))
    member = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return k, tuple(v for v in range(k) if member[v])


@settings(max_examples=300, deadline=None)
@given(case=subsets())
def test_subset_rank_matches_comb_sums(case):
    k, subset = case
    rank = comb_sum_rank(k, subset)
    assert subset_rank(k, subset) == rank
    assert subset_unrank(k, len(subset), rank) == subset
    assert rank < math.comb(k, len(subset))


def test_subset_errors():
    with pytest.raises(ValueError):
        subset_rank(4, (4,))
    with pytest.raises(ValueError):
        subset_rank(4, (-1,))
    with pytest.raises(ValueError):
        subset_unrank(4, 2, math.comb(4, 2))
    with pytest.raises(ValueError):
        subset_unrank(4, 2, -1)
    with pytest.raises(ValueError):
        subset_unrank(4, 5, 0)


def test_index_and_header_bits():
    assert subset_index_bits(16, 8) == 14  # comb = 12870
    assert subset_index_bits(4, 0) == 0
    assert subset_index_bits(4, 4) == 0
    assert subset_header_bits(16) == 5
    assert subset_header_bits(1) == 1
    for k in range(1, 20):
        for j in range(k + 1):
            assert (1 << subset_index_bits(k, j)) >= math.comb(k, j)
