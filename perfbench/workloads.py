"""The four benchmark workloads: inputs, experiments and checks.

Each workload is one experiment shape.  ``run(seed, tracer)`` makes the
inputs from the seed, calls the library with the generated arrays and
configs only, and returns a plain dict of outputs.  ``check(seed, out)``
compares those outputs with oracles computed here, independently of the
library, and returns a list of failure messages (empty when correct).
``counts(out)`` extracts the paper's measurements that must repeat exactly.

Every call into the library is wrapped in a tracer span named after the
layer it enters (``bits``, ``structures``, ``model``, ``encoding``,
``elimination``, ``entropy``).  Untraced runs pass :data:`NULL_TRACER`,
whose spans cost one attribute lookup.
"""

from __future__ import annotations

import functools
import heapq
import math
import struct
import time
import tracemalloc

import numpy as np

import rankprobe as rp
from rankprobe.encoding import EncodingRecord

W = 64  # cell width of every layout in the benchmark


# -- tracing ------------------------------------------------------------------


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    def span(self, name):
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "record", "peak")

    def __init__(self, tracer, record, peak):
        self.tracer = tracer
        self.record = record
        self.peak = peak

    def __enter__(self):
        if self.peak:
            tracemalloc.start()
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        if self.peak:
            self.record[5] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, experiment,
    peak_bytes]``; ``parent`` is the index of the enclosing span or None.

    Names in ``peak_spans`` also record the peak of memory traced by
    ``tracemalloc`` during the span.  That slows the span down, so a run
    that wants peaks uses a separate experiment for them.
    """

    def __init__(self, peak_spans=()):
        self.spans = []
        self.experiment = None
        self.peak_spans = frozenset(peak_spans)
        self._stack = []

    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, None, None, parent, self.experiment, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return _Span(self, record, name in self.peak_spans)


# -- oracles ------------------------------------------------------------------


def array_bytes(rng, n):
    """The bytes BitArray.random(n, rng) draws, drawn the same way."""
    return rng.integers(0, 256, size=n // 8, dtype=np.uint8)


def rank_oracle(raw):
    """Rank(k) for an array given as little-endian bytes, from popcounts."""
    words = raw.view(np.uint64)
    prefix = np.concatenate(([0], np.cumsum(np.bitwise_count(words), dtype=np.int64)))

    def rank(k):
        k = int(k)
        partial = int(words[k // 64]) & ((1 << (k % 64)) - 1) if k % 64 else 0
        return int(prefix[k // 64]) + partial.bit_count()

    return rank


class CounterPlan:
    """Probe addresses of the counter layouts, derived from the geometry.

    Memory is ``[raw cells][one absolute counter per superblock][relative
    counters packed per cell]``; the first block of a superblock stores no
    relative counter.  Query q (Rank(q + 1)) reads its absolute counter,
    its relative counter if it has one, and the raw cells from the start
    of its block through position q.  None of this depends on the data.
    """

    def __init__(self, n, superblock, block, w=W):
        self.superblock = superblock
        self.block = block
        self.ratio = superblock // block
        self.raw_cells = -(-n // w)
        n_abs = n // superblock + 1
        self.per = w // min(superblock - block, n).bit_length()
        n_blocks = n // block + 1
        rel_entries = n_blocks - -(-n_blocks // self.ratio)
        self.abs_base = self.raw_cells
        self.rel_base = self.raw_cells + n_abs
        self.cell_count = self.rel_base + -(-rel_entries // self.per)
        self.address_bits = max(1, (self.cell_count - 1).bit_length())
        self.redundancy_bits = self.cell_count * w - n
        self.w = w

    def addresses(self, queries):
        """(absolute, relative or -1, first raw cell, last raw cell)."""
        pos = np.asarray(queries, dtype=np.int64) + 1
        j = pos // self.block
        a_abs = self.abs_base + pos // self.superblock
        a_rel = np.where(j % self.ratio != 0, self.rel_base + (j - j // self.ratio - 1) // self.per, -1)
        return a_abs, a_rel, j * self.block // self.w, (pos - 1) // self.w

    def charged(self, queries, published):
        """Charged probes per query when `published` cells read free."""
        a_abs, a_rel, lo, hi = self.addresses(queries)
        free_raw = np.concatenate(([0], np.cumsum(~published[: self.raw_cells])))
        raw = np.where(hi >= lo, free_raw[hi + 1] - free_raw[lo], 0)
        rel = (a_rel >= 0) & ~published[np.maximum(a_rel, 0)]
        return (~published[a_abs]).astype(np.int64) + rel + raw

    def touches(self, queries, published):
        """Whether each query's full probe set meets a published cell."""
        a_abs, a_rel, lo, hi = self.addresses(queries)
        pub_raw = np.concatenate(([0], np.cumsum(published[: self.raw_cells])))
        raw = np.where(hi >= lo, pub_raw[hi + 1] - pub_raw[lo], 0) > 0
        return published[a_abs] | ((a_rel >= 0) & published[np.maximum(a_rel, 0)]) | raw

    def cells(self, queries):
        """Mask of every cell the queries probe."""
        a_abs, a_rel, lo, hi = self.addresses(queries)
        mask = np.zeros(self.cell_count, dtype=bool)
        mask[a_abs] = True
        mask[a_rel[a_rel >= 0]] = True
        edge = np.zeros(self.raw_cells + 1, dtype=np.int64)
        scan = hi >= lo
        np.add.at(edge, lo[scan], 1)
        np.add.at(edge, hi[scan] + 1, -1)
        mask[: self.raw_cells] = np.cumsum(edge)[:-1] > 0
        return mask


def stats_queries(n, seed, sample=4096):
    """The query sample structure_stats and run_elimination draw at n > 2^14."""
    return np.random.default_rng(seed).integers(0, n, size=sample)


def huffman_lengths(weights):
    """Canonical Huffman code lengths with the coding layer's tie order:
    symbols sorted, equal weights merged lowest node id first."""
    syms = sorted(weights)
    if len(syms) == 1:
        return {syms[0]: 0}
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
    return {s: depth[i] for i, s in enumerate(syms)}


@functools.cache
def binom_code_lengths(m):
    """Code lengths for Binomial(m, 1/2) increments, weights C(m, v)."""
    weights, c = {}, 1
    for v in range(m + 1):
        weights[v] = c
        c = c * (m - v) // (v + 1)
    return huffman_lengths(weights)


def _expect(failures, ok, message):
    if not ok:
        failures.append(message)


# -- stage_ladder -------------------------------------------------------------


class StageLadder:
    """Stages t = 1..4 of the recursive family over one 2^20-bit array:
    build, probe statistics on 4096 sampled queries, 256 spot ranks."""

    name = "stage_ladder"
    peak_spans = ()
    n = 1 << 20
    stages = 4
    spots = 256
    redundancy = (262208, 78720, 22592, 5696)  # README ladder at n = 2^20
    worst_bound = (3, 6, 18, 66)

    def run(self, seed, tr):
        rng = np.random.default_rng(seed)
        with tr.span("bits.random"):
            a = rp.BitArray.random(self.n, rng)
        spots = rng.integers(0, self.n + 1, size=(self.stages, self.spots))
        stages = []
        for t in range(1, self.stages + 1):
            with tr.span("structures.build"):
                layout = rp.build_recursive(a, t)
            with tr.span(f"structures.stats.t{t}"):
                st = rp.structure_stats(layout, seed=seed)
            answers = []
            for k in spots[t - 1]:
                with tr.span("structures.rank"):
                    answers.append(rp.rank(layout, int(k)).answer)
            stages.append(
                {
                    "redundancy_bits": st.redundancy_bits,
                    "worst_probes": st.worst_probes,
                    "avg_probes": st.avg_probes,
                    "spot_answers": answers,
                }
            )
        return {"words": a.words.copy(), "stages": stages}

    def check(self, seed, out):
        failures = []
        rng = np.random.default_rng(seed)
        raw = array_bytes(rng, self.n)
        spots = rng.integers(0, self.n + 1, size=(self.stages, self.spots))
        _expect(failures, out["words"].tobytes() == raw.tobytes(), "input array differs from the seed's")
        rank = rank_oracle(raw)
        queries = stats_queries(self.n, seed)
        for t, st in enumerate(out["stages"], start=1):
            _expect(failures, st["redundancy_bits"] == self.redundancy[t - 1], f"t={t}: redundancy {st['redundancy_bits']}")
            block = 1 << (2 * t + 4)
            plan = CounterPlan(self.n, 8 * block, block)
            probes = plan.charged(queries, np.zeros(plan.cell_count, dtype=bool))
            _expect(failures, st["worst_probes"] == int(probes.max()) <= self.worst_bound[t - 1], f"t={t}: worst probes {st['worst_probes']}")
            _expect(failures, st["avg_probes"] == int(probes.sum()) / len(queries), f"t={t}: avg probes {st['avg_probes']!r}")
            wrong = sum(ans != rank(k) for k, ans in zip(spots[t - 1], st["spot_answers"]))
            _expect(failures, len(st["spot_answers"]) == self.spots and wrong == 0, f"t={t}: {wrong} wrong spot ranks")
        _expect(failures, len(out["stages"]) == self.stages, "missing stages")
        return failures

    def counts(self, out):
        return {"model.charged_probes": sum(round(st["avg_probes"] * 4096) for st in out["stages"])}


# -- publish_drain ------------------------------------------------------------


class PublishDrain:
    """Probe elimination on the slim two-level geometry at 2^16 bits until
    the probe count drains: many shallow queries against a growing set of
    published cells."""

    name = "publish_drain"
    peak_spans = ()
    n = 1 << 16
    superblock = 1024
    block = 128

    def config(self, seed):
        return rp.LabConfig(saturation_fraction=1.0, final_full_round=True, rng_seed=seed)

    def run(self, seed, tr):
        rng = np.random.default_rng(seed)
        with tr.span("bits.random"):
            a = rp.BitArray.random(self.n, rng)
        with tr.span("structures.build"):
            layout = rp.build_two_level(a, superblock=self.superblock, block=self.block)
        with tr.span("elimination.run"):
            traj = rp.run_elimination(layout, self.config(seed))
        rows = [
            (r.round, r.published_bits, r.block_count, r.overlap_prob, r.avg_probes_before, r.avg_probes_after, r.published_cells)
            for r in traj.rows
        ]
        return {
            "words": a.words.copy(),
            "rows": rows,
            "status": traj.status,
            "published_length": layout.published.length,
        }

    def expected_rows(self, seed):
        """The trajectory replayed on probe addresses alone, as
        run_elimination defines it: bootstrap the counter region, then
        each round publishes every cell the offset-0 queries of
        k = ceil(gamma * P) blocks probe, capping k at n once."""
        cfg = self.config(seed)
        plan = CounterPlan(self.n, self.superblock, self.block)
        queries = stats_queries(self.n, seed)
        published = np.zeros(plan.cell_count, dtype=bool)
        published[plan.abs_base :] = True
        p = plan.redundancy_bits
        rows = []
        status = "max_rounds"
        for i in range(16):
            k = math.ceil(cfg.gamma * max(p, 1))
            capped = k > self.n
            k = min(k, self.n)
            before = int(plan.charged(queries, published).sum()) / len(queries)
            overlap = int(plan.touches(queries, published).sum()) / len(queries)
            new = plan.cells(np.arange(k) * (self.n // k)) & ~published
            published |= new
            after = int(plan.charged(queries, published).sum()) / len(queries)
            rows.append((i, p, k, overlap, before, after, int(new.sum())))
            p += int(new.sum()) * (plan.w + plan.address_bits)
            if capped:
                status = "drained" if after < 0.01 else "block_overflow"
                break
            if after < 0.01:
                status = "drained"
                break
            if p >= cfg.saturation_fraction * self.n:
                status = "saturated"
                break
        return rows, status, p

    def check(self, seed, out):
        failures = []
        raw = array_bytes(np.random.default_rng(seed), self.n)
        _expect(failures, out["words"].tobytes() == raw.tobytes(), "input array differs from the seed's")
        plan = CounterPlan(self.n, self.superblock, self.block)
        gamma = self.config(seed).gamma
        p = plan.redundancy_bits
        for row in out["rows"]:
            rnd, published_bits, k, _, before, after, cells = row
            _expect(failures, published_bits == p, f"round {rnd}: published bits {published_bits}, growth law says {p}")
            _expect(failures, k == min(math.ceil(gamma * max(p, 1)), self.n), f"round {rnd}: block count {k}")
            _expect(failures, after <= before, f"round {rnd}: probes rose from {before} to {after}")
            p += cells * (plan.w + plan.address_bits)
        _expect(failures, out["published_length"] == p, "ledger disagrees with the growth law")
        _expect(failures, out["status"] == "drained", f"status {out['status']}")
        rows, status, _ = self.expected_rows(seed)
        _expect(failures, out["rows"] == rows and out["status"] == status, "trajectory differs from the address replay")
        return failures

    def counts(self, out):
        return {
            "elimination.rounds": len(out["rows"]),
            "elimination.published_cells": sum(r[6] for r in out["rows"]),
        }


# -- encode_roundtrip ---------------------------------------------------------


def _query_sets(rng, n, sets=30, size=100):
    return [sorted({int(q) for q in rng.integers(0, n, size=size)}) for _ in range(sets)]


class EncodeRoundtrip:
    """Encode a 2^16-bit array through its default two-level structure
    with 16 blocks, decode it, round-trip both file formats, and record
    and replay 30 random query sets."""

    name = "encode_roundtrip"
    peak_spans = ()
    n = 1 << 16
    k = 16
    # Data-independent parts of the record for this geometry: the chosen
    # offset and every component size except the detached answers (None).
    offset = 511
    sizes = (0, 5, None, 2048, 1024, 78912)

    def run(self, seed, tr):
        rng = np.random.default_rng(seed)
        with tr.span("bits.random"):
            a = rp.BitArray.random(self.n, rng)
        query_sets = _query_sets(rng, self.n)
        with tr.span("bits.rpl1"):
            rpl1 = a.to_rpl1()
            parsed = rp.BitArray.from_rpl1(rpl1)
        with tr.span("structures.build"):
            layout = rp.build_two_level(a)
        with tr.span("encoding.choose_offset"):
            d = rp.choose_offset(layout, self.k)
        with tr.span("encoding.encode"):
            rec = rp.encode(layout, self.k, d)
        with tr.span("encoding.rpe1"):
            rpe1 = rec.to_rpe1()
            rpe1_again = EncodingRecord.from_rpe1(rpe1).to_rpe1()
        with tr.span("encoding.decode"):
            back = rp.decode(EncodingRecord.from_rpe1(rpe1), layout.params, self.k)
        replays = []
        for qs in query_sets:
            with tr.span("model.footprint"):
                foot = rp.build_footprint(layout.step, qs, layout.memory, layout.published)
            with tr.span("model.replay"):
                answers, _ = rp.replay_from_footprint(layout.step, qs, foot, layout.published)
            replays.append((foot.probed_cell_count, foot.length, [answers.get(q) for q in qs]))
        return {
            "words": a.words.copy(),
            "rpl1": rpl1,
            "rpl1_words": parsed.words.copy(),
            "offset": rec.offset,
            "sizes": rec.sizes,
            "total_bits": rec.total_bits,
            "rpe1": rpe1,
            "rpe1_again": rpe1_again,
            "decoded_words": back.words.copy(),
            "replays": replays,
        }

    def expected_answer_bits(self, rank):
        """Length of the detached answers: every block is detached, and each
        increment is coded with the canonical code of its Binomial gap."""
        bits = 0
        prev_pos = prev_rank = 0
        bs = self.n // self.k
        for b in range(self.k):
            pos = b * bs + self.offset + 1
            r = rank(pos)
            bits += binom_code_lengths(pos - prev_pos)[r - prev_rank]
            prev_pos, prev_rank = pos, r
        return bits

    def check(self, seed, out):
        failures = []
        rng = np.random.default_rng(seed)
        raw = array_bytes(rng, self.n)
        query_sets = _query_sets(rng, self.n)
        _expect(failures, out["words"].tobytes() == raw.tobytes(), "input array differs from the seed's")
        rank = rank_oracle(raw)
        _expect(failures, out["decoded_words"].tobytes() == raw.tobytes(), "decoded array differs from the input")
        rpl1 = b"RPL1" + struct.pack("<Q", self.n) + raw.tobytes()
        _expect(failures, out["rpl1"] == rpl1, ".rpl1 bytes differ from the format")
        _expect(failures, out["rpl1_words"].tobytes() == raw.tobytes(), ".rpl1 read-back differs")
        _expect(failures, out["rpe1_again"] == out["rpe1"], ".rpe1 does not re-serialize identically")
        sizes = out["sizes"]
        _expect(failures, out["total_bits"] == sum(sizes), "total_bits != sum(sizes)")
        _expect(failures, out["offset"] == self.offset, f"offset {out['offset']}")
        expected = tuple(self.expected_answer_bits(rank) if s is None else s for s in self.sizes)
        _expect(failures, tuple(sizes) == expected, f"sizes {tuple(sizes)} != {expected}")
        plan = CounterPlan(self.n, 512, 64)
        _expect(failures, len(out["replays"]) == len(query_sets), "missing query sets")
        for i, (qs, (cells, length, answers)) in enumerate(zip(query_sets, out["replays"])):
            _expect(failures, answers == [rank(q + 1) for q in qs], f"set {i}: replay answers differ from the ranks")
            _expect(failures, cells == int(plan.cells(qs).sum()) and length == cells * W, f"set {i}: footprint of {cells} cells, {length} bits")
        return failures

    def counts(self, out):
        return {
            "model.footprint_cells": sum(r[0] for r in out["replays"]),
            "encoding.record_bits": out["total_bits"],
        }


# -- entropy_triangulate ------------------------------------------------------


class EntropyTriangulate:
    """The correlation deficit at n = 17, k = 4, offset 2 by the closed
    form, exact enumeration of 2^17 arrays, and Monte Carlo."""

    name = "entropy_triangulate"
    peak_spans = ("entropy.enumerate", "entropy.montecarlo")
    n, k, d = 17, 4, 2
    # Exact big-int oracle for block size 4, offset 2, four blocks; n = 17
    # keeps block size 4, so the acceptance suite's value applies.
    deficit = 3.7144734356069637

    def run(self, seed, tr):
        cfg = rp.LabConfig(montecarlo_trials=20000, bootstrap_rounds=4, rng_seed=seed)
        with tr.span("entropy.analytic"):
            an = rp.analytic_deficit(self.n, self.k, self.d)
        with tr.span("entropy.enumerate"):
            bf = rp.brute_force_deficit(self.n, self.k, self.d)
        with tr.span("entropy.montecarlo"):
            mc = rp.montecarlo_deficit(self.n, self.k, self.d, config=cfg)
        return {
            "analytic": an.deficit,
            "brute_force": bf.deficit,
            "montecarlo": (mc.deficit, mc.ci_low, mc.ci_high),
        }

    def check(self, seed, out):
        failures = []
        an, bf = out["analytic"], out["brute_force"]
        mc, lo, hi = out["montecarlo"]
        _expect(failures, abs(an - self.deficit) <= 1e-12, f"analytic deficit {an!r}")
        _expect(failures, abs(bf - an) <= 1e-9, f"brute-force deficit {bf!r}")
        _expect(failures, abs(mc - an) <= 0.3, f"Monte Carlo deficit {mc!r}")
        _expect(failures, lo <= mc <= hi, f"Monte Carlo interval [{lo!r}, {hi!r}] misses {mc!r}")
        return failures

    def counts(self, out):
        return {}


WORKLOADS = {w.name: w for w in (StageLadder(), PublishDrain(), EncodeRoundtrip(), EntropyTriangulate())}
