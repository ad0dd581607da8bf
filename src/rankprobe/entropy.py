"""Answer-entropy laboratory for uniform bit arrays.

Everything here is about one experiment shape.  Draw A uniform on {0,1}^n,
cut the query range into k stride blocks of bs = n // k queries, and
compare two answer tuples:

* the *reference* tuple: Rank at every block's right edge, one answer per
  block.  Its entropy is exactly k * h(bs), where h(m) is the entropy of
  Binomial(m, 1/2) in bits.
* an *offset* tuple: Rank at position b * bs + d for a chosen offset
  d in (0, bs) and a chosen subset of blocks.

The *deficit* H(reference) + H(offset) - H(joint) measures how correlated
the two tuples are.  It decomposes exactly across offset blocks; each
block past the first contributes at least block_deficit(bs, d) >= 1 bit
(minimized at the half-offset), which is the quantitative engine behind
the encoding argument.

Anchoring note: the reference tuple sits at block *right* edges
(positions (b+1) * bs), which is what makes its entropy exactly k * h(bs);
query index q in the simulator corresponds to position q + 1 here.

Three routes to the same numbers, kept deliberately separate:
analytic closed forms, exact enumeration (n <= 20), and conditioned
Monte-Carlo sampling.  Enumeration keys each array by its popcounts between
consecutive answer positions, so one bincount of at most 2^n bins counts
every signature; the keys of all 2^n arrays are sums of two half-tables of
2^(n/2) entries.  Monte Carlo maps each sample's joint answer row to a
dense id once; the point estimate and each bootstrap round are one
bincount of (resampled) joint ids, and the reference and offset counts are
sums of the joint counts.  Entropies are in bits throughout.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import RefusalError


# -- exact binomial entropy -----------------------------------------------

def _lg_int(x: int) -> float:
    """log2 of a positive int, safe for arbitrary size."""
    if x <= 0:
        raise ValueError("log of non-positive")
    d = x.bit_length()
    if d <= 53:
        return math.log2(x)
    return (d - 53) + math.log2(x >> (d - 53))


_CENTRAL = [0, 1]  # the last (m, C(m, m // 2)) binom_entropy computed


def _central_binomial(m: int) -> int:
    """C(m, m // 2), stepped exactly from C(m - 1, (m - 1) // 2) when that
    was the last one computed, as in a fill over consecutive m."""
    last, c = _CENTRAL
    if last == m - 1:
        c = 2 * c if m % 2 == 0 else c * m // (m // 2 + 1)
    elif last != m:
        c = math.comb(m, m // 2)
    _CENTRAL[:] = (m, c)
    return c


EXACT_CENTRE_MAX = 4096  # past it, the centre comes from Stirling's series


@functools.cache
def binom_entropy(m: int) -> float:
    """H(Binomial(m, 1/2)) in bits, exact to ~1e-12.

    Fast route: the central term seeds outward float recurrences for the
    pmf and for its log2.  Up to EXACT_CENTRE_MAX the seed is the exact
    central binomial; past it, ln(C(2h, h)/4^h) from Stirling's series
    (for odd m, C(m, m // 2)/2^m = C(m + 1, h)/2^(m + 1)), so the cost is
    the terms summed, not a big-int binomial.  Only terms within 20 sqrt(m)
    of the centre are formed: past that, p < 2^-1154 by Hoeffding's
    bound, which underflows to 0 anyway.  Agrees with the big-int oracle
    to well under the lab's 1e-9 tolerances.
    """
    if m < 0:
        raise ValueError("negative m")
    mid = m // 2
    # the centre's p and lg, with the pmf p = 2^(lg - scale)
    if m <= EXACT_CENTRE_MAX:
        c_mid = _central_binomial(m)
        p_mid, lg_mid, scale = c_mid / (1 << m), _lg_int(c_mid), m
    else:
        h = (m + 1) // 2
        ln_p = -0.5 * math.log(math.pi * h) - 1 / (8 * h) + 1 / (192 * h**3) - 1 / (640 * h**5)
        p_mid, lg_mid, scale = math.exp(ln_p), ln_p / math.log(2), 0
    half = math.ceil(20 * math.sqrt(m))
    lo, hi = max(0, mid - half), min(m, mid + half)

    i_up = np.arange(mid, hi, dtype=np.float64)      # step i -> i+1
    ratio_up = (m - i_up) / (i_up + 1.0)
    i_dn = np.arange(mid, lo, -1, dtype=np.float64)  # step i -> i-1
    ratio_dn = i_dn / (m - i_dn + 1.0)

    at = mid - lo  # the centre's slot
    p = np.empty(hi - lo + 1)
    lg = np.empty(hi - lo + 1)
    p[at] = p_mid
    lg[at] = lg_mid
    if mid < hi:
        p[at + 1 :] = p_mid * np.cumprod(ratio_up)
        lg[at + 1 :] = lg_mid + np.cumsum(np.log2(ratio_up))
    if mid > lo:
        p[at - 1 :: -1] = p_mid * np.cumprod(ratio_dn)
        lg[at - 1 :: -1] = lg_mid + np.cumsum(np.log2(ratio_dn))

    live = p > 0.0
    # fsum is correctly rounded, so term order cannot change the sum; it
    # is fastest when the largest terms come first
    return math.fsum(np.sort(p[live] * (scale - lg[live]))[::-1].tolist())


def binom_entropy_estimate(m: int) -> float:
    """Closed-form estimate 0.5 * lg(pi * e * m / 2); error is O(1/m)."""
    if m < 1:
        raise ValueError("estimate needs m >= 1")
    return 0.5 * math.log2(math.pi * math.e * m / 2.0)


def block_deficit(m: int, d: int) -> float:
    """2 h(m) - h(d) - h(m - d): the correlation cost of pinning one
    interior point at offset d inside a block of m positions."""
    if not 0 < d < m:
        raise ValueError(f"offset {d} outside (0, {m})")
    return 2.0 * binom_entropy(m) - binom_entropy(d) - binom_entropy(m - d)


def block_deficit_argmin(m: int) -> list:
    """All offsets minimizing block_deficit(m, .), ties included."""
    if m < 2:
        raise ValueError(f"a block of {m} positions has no interior offset")
    h = np.fromiter(map(binom_entropy, range(m + 1)), float, m + 1)
    vals = 2.0 * h[m] - h[1:m] - h[m - 1 : 0 : -1]  # block_deficit(m, d) for d = 1..m-1
    return (np.flatnonzero(vals <= vals.min() + 1e-12) + 1).tolist()


# -- lab configuration ----------------------------------------------------

@dataclass
class LabConfig:
    """Shared experiment knobs.

    gamma, a constant, scales published bits into block counts for the
    elimination driver.
    """

    gamma: ClassVar[float] = 4.0
    montecarlo_trials: int = 20000
    rng_seed: int = 0
    bootstrap_rounds: int = 200
    saturation_fraction: float = 0.1
    final_full_round: bool = False

    def __post_init__(self):
        if self.montecarlo_trials < 1 or self.bootstrap_rounds < 1:
            raise ValueError("Monte Carlo needs at least one trial and one bootstrap round")


# -- analytic route -------------------------------------------------------

@dataclass
class EntropyReport:
    """Deficit accounting for one (n, k, offset, blocks) experiment.

    per_block_deficits[i] is the exact contribution of the i-th offset
    block (in increasing block order); they sum to `deficit` within 1e-9.
    The first block's contribution is >= 0 but carries no per-block lower
    bound; every later one is >= block_deficit(bs, offset).
    """

    n: int
    k: int
    offset: int
    blocks: tuple
    reference_entropy: float
    offset_entropy: float
    joint_entropy: float
    deficit: float
    per_block_deficits: tuple = field(default=())

    def __post_init__(self):
        if self.deficit < -1e-9:
            raise ValueError("negative deficit")
        if self.per_block_deficits:
            gap = abs(self.deficit - math.fsum(self.per_block_deficits))
            if gap > 1e-9:
                raise ValueError(f"per-block sum off by {gap}")


def _check_lab_args(n: int, k: int, d: int, blocks) -> tuple:
    if k < 1 or n < k:
        raise ValueError("need 1 <= k <= n")
    bs = n // k
    if not 0 < d < bs:
        raise ValueError(f"offset {d} outside (0, {bs})")
    blocks = tuple(sorted(set(blocks)))
    if not blocks:
        raise ValueError("need at least one offset block")
    if blocks[0] < 0 or blocks[-1] >= k:
        raise ValueError("block index out of range")
    return blocks


def analytic_deficit(n: int, k: int, d: int, blocks=None) -> EntropyReport:
    """Closed-form deficit from independent-increment entropies.

    blocks defaults to all k blocks.  Exact for uniform A; the only
    numerics are float sums of exact binomial entropies.
    """
    if blocks is None:
        blocks = range(k)
    blocks = _check_lab_args(n, k, d, blocks)
    bs = n // k
    h_bs = binom_entropy(bs)
    h_d = binom_entropy(d)
    h_rest = binom_entropy(bs - d)

    reference = k * h_bs

    off_terms = [binom_entropy(blocks[0] * bs + d)]
    per_block = [binom_entropy(blocks[0] * bs + d) + h_bs - h_d - h_rest]
    for prev, b in zip(blocks, blocks[1:]):
        gap_h = binom_entropy((b - prev) * bs)
        off_terms.append(gap_h)
        per_block.append(gap_h + h_bs - h_d - h_rest)
    offset_entropy = math.fsum(off_terms)

    joint = (k - len(blocks)) * h_bs + len(blocks) * (h_d + h_rest)
    deficit = math.fsum([reference, offset_entropy, -joint])
    return EntropyReport(
        n=n,
        k=k,
        offset=d,
        blocks=blocks,
        reference_entropy=reference,
        offset_entropy=offset_entropy,
        joint_entropy=joint,
        deficit=deficit,
        per_block_deficits=tuple(per_block),
    )


# -- exact enumeration route ---------------------------------------------

ENUM_LIMIT = 20
_KEY_LIMIT = 1 << 62  # mixed-radix row keys stay below this


def _dense(key: np.ndarray, bound: int) -> np.ndarray:
    """Rank of each key in [0, bound) among the distinct keys (np.unique's
    inverse).  Up to 16 times as many bins as keys, a table of the keys
    seen gives the ranks; past that the keys are sorted.  The table costs
    9 bytes a bin against sorting's 16 a key; at 16 bins a key it still
    ranks 7 to 10 times faster, and the two cross between 128 and 1024."""
    if bound > 16 * len(key):
        return np.searchsorted(np.unique(key), key)
    seen = np.zeros(bound, dtype=bool)
    seen[key] = True
    distinct = np.flatnonzero(seen)
    rank = np.empty(bound, dtype=np.int64)
    rank[distinct] = np.arange(len(distinct))
    return rank[key]


def _row_ids(rows, radix) -> np.ndarray:
    """Dense int64 ids for the rows of a 2-D array of ints in [0, radix),
    where radix is one int or one per column.

    Equal rows get equal ids, and id order is lexicographic row order, so
    the ids are the inverse ``np.unique(rows, axis=0)`` gives.  The key is
    mixed radix, ``key * radix + column``; before it could pass 2^62 it is
    re-densified, so any number of columns works."""
    rows = np.asarray(rows)
    key = np.zeros(len(rows), dtype=np.int64)
    bound = 1  # key < bound
    for col, r in zip(rows.T, np.broadcast_to(radix, rows.shape[1:]).tolist()):
        if bound * r > _KEY_LIMIT:
            key = _dense(key, bound)
            bound = int(key.max()) + 1
        key *= r
        key += col
        bound *= r
    return _dense(key, bound)


def _segments(n: int, k: int, d: int, blocks) -> tuple:
    """(blocks, lengths, reference columns, offset columns) of the segments
    between sorted answer positions; column c answers segments 0..c's popcount."""
    if blocks is None:
        blocks = range(k)
    blocks = _check_lab_args(n, k, d, blocks)
    bs = n // k
    ref_pos = [(b + 1) * bs for b in range(k)]
    off_pos = [b * bs + d for b in blocks]
    cuts = sorted({*ref_pos, *off_pos})
    return blocks, np.diff([0, *cuts]), [cuts.index(p) for p in ref_pos], [cuts.index(p) for p in off_pos]


def _signatures(n: int, k: int, d: int, blocks) -> tuple:
    """(segments, reference rows, offset rows, counts) of every joint
    answer signature of the 2^n arrays, ordered by each signature's
    smallest array; the segments are what :func:`_segments` gives.

    A signature is the vector of segment popcounts.  Its key is mixed
    radix, the first segment least significant, with radix length + 1, so
    there are at most 2^n keys and every one occurs: the signatures are an
    index grid, first segment fastest.  The key is linear in the bits, so
    every array's key is its low half's key plus its high half's: two
    tables of 2^(n/2) entries.  A signature's smallest array holds each
    segment's ones at the segment's low end, so key order is smallest-array
    order."""
    if n > ENUM_LIMIT:
        raise RefusalError(f"exact enumeration capped at n = {ENUM_LIMIT}")
    segments = blocks, lengths, ref_cols, off_cols = _segments(n, k, d, blocks)
    weight = np.cumprod([1, *lengths[:-1] + 1])
    bit_weight = np.zeros(n, dtype=np.int64)
    bit_weight[: lengths.sum()] = np.repeat(weight, lengths)
    lo, hi = (
        (np.arange(1 << w)[:, None] >> np.arange(w) & 1) @ bit_weight[s : s + w]
        for s, w in ((0, n // 2), (n // 2, n - n // 2))
    )
    counts = np.bincount(np.add.outer(hi, lo).ravel())
    ranks = np.indices(tuple(lengths[::-1] + 1), dtype=np.uint8).reshape(len(lengths), -1)[::-1]
    for c in range(1, len(ranks)):  # row by row: an axis-0 cumsum loops per column
        ranks[c] += ranks[c - 1]
    return segments, ranks[ref_cols].T, ranks[off_cols].T, counts


def signature_counts(n: int, k: int, d: int, blocks=None):
    """Count arrays by joint answer signature.

    Returns (blocks, dict mapping (reference tuple, offset tuple) -> count
    over all 2^n arrays), keyed in order of each signature's smallest array.
    The counts are one bincount, of at most 2^n bins, over sums of two
    half-tables.  Refuses n > 20: past that the enumeration is no longer
    honest desk-scale work."""
    (blocks, *_), ref, off, counts = _signatures(n, k, d, blocks)
    return blocks, {
        (tuple(r), tuple(o)): c for r, o, c in zip(ref.tolist(), off.tolist(), counts.tolist())
    }


def _entropy_of_counts(counts) -> float:
    """Entropy in bits of non-negative integer weights.  The log of each
    distinct weight is taken once and its term repeated, so fsum sees the
    same terms as one per weight."""
    mult = Counter(counts)
    mult.pop(0, None)
    total = sum(c * m for c, m in mult.items())
    if total <= 0:
        raise ValueError("empty distribution")
    terms = []
    for c, m in mult.items():
        terms += [c * _lg_int(c)] * m
    return _lg_int(total) - math.fsum(terms) / total


def _deficit(ref_counts, off_counts, joint_counts) -> tuple:
    """(reference H, offset H, joint H, deficit) from the integer weights of
    the distinct reference, offset and joint rows."""
    h_r, h_o, h_j = (_entropy_of_counts(c) for c in (ref_counts, off_counts, joint_counts))
    return h_r, h_o, h_j, h_r + h_o - h_j


def deficit_from_counts(sig_counts: dict) -> tuple:
    """(reference H, offset H, joint H, deficit) from signature counts.

    Counts may be any non-negative weights (a conditioning event keeps a
    sub-count of each signature class); entropies stay exact because the
    weights are integers, summed here as Python ints.
    """
    if sig_counts and min(sig_counts.values()) < 0:
        raise ValueError("negative weight")
    ref_c: dict = defaultdict(int)
    off_c: dict = defaultdict(int)
    for (r, o), c in sig_counts.items():
        ref_c[r] += c
        off_c[o] += c
    return _deficit(ref_c.values(), off_c.values(), sig_counts.values())


def brute_force_deficit(n: int, k: int, d: int, blocks=None) -> EntropyReport:
    """Deficit by exact enumeration of all 2^n arrays (n <= 20)."""
    (blocks, lengths, ref_cols, off_cols), ref, off, counts = _signatures(n, k, d, blocks)
    radix = np.cumsum(lengths) + 1  # a rank at position p is at most p
    # float64 sums of counts up to 2^20 are exact
    ref_c, off_c = (np.bincount(_row_ids(rows, radix[c]), weights=counts).astype(np.int64)
                    for rows, c in ((ref, ref_cols), (off, off_cols)))
    h_r, h_o, h_j, deficit = _deficit(ref_c.tolist(), off_c.tolist(), counts.tolist())
    return EntropyReport(n=n, k=k, offset=d, blocks=blocks, reference_entropy=h_r, offset_entropy=h_o,
                         joint_entropy=h_j, deficit=max(deficit, 0.0))


# -- Monte-Carlo route ----------------------------------------------------

@dataclass
class MonteCarloReport:
    n: int
    k: int
    offset: int
    blocks: tuple
    trials: int
    accepted: int
    deficit: float
    ci_low: float
    ci_high: float


def _plugin_entropy(counts) -> float:
    """Plug-in entropy of bin counts with Miller-Madow bias correction.
    Empty bins are dropped; the rest keep their (row id) order."""
    counts = counts[counts > 0]
    tot = counts.sum()
    p = counts / tot
    plug = -float(np.sum(p * np.log2(p)))
    return plug + (len(counts) - 1) / (2.0 * tot * math.log(2.0))


def _plugin_deficit(joint_counts, marginals) -> float:
    """Plug-in deficit from the counts of the joint row ids.  `marginals`
    holds each joint id's reference id and offset id; the marginal counts
    sum the joint counts over them, exact integers in float64, in id order."""
    h_r, h_o = (_plugin_entropy(np.bincount(ids[: len(joint_counts)], weights=joint_counts)) for ids in marginals)
    return h_r + h_o - _plugin_entropy(joint_counts)


def montecarlo_deficit(
    n: int,
    k: int,
    d: int,
    blocks=None,
    event=None,
    config: LabConfig | None = None,
) -> MonteCarloReport:
    """Estimate the deficit by sampling, optionally under a conditioning
    event, with a bootstrap confidence interval.

    The sampler draws the per-segment Binomial increments directly (their
    joint law is exactly that of a uniform array), so `event` must be a
    function of the answers: event(ref_matrix, off_matrix) -> bool mask,
    on int64 matrices of one row per trial.  Rejection sampling keeps rows
    where the mask is true; if fewer than 100 samples survive, the event
    is too rare for an honest estimate and the run refuses.

    The ranks are accumulated column-major in the narrowest dtype that
    holds n.  Answer rows get row ids once, each column in radix its answer
    position + 1, and joint rows in (reference id, offset id) order, which
    is np.unique's sorted row order.  The point estimate and each bootstrap
    round are one bincount of (resampled) joint ids.
    """
    if config is None:
        config = LabConfig()
    blocks, lengths, ref_cols, off_cols = _segments(n, k, d, blocks)
    rng = np.random.default_rng(config.rng_seed)
    trials = config.montecarlo_trials
    # equal lengths as one scalar: numpy draws the same values faster
    m = lengths[0] if (lengths == lengths[0]).all() else lengths
    ranks = rng.binomial(m, 0.5, size=(trials, len(lengths))).T.astype(np.min_scalar_type(n), order="C")
    for c in range(1, len(ranks)):  # row by row: an axis-0 cumsum loops per column
        ranks[c] += ranks[c - 1]
    ref, off = ranks[ref_cols], ranks[off_cols]

    if event is not None:
        mask = np.asarray(event(*(a.T.astype(np.int64, order="C") for a in (ref, off))), dtype=bool)
        ref, off = ref[:, mask], off[:, mask]
    accepted = ref.shape[1]
    if accepted < 100:
        raise RefusalError(
            f"conditioning event too rare: {accepted}/{trials} samples survive"
        )

    radix = np.cumsum(lengths) + 1  # a rank at position p is at most p
    ref_ids, off_ids = (_row_ids(a.T, radix[cols]) for a, cols in ((ref, ref_cols), (off, off_cols)))
    n_off = int(off_ids.max()) + 1
    key = ref_ids * n_off + off_ids
    joint = _dense(key, (int(ref_ids.max()) + 1) * n_off)
    joint_key = np.empty(int(joint.max()) + 1, dtype=np.int64)
    joint_key[joint] = key
    marginals = np.divmod(joint_key, n_off)  # each joint id's reference and offset id
    point = _plugin_deficit(np.bincount(joint), marginals)
    boots = []
    for _ in range(config.bootstrap_rounds):
        idx = rng.integers(0, accepted, size=accepted)
        boots.append(_plugin_deficit(np.bincount(joint[idx]), marginals))
    # normal-approximation bootstrap: percentile intervals sit off-center
    # for plug-in entropies (resampling shrinks the support)
    spread = 1.96 * float(np.std(boots))
    lo, hi = point - spread, point + spread
    return MonteCarloReport(
        n=n,
        k=k,
        offset=d,
        blocks=blocks,
        trials=trials,
        accepted=accepted,
        deficit=point,
        ci_low=float(lo),
        ci_high=float(hi),
    )
