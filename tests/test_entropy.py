import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe.errors import RefusalError
from rankprobe.entropy import (
    LabConfig,
    analytic_deficit,
    binom_entropy,
    binom_entropy_estimate,
    block_deficit,
    block_deficit_argmin,
    brute_force_deficit,
    deficit_from_counts,
    montecarlo_deficit,
    signature_counts,
)
from rankprobe.entropy import _row_ids, _segments
from oracles import binom_entropy_exact

# frozen oracle values (independent bigint computation)
H_SMALL = {
    1: 1.0,
    2: 1.5,
    3: 1.811278124459133,
    4: 2.0306390622295662,
}


def test_exact_entropy_small():
    for m, h in H_SMALL.items():
        assert binom_entropy_exact(m) == pytest.approx(h, abs=1e-12)
    assert binom_entropy_exact(0) == 0.0


def test_fast_matches_exact():
    for m in list(range(1, 40)) + [64, 100, 257, 512, 1000]:
        assert binom_entropy(m) == pytest.approx(
            binom_entropy_exact(m), rel=1e-12, abs=1e-12
        )


def test_stirling_centre_matches_exact():
    # past EXACT_CENTRE_MAX the centre is seeded from Stirling's series
    # (measured error at 2^14: 1.4e-13)
    for m in (4097, 4098, 1 << 14):
        assert binom_entropy(m) == pytest.approx(binom_entropy_exact(m), abs=1e-12)


def test_entropy_monotone_and_bounded():
    prev = 0.0
    for m in range(1, 300):
        h = binom_entropy(m)
        assert prev < h <= m
        if m >= 2:
            assert h < m  # nondegenerate: strictly below the uniform bound
        prev = h


def test_estimate_tracks_exact():
    # frozen constant: measured max of m*|est - exact| over [4, 4096]
    worst = 0.0
    for m in range(4, 600):
        gap = abs(binom_entropy_estimate(m) - binom_entropy(m))
        worst = max(worst, m * gap)
    assert worst <= 0.07


def test_block_deficit_values():
    assert block_deficit(2, 1) == pytest.approx(1.0, abs=1e-12)
    assert block_deficit(4, 2) == pytest.approx(1.0612781244591325, abs=1e-12)
    with pytest.raises(ValueError):
        block_deficit(4, 0)
    with pytest.raises(ValueError):
        block_deficit(4, 4)


def test_block_deficit_midpoint_floor():
    for m in range(2, 400, 2):
        assert block_deficit(m, m // 2) >= 1.0 - 2.0 / m


def test_block_deficit_argmin_is_central():
    for m in (2, 4, 8, 16, 64, 256):
        mins = set(block_deficit_argmin(m))
        assert m // 2 in mins
        # symmetric: if d is a minimiser so is m - d
        assert {m - d for d in mins} == mins


def test_block_deficit_argmin_matches_scalar_loop():
    # the array form does the scalar block_deficit's IEEE operations
    for m in range(2, 300):
        vals = [(block_deficit(m, d), d) for d in range(1, m)]
        best = min(v for v, _ in vals)
        assert block_deficit_argmin(m) == [d for v, d in vals if v <= best + 1e-12]
    for m in (1, 0, -1):  # no interior offset: ValueError, as the scalar min() raised
        with pytest.raises(ValueError):
            block_deficit_argmin(m)


def test_analytic_deficit_frozen():
    rep = analytic_deficit(16, 4, 2)
    assert rep.deficit == pytest.approx(3.7144734356069637, abs=1e-12)
    assert rep.per_block_deficits[0] == pytest.approx(0.5306390622295662, abs=1e-12)
    for pb in rep.per_block_deficits[1:]:
        assert pb == pytest.approx(1.0612781244591325, abs=1e-12)
    assert rep.deficit == pytest.approx(sum(rep.per_block_deficits), abs=1e-9)
    assert rep.joint_entropy <= rep.reference_entropy + rep.offset_entropy + 1e-9


def test_analytic_matches_brute_force():
    for (n, k, d) in ((8, 2, 1), (8, 2, 2), (12, 3, 2), (16, 4, 2), (16, 4, 1), (18, 3, 3)):
        want = analytic_deficit(n, k, d).deficit
        got = brute_force_deficit(n, k, d).deficit
        assert got == pytest.approx(want, abs=1e-9), (n, k, d)


def test_analytic_subset_of_blocks():
    # restricting the offset row to a subset of blocks
    for blocks in ((0,), (1,), (0, 2), (1, 3), (0, 1, 2, 3)):
        want = analytic_deficit(16, 4, 2, blocks=blocks).deficit
        got = brute_force_deficit(16, 4, 2, blocks=blocks).deficit
        assert got == pytest.approx(want, abs=1e-9), blocks


def test_signature_counts_total():
    blocks, counts = signature_counts(12, 3, 2, None)
    assert blocks == (0, 1, 2)
    assert sum(counts.values()) == 1 << 12
    with pytest.raises(RefusalError):
        signature_counts(24, 4, 2, None)


def _enumerate_signatures(n, k, d, blocks):
    """Pure-Python oracle: one signature per array, in array order."""
    bs = n // k
    counts = {}
    for v in range(1 << n):
        def rank(p):
            return bin(v & ((1 << p) - 1)).count("1")

        sig = (
            tuple(rank((b + 1) * bs) for b in range(k)),
            tuple(rank(b * bs + d) for b in blocks),
        )
        counts[sig] = counts.get(sig, 0) + 1
    return counts


@st.composite
def lab_geometries(draw):
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, n // 2))
    d = draw(st.integers(1, n // k - 1))
    blocks = draw(st.sets(st.integers(0, k - 1), min_size=1))
    return n, k, d, tuple(sorted(blocks))


@settings(max_examples=80, deadline=None)
@given(case=lab_geometries())
def test_signature_counts_match_enumeration(case):
    n, k, d, blocks = case
    got_blocks, got = signature_counts(n, k, d, blocks)
    assert got_blocks == blocks
    # same signatures, counts and key order (each signature's first array)
    assert list(got.items()) == list(_enumerate_signatures(n, k, d, blocks).items())


# Two geometries where one segment holds bits n // 2 - 1 and n // 2, so its
# popcount is split over the low and high half-tables; one odd n, one even.
STRADDLING = [(13, 3, 1, (0, 2)), (16, 3, 2, (0, 1, 2))]


@pytest.mark.parametrize("case", STRADDLING)
def test_signature_counts_match_enumeration_across_halves(case):
    n, k, d, blocks = case
    _, lengths, _, _ = _segments(n, k, d, blocks)
    starts = np.cumsum(lengths) - lengths
    assert any(s < n // 2 < s + length for s, length in zip(starts, lengths))
    got_blocks, got = signature_counts(n, k, d, blocks)
    assert got_blocks == blocks
    assert list(got.items()) == list(_enumerate_signatures(n, k, d, blocks).items())


# shapes whose mixed-radix bound is at most 16 times the row count, so their
# ids come from the table of keys seen; the rest sort their keys
TABLE_ROUTE = {(500, 1), (2000, 6), (100, 2), (20000, 4), (4000, 3)}


@pytest.mark.parametrize(
    "shape, radix",
    [((500, 1), 3), ((2000, 6), 4), ((3000, 8), 21), ((1500, 40), 61), ((800, 80), 201),
     ((100, 2), 40), ((99, 2), 40), ((20000, 4), 18), ((4000, 3), 30), ((50, 3), 40)],
)
def test_row_ids_follow_unique_rows(shape, radix, monkeypatch):
    # (1500, 40) and (800, 80) need more than 62 bits of mixed-radix key;
    # (100, 2) sits on the table route's bound and (99, 2) one row past it
    rng = np.random.default_rng(shape[1])
    rows = rng.integers(0, radix, size=shape)
    rows[1::3] = rows[::3][: len(rows[1::3])]  # repeated rows
    _, inverse = np.unique(rows, axis=0, return_inverse=True)
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda key: sorts.append(len(key)) or unique(key))
    ids = _row_ids(rows, radix)
    monkeypatch.undo()
    assert bool(sorts) == (shape not in TABLE_ROUTE)
    assert ids.dtype == np.int64
    assert np.array_equal(ids, inverse.ravel())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_ids_follow_unique_rows_per_column_radix(data):
    # up to 12 columns of radix up to 300 pass 2^62, so the key is
    # re-densified on the way
    radix = data.draw(st.lists(st.integers(1, 300), min_size=1, max_size=12))
    n_rows = data.draw(st.integers(1, 400))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, radix, size=(n_rows, len(radix)))
    rows[1::3] = rows[::3][: len(rows[1::3])]  # repeated rows
    _, inverse = np.unique(rows, axis=0, return_inverse=True)
    for r in (radix, np.array(radix)):
        ids = _row_ids(rows, r)
        assert ids.dtype == np.int64
        assert np.array_equal(ids, inverse.ravel())
    narrow = rows.astype(np.min_scalar_type(max(radix)))  # as the Monte Carlo route keys them
    assert np.array_equal(_row_ids(narrow, radix), inverse.ravel())


# sha256 over the float64 (reference, offset, joint, deficit) of
# brute_force_deficit(n, k, d, blocks) for every k and d, each with blocks
# None and then every other block, taken from the row-id enumeration that
# keyed all 2^n arrays' rank columns
BRUTE_FORCE_SHA256 = {
    2: "d1c4f1bb64634f9a90588b4653fed435d8bd6b368c5f102017fae9f933150f3e",
    3: "2290b08f4ba8c8aaeac6b8c0323cdf0b90cd8b216b6d5a165ad865ce87aed45c",
    4: "5e5e866e874278f457d843ffa55c606fac075cc73c4481aab32ac42d493e910d",
    5: "884c602ff1f7cda020a471e1b0dddfb96295bea1a3d600219665ce213abda071",
    6: "d2cf89bf7fc6b287a233eec1e86b3ab3d3035c459291fd1eb969559d42e9744e",
    7: "5f108f0cc17c718d85e5f344d525d7dcd8e75497ae2af7d2180c0db584cd177d",
    8: "5b68b5ed60d0b7bb479a4b66f627aa0bdec01bad83f1fb7d5f1067e575a7d450",
    9: "c27427faf8a02b444bae861bdaecf3b12d18302f9813988badcf6bed84eb14a7",
    10: "62f2f26c3fc7dd172564752b4bf9e6e54a6878ae773d5ed0f44ad272273c4d0a",
    11: "82a7c01b25d553563145d82553b72ab882291e77101e7b709b7fc3a8bcad056f",
    12: "9b030b0dc13d34ba1c956d92af716bab96be7cb823b848e77961686e47deded1",
    13: "8b2487803821ece04d17fbb283509e5f2b8ccb8708c44eed464246ece50bf88d",
    14: "507d962a20d72fafff3fa73c8a3f027957bfb610c5c78503cda875cfbb8992b5",
}
BRUTE_FORCE_PINS = {
    (17, 4, 2): (8.122556248918265, 7.591917186688699, 12.0, 3.7144734356069637),
    (18, 3, 3): (7.0000861043129685, 6.47800219400111, 10.867668746754799, 2.6104195515592803),
    (20, 4, 2): (8.792769644172392, 8.094577233129293, 13.245112497836532, 3.642234379465153),
}
# sha256 of repr(list(signature_counts(*geometry)[1].items()))
SIGNATURE_ITEMS_SHA256 = {
    (16, 4, 2): "8b9710959b3eb76a758f69bdfa9e1eec6f37604ce495d2c0a33db36adbe1e0b2",
    (20, 4, 2): "56b549ac536a1bdb8cfdcf0223a66884180f804d8e85bfdf08b74cd67544140e",
}


def _report_floats(rep):
    return (rep.reference_entropy, rep.offset_entropy, rep.joint_entropy, rep.deficit)


@pytest.mark.parametrize("n", list(BRUTE_FORCE_SHA256))
def test_brute_force_reports_pinned(n):
    digest = hashlib.sha256()
    for k in range(1, n + 1):
        for d in range(1, n // k):
            for blocks in (None, tuple(range(0, k, 2))):
                floats = _report_floats(brute_force_deficit(n, k, d, blocks))
                digest.update(np.array(floats, dtype=np.float64).tobytes())
    assert digest.hexdigest() == BRUTE_FORCE_SHA256[n]


@pytest.mark.parametrize("geometry", list(BRUTE_FORCE_PINS))
def test_brute_force_large_reports_pinned(geometry):
    assert _report_floats(brute_force_deficit(*geometry)) == BRUTE_FORCE_PINS[geometry]


@pytest.mark.parametrize("geometry", list(SIGNATURE_ITEMS_SHA256))
def test_signature_items_pinned(geometry):
    items = list(signature_counts(*geometry)[1].items())
    assert hashlib.sha256(repr(items).encode()).hexdigest() == SIGNATURE_ITEMS_SHA256[geometry]


def test_deficit_from_counts_uniform():
    _, counts = signature_counts(16, 4, 2, None)
    h_r, h_o, h_j, deficit = deficit_from_counts(counts)
    assert deficit == pytest.approx(3.7144734356069637, abs=1e-9)
    assert h_r == pytest.approx(4 * H_SMALL[4], abs=1e-9)  # k * h(n / k)
    assert h_j <= h_r + h_o + 1e-9


def test_deficit_from_counts_big_weights():
    # weights past 2^53 (and past int64) stay exact ints; value pinned
    _, counts = signature_counts(12, 3, 2, None)
    big = {sig: c * (2**70 + 1) for sig, c in counts.items()}
    got = deficit_from_counts(big)
    assert got == (6.09191718668869, 5.561278124459122, 9.0, 2.6531953111478117)
    assert got == pytest.approx(deficit_from_counts(counts), abs=1e-12)


def test_deficit_nonneg_on_random_events():
    # any deterministic event (conditioning) keeps the deficit defined and finite
    rng = np.random.default_rng(11)
    _, counts = signature_counts(12, 3, 2, None)
    keys = list(counts)
    for _ in range(20):
        keep = {k: counts[k] for k in keys if rng.random() < 0.7}
        if not keep:
            continue
        _, _, h_j, deficit = deficit_from_counts(keep)
        assert math.isfinite(deficit)
        assert h_j >= -1e-12


def test_montecarlo_close_to_truth():
    # n must stay small: the plug-in estimator's bias grows with the
    # number of distinct answer tuples, which explodes for large blocks
    cfg = LabConfig(montecarlo_trials=20000, rng_seed=0, bootstrap_rounds=200)
    rep = montecarlo_deficit(16, 4, 2, config=cfg)
    truth = analytic_deficit(16, 4, 2).deficit
    assert abs(rep.deficit - truth) < 0.3
    assert rep.ci_low <= rep.deficit <= rep.ci_high
    assert rep.trials == 20000


def test_montecarlo_deterministic():
    cfg = LabConfig(montecarlo_trials=2000, rng_seed=7, bootstrap_rounds=20)
    a = montecarlo_deficit(16, 4, 2, config=cfg)
    b = montecarlo_deficit(16, 4, 2, config=cfg)
    assert a.deficit == b.deficit and a.ci_low == b.ci_low


def test_montecarlo_event_filter():
    cfg = LabConfig(montecarlo_trials=5000, rng_seed=1, bootstrap_rounds=50)

    def even_ref(ref, off):
        return (ref[:, -1] % 2) == 0

    rep = montecarlo_deficit(16, 4, 2, config=cfg, event=even_ref)
    assert 100 <= rep.accepted < rep.trials
    assert math.isfinite(rep.deficit)

    def reject_all(ref, off):
        return np.zeros(len(ref), dtype=bool)

    with pytest.raises(RefusalError):
        montecarlo_deficit(16, 4, 2, config=cfg, event=reject_all)


# Reports taken from the np.unique(axis=0) bootstrap and compared exactly.
MC_PINS = {
    "n16_200_rounds": (
        (16, 4, 2),
        dict(config=LabConfig(montecarlo_trials=20000, rng_seed=0, bootstrap_rounds=200)),
        (20000, 3.7820377178952302, 3.7545936149157866, 3.809481820874674),
    ),
    "n16_even_ref": (
        (16, 4, 2),
        dict(
            config=LabConfig(montecarlo_trials=5000, rng_seed=1, bootstrap_rounds=50),
            event=lambda ref, off: (ref[:, -1] % 2) == 0,
        ),
        (2468, 4.146860458168991, 4.0851221067430785, 4.208598809594903),
    ),
    "n60_k20": (
        (60, 20, 1),
        dict(config=LabConfig(montecarlo_trials=3000, rng_seed=2, bootstrap_rounds=20)),
        (3000, 12.271853856654241, 12.224797157483765, 12.318910555824717),
    ),
    # the entropy_triangulate benchmark's configuration at seed 0
    "n17_benchmark": (
        (17, 4, 2),
        dict(config=LabConfig(montecarlo_trials=20000, rng_seed=0, bootstrap_rounds=4)),
        (20000, 3.7820377178952302, 3.76723273241065, 3.7968427033798107),
    ),
}


@pytest.mark.parametrize("case", list(MC_PINS))
def test_montecarlo_reports_pinned(case):
    args, kwargs, (accepted, deficit, lo, hi) = MC_PINS[case]
    rep = montecarlo_deficit(*args, **kwargs)
    assert (rep.accepted, rep.deficit, rep.ci_low, rep.ci_high) == (accepted, deficit, lo, hi)


def test_binom_entropy_table_pinned():
    table = np.array([binom_entropy(m) for m in range(1, 4097)], dtype=np.float64)
    digest = hashlib.sha256(table.tobytes()).hexdigest()
    assert digest == "d6b3291e3b155ca75e5b95de8c9c0fddf9c156a4ad0909117b2014a8fbf266ee"


def test_config_validation():
    cfg = LabConfig()
    assert cfg.gamma == 4.0


def test_report_rejects_bad_geometry():
    with pytest.raises(ValueError):
        analytic_deficit(16, 4, 0)  # offset must fall inside the block
    with pytest.raises(ValueError):
        analytic_deficit(16, 4, 4)
    with pytest.raises(ValueError):
        analytic_deficit(16, 4, 2, blocks=(4,))
    with pytest.raises(ValueError):
        analytic_deficit(16, 4, 2, blocks=())
