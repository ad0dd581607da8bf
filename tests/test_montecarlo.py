"""The Monte Carlo deficit against the route it replaced.

``_montecarlo_reference`` is ``montecarlo_deficit`` as it was when its
ranks were an int64 cumsum over rows and every bootstrap round took three
bincounts, of the reference, offset and joint row ids.  The current route
draws the same stream and must report the same floats, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankprobe.entropy import (
    LabConfig,
    MonteCarloReport,
    _dense,
    _plugin_entropy,
    _row_ids,
    _segments,
    montecarlo_deficit,
)
from rankprobe.errors import RefusalError


def _plugin_deficit_reference(ids, idx=slice(None)) -> float:
    """Plug-in deficit of the sample rows `idx` from (reference, offset,
    joint) row ids."""
    h_r, h_o, h_j = (_plugin_entropy(np.bincount(i[idx])) for i in ids)
    return h_r + h_o - h_j


def _montecarlo_reference(
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
    function of the answers: event(ref_matrix, off_matrix) -> bool mask.
    Rejection sampling keeps rows where the mask is true; if fewer than
    100 samples survive, the event is too rare for an honest estimate and
    the run refuses.

    The reference, offset and joint answer rows are mapped to row ids
    once; the point estimate and every bootstrap round are then bincounts
    of (resampled) ids, whose nonzero bins come in np.unique's sorted row
    order.
    """
    if config is None:
        config = LabConfig()
    blocks, lengths, ref_cols, off_cols = _segments(n, k, d, blocks)
    rng = np.random.default_rng(config.rng_seed)
    trials = config.montecarlo_trials
    ranks = np.cumsum(rng.binomial(lengths, 0.5, size=(trials, len(lengths))), axis=1)
    ref, off = ranks[:, ref_cols], ranks[:, off_cols]

    if event is not None:
        mask = np.asarray(event(ref, off), dtype=bool)
        ref, off = ref[mask], off[mask]
    accepted = len(ref)
    if accepted < 100:
        raise RefusalError(
            f"conditioning event too rare: {accepted}/{trials} samples survive"
        )

    ids = [_row_ids(rows, n + 1) for rows in (ref, off)]
    # lexicographic order of the joint rows is (reference id, offset id) order
    n_off = int(ids[1].max()) + 1
    ids.append(_dense(ids[0] * n_off + ids[1], (int(ids[0].max()) + 1) * n_off))
    point = _plugin_deficit_reference(ids)
    boots = []
    for _ in range(config.bootstrap_rounds):
        idx = rng.integers(0, accepted, size=accepted)
        boots.append(_plugin_deficit_reference(ids, idx))
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


def _outcome(route, *args, **kwargs):
    """The repr of the report's (accepted, deficit, ci_low, ci_high), or
    the refusal.  Equal reprs are equal floats of equal types."""
    try:
        rep = route(*args, **kwargs)
    except RefusalError as err:
        return ("refused", str(err))
    return repr((rep.accepted, rep.deficit, rep.ci_low, rep.ci_high))


EVENTS = {
    None: None,
    "even_last_ref": lambda ref, off: (ref[:, -1] % 2) == 0,
    "early_sum_below_last": lambda ref, off: off[:, 0] + ref[:, 0] < ref[:, -1],
    "rare": lambda ref, off: ref[:, -1] == 0,
}


@st.composite
def geometries(draw):
    """(n, k, d, blocks) with n <= 64.  Half the draws are the half offset
    over every block of an even block size, where every segment has the
    same length; the rest are any offset over any subset of blocks."""
    if draw(st.booleans()):
        bs = 2 * draw(st.integers(1, 8))
        k = draw(st.integers(1, 64 // bs))
        n = k * bs + draw(st.integers(0, min(k - 1, 64 - k * bs)))
        return n, k, bs // 2, None
    n = draw(st.integers(2, 64))
    k = draw(st.integers(1, n // 2))
    d = draw(st.integers(1, n // k - 1))
    blocks = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    return n, k, d, tuple(blocks)


@settings(max_examples=300, deadline=None)
@given(
    geometries(),
    st.integers(200, 3000),
    st.integers(1, 20),
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(EVENTS)),
)
def test_montecarlo_matches_reference(geometry, trials, rounds, seed, event):
    n, k, d, blocks = geometry
    if blocks is None:
        _, lengths, _, _ = _segments(n, k, d, blocks)
        assert len(set(lengths.tolist())) == 1
    cfg = LabConfig(montecarlo_trials=trials, rng_seed=seed, bootstrap_rounds=rounds)
    kwargs = dict(blocks=blocks, event=EVENTS[event], config=cfg)
    got = _outcome(montecarlo_deficit, n, k, d, **kwargs)
    assert got == _outcome(_montecarlo_reference, n, k, d, **kwargs)


@pytest.mark.parametrize(
    "n, k, d, blocks",
    [(300, 3, 50, None), (300, 6, 25, None), (1000, 7, 60, (0, 2, 6)), (70000, 4, 8000, (1, 3))],
)
def test_montecarlo_matches_reference_past_one_byte(n, k, d, blocks):
    # ranks past 255 take uint16 and uint32 columns
    cfg = LabConfig(montecarlo_trials=600, rng_seed=n, bootstrap_rounds=5)
    got = _outcome(montecarlo_deficit, n, k, d, blocks, config=cfg)
    assert got == _outcome(_montecarlo_reference, n, k, d, blocks, config=cfg)


@pytest.mark.parametrize("field", ["montecarlo_trials", "bootstrap_rounds"])
def test_config_refuses_empty_sampling(field):
    # no bootstrap round would leave the interval nan
    with pytest.raises(ValueError, match="at least one"):
        LabConfig(**{field: 0})


def test_event_sees_int64_answers():
    # with uint8 ranks, ref - off would wrap to a large positive number and
    # the event would accept nothing
    seen = {}

    def ref_below_last_off(ref, off):
        seen.setdefault("matrices", []).append((ref, off))
        return ref[:, 0] - off[:, -1] < 0

    cfg = LabConfig(montecarlo_trials=3000, rng_seed=5, bootstrap_rounds=10)
    got = montecarlo_deficit(16, 4, 2, event=ref_below_last_off, config=cfg)
    want = _montecarlo_reference(16, 4, 2, event=ref_below_last_off, config=cfg)
    assert 100 <= got.accepted < got.trials
    assert (got.accepted, got.deficit, got.ci_low, got.ci_high) == (
        want.accepted,
        want.deficit,
        want.ci_low,
        want.ci_high,
    )
    assert math.isfinite(got.deficit)
    (got_ref, got_off), (want_ref, want_off) = seen["matrices"]
    for a, b in ((got_ref, want_ref), (got_off, want_off)):
        assert a.dtype == np.int64 and a.shape == b.shape == (3000, 4)
        assert np.array_equal(a, b)
