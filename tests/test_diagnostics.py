"""Oracle checks for streaming moments, mixing statistics, and the roundoff
flag. Reference values come from closed forms or two-pass numpy, never from
the code under test."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manychain.diagnostics import (
    DegenerateTraceError,
    DiagnosticsReport,
    RunStatistics,
    StreamingMoments,
    accept_probs_from_ratios,
    ess,
    harmonic_mean_acceptance,
    merge_chain_axis,
    report_from_trace,
    roundoff_grid_hits,
    split_rhat,
    streaming_rhat,
    variance,
    welford_init,
    welford_merge,
    harmonic_accept,
    welford_update,
)
from testkit import (
    reference_accept_probs_from_ratios,
    reference_harmonic_accept,
    reference_roundoff_grid_hits,
    reference_welford_update,
    same_bits,
)


def accumulate(values, shape=()):
    acc = welford_init(shape)
    for v in values:
        acc = welford_update(acc, v)
    return acc


def test_welford_small_case_by_hand():
    acc = accumulate([1.0, 2.0, 3.0])
    assert acc.count == 3
    assert float(acc.mean) == 2.0
    assert float(acc.m2) == 2.0
    assert float(variance(acc)) == 1.0


def test_welford_matches_two_pass():
    rng = np.random.default_rng(5)
    x = rng.normal(3.0, 2.5, size=10_000)
    acc = accumulate(x)
    assert float(acc.mean) == pytest.approx(x.mean(), rel=1e-12)
    assert float(variance(acc)) == pytest.approx(x.var(ddof=1), rel=1e-12)


def test_welford_merge_equals_single_stream():
    rng = np.random.default_rng(6)
    x = rng.normal(size=1000)
    merged = welford_merge(accumulate(x[:400]), accumulate(x[400:]))
    full = accumulate(x)
    assert merged.count == 1000
    assert float(merged.mean) == pytest.approx(float(full.mean), rel=1e-12)
    assert float(merged.m2) == pytest.approx(float(full.m2), rel=1e-12)


def test_welford_merge_identity_and_symmetry():
    a = accumulate([1.0, 4.0])
    empty = welford_init()
    assert welford_merge(a, empty) is a
    assert welford_merge(empty, a) is a
    b = accumulate([2.0, -1.0, 0.5])
    ab, ba = welford_merge(a, b), welford_merge(b, a)
    assert float(ab.mean) == pytest.approx(float(ba.mean), rel=1e-14)
    assert float(ab.m2) == pytest.approx(float(ba.m2), rel=1e-14)


@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=12),
    st.lists(st.floats(-100, 100), min_size=2, max_size=12),
    st.lists(st.floats(-100, 100), min_size=2, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_welford_merge_associative(xs, ys, zs):
    a, b, c = accumulate(xs), accumulate(ys), accumulate(zs)
    left = welford_merge(welford_merge(a, b), c)
    right = welford_merge(a, welford_merge(b, c))
    assert left.count == right.count
    assert float(left.mean) == pytest.approx(float(right.mean), rel=1e-9, abs=1e-9)
    assert float(left.m2) == pytest.approx(float(right.m2), rel=1e-9, abs=1e-9)


def test_merge_chain_axis_pools_chains():
    rng = np.random.default_rng(7)
    draws = rng.normal(size=(50, 4, 3))  # T, C, P
    acc = welford_init((4, 3))
    for t in range(50):
        acc = welford_update(acc, draws[t])
    pooled = merge_chain_axis(acc)
    flat = draws.reshape(200, 3)
    np.testing.assert_allclose(pooled.mean, flat.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(
        variance(pooled), flat.var(axis=0, ddof=1), rtol=1e-12
    )
    with pytest.raises(ValueError):
        merge_chain_axis(welford_init())


def test_variance_needs_enough_observations():
    with pytest.raises(ValueError):
        variance(accumulate([1.0]))


def test_split_rhat_iid_near_one():
    rng = np.random.default_rng(11)
    trace = rng.normal(size=(2000, 8))
    r = split_rhat(trace)
    assert 0.99 < r < 1.02


def test_split_rhat_flags_separated_chains():
    rng = np.random.default_rng(12)
    trace = rng.normal(size=(1000, 4))
    trace[:, 2:] += 5.0  # two chains parked five sigma away
    assert split_rhat(trace) > 1.5


def test_split_rhat_flags_a_drifting_chain():
    # split halves expose a trend a plain R-hat averages away
    rng = np.random.default_rng(13)
    trace = rng.normal(size=(1000, 2))
    trace[:, 1] += np.linspace(0.0, 6.0, 1000)
    assert split_rhat(trace) > 1.2


def test_split_rhat_errors():
    with pytest.raises(DegenerateTraceError):
        split_rhat(np.ones((100, 4)))
    with pytest.raises(DegenerateTraceError, match="no chain moved"):
        split_rhat(np.full((20, 3), 0.1))  # var() of the constant columns rounds above 0
    # every chain moved once, at the split: the half-chains, not the chains, are constant
    with pytest.raises(DegenerateTraceError, match="every half-chain is constant") as info:
        split_rhat(np.r_[np.zeros((10, 3)), np.ones((10, 3))])
    assert "no chain moved" not in str(info.value)
    with pytest.raises(ValueError):
        split_rhat(np.zeros((3, 4)))


def test_streaming_rhat_matches_regime():
    rng = np.random.default_rng(14)
    draws = rng.normal(size=(500, 6, 2))
    acc = welford_init((6, 2))
    for t in range(500):
        acc = welford_update(acc, draws[t])
    r = streaming_rhat(acc)
    assert r.shape == (2,)
    assert np.all((r > 0.99) & (r < 1.02))

    shifted = draws.copy()
    shifted[:, 0, :] += 5.0
    acc2 = welford_init((6, 2))
    for t in range(500):
        acc2 = welford_update(acc2, shifted[t])
    assert np.all(streaming_rhat(acc2) > 1.5)

    with pytest.raises(ValueError):
        streaming_rhat(welford_init((6, 2)))
    with pytest.raises(ValueError):
        streaming_rhat(accumulate([np.zeros(3), np.ones(3)], shape=(3,)))


def test_ess_iid():
    rng = np.random.default_rng(15)
    trace = rng.normal(size=(5000, 8))
    assert 32_000 < ess(trace) < 48_000


def test_ess_ar1_matches_analytic():
    # AR(1) with rho = 0.9: asymptotic efficiency (1 - rho) / (1 + rho)
    rho, n = 0.9, 50_000
    rng = np.random.default_rng(16)
    x = np.empty(n)
    x[0] = rng.normal()
    innov = rng.normal(size=n) * math.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + innov[t]
    want = n * (1.0 - rho) / (1.0 + rho)
    got = ess(x)
    assert abs(got - want) / want < 0.30


def test_ess_antithetic_exceeds_draw_count():
    rho, n = -0.5, 50_000
    rng = np.random.default_rng(17)
    x = np.empty(n)
    x[0] = rng.normal()
    innov = rng.normal(size=n) * math.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + innov[t]
    assert ess(x) > n  # super-efficient, and allowed to be


def test_ess_errors():
    with pytest.raises(ValueError):
        ess(np.zeros(4))
    with pytest.raises(DegenerateTraceError):
        ess(np.ones(100))
    with pytest.raises(DegenerateTraceError):
        ess(np.full((20, 3), 0.1))


def fold(z, ratios=None):
    """The report RunStatistics gives for a (T, C, P) trace; ratios default to 0."""
    stats = RunStatistics()
    for i, zi in enumerate(np.asarray(z, dtype=np.float64)):
        stats.update(zi, np.zeros(len(zi)) if ratios is None else ratios[i])
    return stats.report(rhat=[])


def test_esjd_by_hand():
    assert fold([[[0.0]], [[1.0]]]).esjd == 1.0
    # chains jump 1 and 9 squared units: mean 5
    assert fold([[[0.0], [0.0]], [[1.0], [3.0]]]).esjd == 5.0
    # jumps of 1 then 2 (squared 1 and 4) over two transitions: mean 2.5
    assert fold([[[0.0]], [[1.0]], [[3.0]]]).esjd == 2.5
    stats = RunStatistics()
    stats.update([[0.0]], [0.0])
    with pytest.raises(ValueError, match="changed shape"):
        stats.update([[1.0], [2.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        stats.update([[1.0]], [0.0, 0.0])  # ratios must be (C,)
    with pytest.raises(ValueError, match="at least 2 iterations"):
        stats.report(rhat=[1.0])


def test_chees_by_hand():
    # draws 0, 3, 3 centre on 2: squared distances 4, 1, 1 change by -3
    # and 0, so ChEES = (9 + 0) / 2 transitions / 4 = 1.125
    assert fold([[[0.0]], [[3.0]], [[3.0]]]).chees == 1.125
    # two chains, 0 -> 2 and 2 -> 0, centre 1: no change in distance
    assert fold([[[0.0], [2.0]], [[2.0], [0.0]]]).chees == 0.0


def test_chees_translation_invariant():
    rng = np.random.default_rng(18)
    z = np.cumsum(rng.normal(size=(12, 6, 3)), axis=0)
    shift = np.array([10.0, -4.0, 2.5])
    a = fold(z).chees
    b = fold(z + shift).chees
    assert a == pytest.approx(b, rel=1e-9)


def two_pass_esjd_chees(z):
    """ESJD and ChEES of a (T, C, P) trace, by numpy in two passes."""
    jump = z[1:] - z[:-1]
    sq = ((z - z.mean(axis=(0, 1))) ** 2).sum(axis=-1)
    change = sq[1:] - sq[:-1]
    return (jump * jump).sum(axis=-1).mean(), 0.25 * (change * change).mean()


@given(
    t=st.integers(3, 40),
    c=st.integers(2, 6),
    p=st.integers(1, 4),
    drift=st.floats(0.0, 1.0),
    shift=st.floats(-1e4, 1e4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_folded_esjd_and_chees_match_two_pass(t, c, p, drift, shift, seed):
    """Random walks with drift, shifted far from the origin: the streamed
    anchor algebra matches the two-pass formulas."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(t, c, p)) + drift * rng.uniform(-1.0, 1.0, size=p)
    z = shift + np.cumsum(steps, axis=0)
    esjd_ref, chees_ref = two_pass_esjd_chees(z)
    rep = fold(z)
    assert rep.esjd == pytest.approx(esjd_ref, rel=1e-12)
    assert rep.chees == pytest.approx(chees_ref, rel=1e-9)


def test_report_from_trace_folds_rows_through_run_statistics():
    rng = np.random.default_rng(23)
    z = np.cumsum(rng.normal(size=(16, 4, 3)), axis=0)
    ratios = -rng.exponential(size=(16, 4))
    ratios[3, 1] = -0.25  # one quarter-grid ratio
    rep = report_from_trace(z, ratios)
    folded = fold(z, ratios)
    for field in ("esjd", "chees", "mean_accept_harmonic", "roundoff_flag_fraction"):
        assert getattr(rep, field) == getattr(folded, field)
    assert rep.roundoff_flag_fraction == 1 / 64


def test_report_from_trace_peak_memory_stays_small():
    """Folding row by row keeps no (T, C, P) temporaries alive."""
    rng = np.random.default_rng(24)
    z = rng.normal(size=(1000, 64, 49))
    ratios = -rng.exponential(size=(1000, 64))
    tracemalloc.start()
    try:
        report_from_trace(z, ratios)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_roundoff_grid_hits_counts_grid_points():
    r = np.array([-0.25, -0.3137861, 0.5, -1.0])
    assert roundoff_grid_hits(r) == 3
    # infinities and huge ratios are never counted as hits
    assert roundoff_grid_hits([np.inf, 0.25]) == 1
    assert roundoff_grid_hits([2e6, 0.1]) == 0


def test_roundoff_grid_hits_quiet_on_healthy_ratios():
    rng = np.random.default_rng(19)
    assert roundoff_grid_hits(rng.normal(size=10_000)) < 100  # under 1%


# ratios at the fold's edges: quarter-grid points, the roundoff limit and
# its neighbours, infinities, NaN, signed zeros and values whose 4r overflows
EDGE_RATIOS = [0.0, -0.0, -0.25, 0.5, -3.75, 12.0, -0.25 + 1e-12, -0.25 + 1e-8,
               1e6, -1e6, 1e6 - 0.25, -(1e6 - 0.25), 1e6 + 0.25, -1e7, 7e-300,
               np.inf, -np.inf, np.nan, 1e308, -1e308]
RATIOS = st.one_of(st.sampled_from(EDGE_RATIOS),
                   st.floats(-50, 5, allow_nan=False),
                   st.integers(-200, 20).map(lambda k: k / 4))


@given(rows=st.lists(st.lists(RATIOS, min_size=3, max_size=3), min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_statistics_fold_matches_reference_at_its_edges(rows):
    """The accept and roundoff statistics give the bits of their plain
    reference copies on every ratio, warn on none, and so does a report
    folded over the rows as iterations."""
    ratios = np.array(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in ratios:
            assert roundoff_grid_hits(r) == reference_roundoff_grid_hits(r)
            assert type(roundoff_grid_hits(r)) is int
            assert same_bits(accept_probs_from_ratios(r), reference_accept_probs_from_ratios(r))
            assert same_bits(harmonic_accept(r), reference_harmonic_accept(r))
        stats = RunStatistics()
        z = np.arange(ratios.size * 2, dtype=np.float64).reshape(len(ratios), 3, 2) % 5
        for zi, ri in zip(z, ratios):
            stats.update(zi, ri)
        report = stats.report(rhat=[1.0, 1.0])
    harmonic_sum = 0.0
    for r in ratios:
        harmonic_sum += reference_harmonic_accept(r)
    assert same_bits(report.mean_accept_harmonic, harmonic_sum / len(ratios))
    hits = sum(reference_roundoff_grid_hits(r) for r in ratios)
    assert same_bits(report.roundoff_flag_fraction, hits / ratios.size)


@given(x=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20), shape=st.sampled_from([(), (2, 3)]))
@settings(max_examples=50, deadline=None)
def test_welford_update_matches_reference(x, shape):
    acc = welford_init(shape)
    count, mean, m2 = 0, np.zeros(shape), np.zeros(shape)
    for i, v in enumerate(x):
        obs = np.full(shape, v) + np.arange(np.prod(shape, dtype=int)).reshape(shape) * i
        acc = welford_update(acc, obs)
        count, mean, m2 = reference_welford_update(count, mean, m2, obs)
        assert acc.count == count and same_bits(acc.mean, mean) and same_bits(acc.m2, m2)


def test_harmonic_mean_acceptance():
    got = harmonic_mean_acceptance([1.0, 0.5])
    assert abs(got - 2.0 / 3.0) <= np.spacing(2.0 / 3.0)
    assert harmonic_mean_acceptance([1.0, 1.0, 1.0]) == 1.0
    with pytest.raises(ValueError):
        harmonic_mean_acceptance([0.5, 0.0])
    with pytest.raises(ValueError):
        harmonic_mean_acceptance([0.5, 1.1])
    with pytest.raises(ValueError):
        harmonic_mean_acceptance([])


def test_accept_probs_from_ratios():
    r = np.array([0.5, 0.0, -3.0, -np.inf])
    p = accept_probs_from_ratios(r)
    assert p[0] == 1.0 and p[1] == 1.0
    assert p[2] == pytest.approx(math.exp(-3.0), rel=1e-15)
    assert p[3] == 1e-10  # floor keeps the harmonic mean finite


def test_report_from_trace_fields():
    rng = np.random.default_rng(20)
    t, c, p = 64, 4, 3
    z = rng.normal(size=(t, c, p))
    ratios = np.full((t, c), -0.1)
    tau = np.exp(rng.normal(size=(t, c)))
    rep = report_from_trace(z, ratios, tau_trace=tau)
    assert len(rep.rhat) == p and len(rep.ess) == p
    assert rep.ess_tau is not None and rep.ess_tau > 0
    assert rep.esjd > 0 and rep.chees >= 0
    # every ratio is -0.1, so each per-step harmonic mean is exp(-0.1)
    assert rep.mean_accept_harmonic == pytest.approx(math.exp(-0.1), rel=1e-12)
    assert rep.roundoff_flag_fraction == 0.0

    d = dataclasses.asdict(rep)
    assert set(d) == {
        "rhat", "ess", "ess_tau", "esjd", "chees",
        "mean_accept_harmonic", "roundoff_flag_fraction",
    }
    json.dumps(d)  # everything must be plain JSON types


def test_report_harmonic_tolerates_one_deep_rejection():
    """One catastrophic step must not zero the run-level statistic."""
    rng = np.random.default_rng(21)
    t, c = 100, 8
    z = rng.normal(size=(t, c, 2))
    ratios = np.full((t, c), -0.2)
    ratios[57, 3] = -60.0  # single near-certain rejection
    rep = report_from_trace(z, ratios)
    assert rep.mean_accept_harmonic > 0.5


def test_report_from_trace_errors():
    rng = np.random.default_rng(22)
    with pytest.raises(ValueError):
        report_from_trace(rng.normal(size=(10, 4)), np.zeros((10, 4)))
    with pytest.raises(ValueError):
        report_from_trace(rng.normal(size=(4, 2, 2)), np.zeros((4, 2)))


def test_streaming_moments_are_frozen():
    acc = welford_init()
    with pytest.raises(AttributeError):
        acc.count = 5
    assert isinstance(acc, StreamingMoments)
    json.dumps(dataclasses.asdict(DiagnosticsReport([1.0], None, None, 0.0, 0.0, 1.0, 0.0)))
