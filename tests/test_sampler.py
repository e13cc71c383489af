"""Integrator, accept path, adaptation, and lockstep behavior."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from manychain.model import GaussianTarget, ModelTarget, Target, generate_synthetic
from manychain.prng import key_from_seed, normal, normal_uniform_each, split
from manychain.sampler import (
    ChainBatch,
    HmcConfig,
    LockstepViolationError,
    MomentsSink,
    TraceSink,
    adapt_step_size,
    draw_trajectory_length,
    estimate_diag_mass,
    hmc_step,
    leapfrog_step,
    run_chains,
    warmup_adapt,
)
from testkit import check_cache
import manychain.diagnostics as diag
import manychain.sampler as sampler


def small_model(seed=41, rows=100, features=4, threads=1):
    key = key_from_seed(seed)
    k_data, k_rest = split(key, 2)
    ds = generate_synthetic(k_data, rows, features, 0.5)
    return ModelTarget(ds, threads=threads), k_rest


def test_leapfrog_single_step_by_hand():
    # 1-D standard normal, z=1, m=0, eps=0.1:
    # m -> 0 + 0.05*(-1) = -0.05; z -> 1 + 0.1*(-0.05) = 0.995
    # m -> -0.05 + 0.05*(-0.995) = -0.09975
    g = GaussianTarget(1)
    z, m, value, grad = leapfrog_step(g, 0.1, np.array([1.0]), np.array([0.0]), np.array([-1.0]))
    assert float(z[0]) == pytest.approx(0.995, abs=1e-15)
    assert float(m[0]) == pytest.approx(-0.09975, abs=1e-15)
    assert float(value) == pytest.approx(float(g.log_prob(z)), abs=0)
    assert float(grad[0]) == pytest.approx(-0.995, abs=1e-15)


def test_leapfrog_respects_mass():
    # mass 2 halves the drift: z -> 1 + 0.1*(-0.05/2) = 0.9975
    g = GaussianTarget(1)
    z, m, _, _ = leapfrog_step(
        g, 0.1, np.array([1.0]), np.array([0.0]), np.array([-1.0]), mass_diag=np.array([2.0])
    )
    assert float(z[0]) == pytest.approx(0.9975, abs=1e-15)
    assert float(m[0]) == pytest.approx(-0.05 + 0.05 * -0.9975, abs=1e-15)


def test_leapfrog_is_reversible():
    target, key = small_model()
    k_z, k_m = split(key, 2)
    z0 = 0.5 * np.asarray(normal(k_z, [3, target.dim]))
    m0 = np.asarray(normal(k_m, [3, target.dim]))
    z, m = z0, m0
    _, grad = target.value_and_grad(z)
    for _ in range(20):
        z, m, _, grad = leapfrog_step(target, 0.01, z, m, grad)
    z, m = z, -m  # momentum flip
    _, grad = target.value_and_grad(z)
    for _ in range(20):
        z, m, _, grad = leapfrog_step(target, 0.01, z, m, grad)
    assert np.abs(z - z0).max() < 1e-8
    assert np.abs(-m - m0).max() < 1e-8


def test_energy_error_scales_quadratically():
    """Halving eps at fixed trajectory time must cut |dH| by ~4 (order 2)."""
    target, key = small_model(seed=55)
    k_z, k_m = split(key, 2)
    z0 = 0.5 * np.asarray(normal(k_z, [1, target.dim]))
    m0 = np.asarray(normal(k_m, [1, target.dim]))
    v0, g0 = target.value_and_grad(z0)

    def denergy(eps, steps):
        z, m, grad = z0.copy(), m0.copy(), g0.copy()
        value = v0
        for _ in range(steps):
            z, m, value, grad = leapfrog_step(target, eps, z, m, grad)
        h0 = 0.5 * float((m0 * m0).sum()) - float(v0[0])
        h1 = 0.5 * float((m * m).sum()) - float(value[0])
        return h1 - h0

    ratio = denergy(0.02, 10) / denergy(0.01, 20)
    assert 3.5 < ratio < 4.5


def test_trajectory_length_draws():
    key = key_from_seed(60)
    assert draw_trajectory_length(key, 10, jitter=False) == 10
    lengths = np.array(
        [draw_trajectory_length(k, 10, jitter=True) for k in split(key, 100_000)]
    )
    assert lengths.min() == 1
    assert lengths.max() == 20  # uniform on {1, ..., 2 * base}
    assert 10.3 < lengths.mean() < 10.7
    for v in range(1, 21):
        f = float((lengths == v).mean())
        assert 0.045 < f < 0.055
    with pytest.raises(ValueError):
        draw_trajectory_length(key, 0, jitter=True)


def test_zero_step_size_is_identity_and_accepts():
    g = GaussianTarget(3)
    key = key_from_seed(61)
    z0 = np.asarray(normal(key, [5, 3]))
    batch = ChainBatch.init(g, z0)
    step_key, jitter_key = split(key, 2)
    cfg = HmcConfig(step_size=0.0, num_leapfrog_steps=4, jitter=False)
    new_batch, out = hmc_step(g, cfg, batch, step_key, jitter_key)
    np.testing.assert_array_equal(new_batch.z, z0)
    np.testing.assert_array_equal(out.log_accept_ratio, np.zeros(5))
    assert out.is_accepted.all()


def test_acceptance_rate_matches_stationary_oracle():
    """Stationary 1-D standard normal, one leapfrog step. Bands frozen from a
    brute-force Metropolis oracle run outside this package (plain numpy):
    0.9206(10) at eps = 1.0, 0.746 at eps = 1.5."""
    g = GaussianTarget(1)
    for eps, lo, hi in ((1.0, 0.90, 0.94), (1.5, 0.65, 0.80)):
        key = key_from_seed(777)
        k_z, k_run = split(key, 2)
        z0 = np.asarray(normal(k_z, [16, 1]))
        cfg = HmcConfig(step_size=eps, num_leapfrog_steps=1, jitter=False)
        summary = run_chains(g, cfg, z0, k_run, 4000)
        assert lo < summary.accept_rate < hi


def test_run_chains_zero_steps():
    g = GaussianTarget(2)
    key = key_from_seed(62)
    z0 = np.asarray(normal(key, [3, 2]))
    summary = run_chains(g, HmcConfig(0.1, 2), z0, key, 0)
    assert summary.accept_rate == 0.0
    np.testing.assert_array_equal(summary.final_batch.z, z0)
    with pytest.raises(ValueError, match="num_steps must be >= 0"):
        run_chains(g, HmcConfig(0.1, 2), z0, key, -1)


def test_one_iterations_chains_draw_pairwise_distinct_momenta(monkeypatch):
    # every chain starts at the same state under one step key: only the
    # chain index in the Philox counter tells their momenta apart
    g = GaussianTarget(4)
    key = key_from_seed(63)
    batch = ChainBatch.init(g, np.zeros((6, 4)))
    momenta = []
    leapfrog = sampler._leapfrog

    def recording_leapfrog(tgt, eps, num_steps, z, m, grad, inv_mass):
        momenta.append(m)
        return leapfrog(tgt, eps, num_steps, z, m, grad, inv_mass)

    monkeypatch.setattr(sampler, "_leapfrog", recording_leapfrog)
    cfg = HmcConfig(step_size=0.3, num_leapfrog_steps=3, jitter=False)
    _, out = hmc_step(g, cfg, batch, *split(key, 2))
    [m] = momenta
    assert len({row.tobytes() for row in m}) == 6
    assert len({row.tobytes() for row in out.proposal}) == 6


def test_estimate_diag_mass_recovers_scales():
    rng = np.random.default_rng(64)
    draws = rng.normal(size=(4000, 4, 2)) * np.array([1.0, 10.0])
    acc = diag.welford_init((4, 2))
    for t in range(4000):
        acc = diag.welford_update(acc, draws[t])
    mass = estimate_diag_mass(acc)
    assert mass[0] == pytest.approx(1.0, rel=0.2)
    assert mass[1] == pytest.approx(0.01, rel=0.2)


def test_estimate_diag_mass_floors_and_validates():
    acc = diag.welford_init((4, 2))
    for _ in range(20):
        acc = diag.welford_update(acc, np.zeros((4, 2)))  # zero variance
    mass = estimate_diag_mass(acc)
    np.testing.assert_array_equal(mass, np.full(2, 1e8))  # 1 / floor

    small = diag.welford_init((4, 2))
    for _ in range(5):
        small = diag.welford_update(small, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        estimate_diag_mass(small)


def test_adapt_step_size_updates():
    # harmonic mean of {0.5, 1, 1} is 0.75, below a 0.8 target: shrink
    hm = diag.harmonic_mean_acceptance([0.5, 1.0, 1.0])
    new = adapt_step_size(0.2, hm)
    assert new == pytest.approx(0.2 * np.exp(0.05 * (0.75 - 0.8)), rel=1e-12)
    assert new < 0.2

    # at the target the update is exactly neutral
    assert adapt_step_size(0.2, 0.8) == 0.2

    # one stuck chain dominates: 63 healthy chains cannot hold the step up
    ratios = np.full(64, np.log(0.9))
    ratios[17] = np.log(1e-6)
    hm = diag.harmonic_accept(ratios)
    assert hm == diag.harmonic_mean_acceptance(diag.accept_probs_from_ratios(ratios))
    assert hm < 1e-4
    assert adapt_step_size(0.2, hm) < 0.2 * np.exp(0.05 * (1e-4 - 0.8)) * 1.001

    with pytest.raises(ValueError):
        adapt_step_size(0.0, 0.5)


def test_divergent_proposal_rejects_and_keeps_cache():
    target, key = small_model(seed=66)
    z0 = 0.3 * np.asarray(normal(key, [4, target.dim]))
    batch = ChainBatch.init(target, z0)
    step_key, jitter_key = split(key, 2)
    cfg = HmcConfig(step_size=80.0, num_leapfrog_steps=4, jitter=False)
    new_batch, out = hmc_step(target, cfg, batch, step_key, jitter_key)
    assert not out.is_accepted.any()
    np.testing.assert_array_equal(out.log_accept_ratio, np.full(4, -np.inf))
    np.testing.assert_array_equal(new_batch.z, batch.z)
    check_cache(new_batch, target)  # rejected chains keep a valid cache


def test_accepted_step_keeps_cache_consistent():
    target, key = small_model(seed=67)
    z0 = 0.3 * np.asarray(normal(key, [4, target.dim]))
    batch = ChainBatch.init(target, z0)
    step_key, jitter_key = split(key, 2)
    cfg = HmcConfig(step_size=0.02, num_leapfrog_steps=5, jitter=False)
    new_batch, out = hmc_step(target, cfg, batch, step_key, jitter_key)
    assert out.is_accepted.any()
    check_cache(new_batch, target)


def test_accept_ratio_matches_the_energy_difference_in_double():
    """hmc_step's log accept ratio against the energy difference rebuilt
    through the public API: the step's momenta, leapfrog_step and log_prob."""
    target, key = small_model(seed=68)
    z0 = 0.4 * np.asarray(normal(key, [8, target.dim]))
    step_key, jk = split(key, 2)
    cfg = HmcConfig(step_size=0.03, num_leapfrog_steps=6, jitter=False)

    batch = ChainBatch.init(target, z0)
    _, out = hmc_step(target, cfg, batch, step_key, jk)
    m0, u = normal_uniform_each(step_key, 8, target.dim)
    z1, m1, value1, _ = leapfrog_step(target, 0.03, z0, m0, batch.grad, num_steps=6)
    h0 = 0.5 * (m0 * m0).sum(axis=1) - target.log_prob(z0)
    h1 = 0.5 * (m1 * m1).sum(axis=1) - value1
    np.testing.assert_array_equal(out.proposal, z1)
    np.testing.assert_allclose(out.log_accept_ratio, h0 - h1, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(out.is_accepted, np.log(u) < h0 - h1)


def test_lockstep_violation_is_raised():
    g = GaussianTarget(2)
    key = key_from_seed(70)
    batch = ChainBatch.init(g, np.zeros((3, 2)))
    step_key = split(key, 1)[0]
    cfg = HmcConfig(step_size=0.1, num_leapfrog_steps=4)

    with pytest.raises(LockstepViolationError, match="lengths differ"):
        hmc_step(g, cfg, batch, step_key, key, length_fn=lambda k: [3, 5, 3])

    # equal per-chain lengths are fine and land in the output
    _, out = hmc_step(g, cfg, batch, step_key, key, length_fn=lambda k: [4, 4, 4])
    assert out.num_leapfrog_used == 4
    assert isinstance(out.num_leapfrog_used, int)

    # an agreed length must still be a trajectory, and the mass must fit
    with pytest.raises(ValueError, match="trajectory length must be >= 1"):
        hmc_step(g, cfg, batch, step_key, key, length_fn=lambda k: [0])
    with pytest.raises(ValueError, match=r"mass_diag must have shape \(2,\)"):
        hmc_step(g, HmcConfig(0.1, 4, mass_diag=np.ones(3)), batch, step_key, key)


def test_no_threads_or_no_chains_is_rejected():
    g = GaussianTarget(2)
    key = key_from_seed(73)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        small_model(seed=73, threads=0)
    with pytest.raises(ValueError, match="no chains"):
        run_chains(g, HmcConfig(0.1, 2), np.zeros((0, 2)), key, 3)
    with pytest.raises(ValueError, match="no chains"):
        ChainBatch(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)))


def test_config_validation():
    with pytest.raises(ValueError):
        HmcConfig(step_size=-0.1, num_leapfrog_steps=4)
    with pytest.raises(ValueError):
        HmcConfig(step_size=float("nan"), num_leapfrog_steps=4)
    with pytest.raises(ValueError):
        HmcConfig(step_size=0.1, num_leapfrog_steps=0)
    with pytest.raises(ValueError):
        HmcConfig(step_size=0.1, num_leapfrog_steps=2, mass_diag=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        HmcConfig(step_size=0.1, num_leapfrog_steps=2, mass_diag=np.ones((2, 2)))


def test_chain_batch_validation():
    g = GaussianTarget(2)
    with pytest.raises(ValueError):
        ChainBatch.init(g, np.zeros(2))  # needs (chains, dim)
    with pytest.raises(ValueError, match="non-finite entries"):
        ChainBatch.init(g, np.array([[0.0, np.nan]]))
    target, _ = small_model(seed=71)
    dead = np.zeros((1, target.dim))
    dead[0, 0] = 1e3  # overflows the scale prior
    with pytest.raises(ValueError, match="non-finite log density"):
        ChainBatch.init(target, dead)


class LengthTraceSink(TraceSink):
    """A TraceSink that also keeps each iteration's trajectory length."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def record(self, out):
        super().record(out)
        self.lengths.append(out.num_leapfrog_used)


def test_hmc_step_rejects_a_batch_of_the_wrong_width_or_dtype():
    """A hand-built ChainBatch is input from outside the loop, and the
    target's hook checks nothing, so hmc_step checks the batch's width and
    dtype once per iteration."""
    target, key = small_model(seed=74)
    t32 = ModelTarget(target.dataset, precision="single")
    step_key, jitter_key = split(key, 2)
    config = HmcConfig(0.05, 3)
    z = 0.1 * np.asarray(normal(key, [3, target.dim]))
    value, grad = target.value_and_grad(z)
    with pytest.raises(ValueError, match=f"must be \\(C, {t32.dim}\\) float32"):
        hmc_step(t32, config, ChainBatch(z, value, grad), step_key, jitter_key)
    for width in (target.dim - 2, target.dim + 2):
        wrong = ChainBatch(np.zeros((3, width)), value, np.zeros((3, width)))
        with pytest.raises(ValueError, match=f"must be \\(C, {target.dim}\\) float64"):
            hmc_step(target, config, wrong, step_key, jitter_key)
    batch, _ = hmc_step(t32, config, ChainBatch.init(t32, z), step_key, jitter_key)
    assert batch.z.dtype == np.float32


@pytest.mark.parametrize("make_target, step_size", [
    (lambda: small_model(seed=75)[0], 0.1),
    (lambda: small_model(seed=75)[0], 3.0),  # some proposals go non-finite
    (lambda: ModelTarget(small_model(seed=75)[0].dataset, "single", threads=2), 0.1),
    (lambda: GaussianTarget(5), 0.5),
])
def test_the_loop_evaluates_only_through_the_hook(monkeypatch, make_target, step_size):
    """After ChainBatch.init, run_chains makes no call to the checked API
    (log_prob, grad, value_and_grad, log_prob_ratio): one call to the hook
    per leapfrog step, with the value only at each trajectory's endpoint."""
    target = make_target()
    key = key_from_seed(75)
    batch = ChainBatch.init(target, 0.1 * np.asarray(normal(key, [20, target.dim])))
    checked, value_flags = [], []
    for name in ("log_prob", "grad", "value_and_grad", "log_prob_ratio"):
        checked_call = getattr(Target, name)
        monkeypatch.setattr(Target, name, lambda self, *args, name=name, call=checked_call:
                            checked.append(name) or call(self, *args))
    evaluate = type(target).evaluate

    def counted(self, zb, value, grad):
        value_flags.append(value)
        assert grad
        return evaluate(self, zb, value, grad)

    monkeypatch.setattr(type(target), "evaluate", counted)
    sink = LengthTraceSink()
    run_chains(target, HmcConfig(step_size, 3), batch, key, 6, sink=sink)
    assert checked == []
    assert len(value_flags) == sum(sink.lengths) and value_flags.count(True) == 6
    assert np.isneginf(sink.log_accept_ratios()).any() == (step_size == 3.0)


def test_run_chains_traces_and_determinism():
    target, key = small_model(seed=72, rows=60, features=3)
    k_init, k_run = split(key, 2)
    z0 = 0.4 * np.asarray(normal(k_init, [20, target.dim]))
    cfg = HmcConfig(step_size=0.05, num_leapfrog_steps=4)

    sinks = []
    threaded, _ = small_model(seed=72, rows=60, features=3, threads=2)
    for t in (target, target, threaded):  # third run exercises the pool path
        sink = LengthTraceSink()
        summary = run_chains(t, cfg, z0.copy(), k_run, 50, sink=sink)
        assert summary.num_steps == 50 and summary.num_chains == 20
        assert summary.draws_per_second > 0
        sinks.append(sink)

    a, b, c = sinks
    assert a.z_trace().shape == (50, 20, target.dim)
    assert a.is_accepted().shape == (50, 20) and a.is_accepted().dtype == bool
    lengths = np.asarray(a.lengths)
    assert lengths.shape == (50,)
    assert lengths.min() >= 1 and lengths.max() <= 8  # jittered around base 4
    assert len(np.unique(lengths)) > 1

    np.testing.assert_array_equal(a.z_trace(), b.z_trace())
    np.testing.assert_array_equal(a.z_trace(), c.z_trace())  # threads invariant
    np.testing.assert_array_equal(a.log_accept_ratios(), c.log_accept_ratios())


@given(
    chains=st.integers(2, 20),
    steps=st.integers(8, 40),
    model=st.sampled_from(["gaussian", "regression"]),
    precision=st.sampled_from(["single", "double"]),
    step_size=st.floats(0.02, 0.3),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=25, deadline=None)
def test_sinks_agree_on_shared_statistics(chains, steps, model, precision, step_size, seed):
    key = key_from_seed(seed)
    if model == "gaussian":
        target = GaussianTarget(3, precision=precision)
    else:
        k_data, key = split(key, 2)
        target = ModelTarget(generate_synthetic(k_data, 60, 3, 0.5), precision=precision)
    k_init, k_run = split(key, 2)
    z0 = 0.4 * np.asarray(normal(k_init, [chains, target.dim]))
    cfg = HmcConfig(step_size=step_size, num_leapfrog_steps=4)

    trace, moments = TraceSink(), MomentsSink()
    run_chains(target, cfg, z0.copy(), k_run, steps, sink=trace)
    run_chains(target, cfg, z0.copy(), k_run, steps, sink=moments)

    try:
        rep_t = diag.report_from_trace(trace.z_trace(), trace.log_accept_ratios())
        rep_m = moments.report()
    except diag.DegenerateTraceError:
        reject()  # too few moves for R-hat: at large steps every proposal can be rejected
    # both retentions fold the same draws through one RunStatistics
    for field in ("esjd", "chees", "mean_accept_harmonic", "roundoff_flag_fraction"):
        assert getattr(rep_t, field) == getattr(rep_m, field), field
    assert rep_m.ess is None and rep_m.ess_tau is None
    assert rep_t.ess is not None


def test_warmup_adapt_shapes_and_validation():
    g = GaussianTarget(3)
    key = key_from_seed(74)
    k_init, k_warm = split(key, 2)
    z0 = np.asarray(normal(k_init, [8, 3]))
    cfg = HmcConfig(step_size=0.4, num_leapfrog_steps=4)
    adapted, batch, info = warmup_adapt(g, cfg, z0, k_warm, 200)
    assert adapted.mass_diag is not None and adapted.mass_diag.shape == (3,)
    assert adapted.step_size > 0
    assert sum(info.phase_steps) == 200
    assert info.phase_steps[0] == info.phase_steps[2] == 30  # 15% each side
    assert batch.num_chains == 8
    # a standard normal needs no preconditioning: the fitted mass is near 1
    assert np.all((adapted.mass_diag > 0.5) & (adapted.mass_diag < 2.0))
    assert 0.4 < info.final_harmonic_accept <= 1.0

    with pytest.raises(ValueError):
        warmup_adapt(g, cfg, z0, k_warm, 10)
    with pytest.raises(ValueError):
        warmup_adapt(g, HmcConfig(0.0, 4), z0, k_warm, 100)
