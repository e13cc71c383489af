"""Fast paths checked bit for bit against the slow paths they replace:
gradient-only evaluation, gradient-only interior leapfrog steps, the accept
ratio as one difference of float64 energies, and ChEES streamed under
moments-only retention. The fused Bernoulli term and residual are checked
against scipy to stated bounds."""

import json
import math

import numpy as np
import pytest
from scipy.special import expit, log_expit

import manychain.sampler as sampler
from manychain import model
from manychain.cli import main
from manychain.model import (
    Dataset,
    GaussianTarget,
    ModelTarget,
    _bernoulli_terms,
    _sign_residuals,
    generate_synthetic,
)
from manychain.prng import key_from_seed, normal, split
from manychain.sampler import ChainBatch, HmcConfig, hmc_step
from testkit import check_cache


def small_model(seed, precision="double", rows=80, features=4):
    k_data, k_rest = split(key_from_seed(seed), 2)
    ds = generate_synthetic(k_data, rows, features, 0.5)
    return ModelTarget(ds, precision=precision), k_rest


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class CountingTarget:
    """Wraps a target and counts its evaluations: calls to the hook by their
    (value, grad) flags, and calls to the checked API by name."""

    CHECKED = ("log_prob", "grad", "value_and_grad", "log_prob_ratio")

    def __init__(self, target):
        self._target = target
        self.calls = dict.fromkeys(self.CHECKED, 0)

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if name not in self.CHECKED:
            return attr

        def counted(*args):
            self.calls[name] += 1
            return attr(*args)

        return counted

    def evaluate(self, zb, value, grad):
        flags = ("evaluate", value, grad)
        self.calls[flags] = self.calls.get(flags, 0) + 1
        return self._target.evaluate(zb, value, grad)


@pytest.mark.parametrize("precision", ["double", "single"])
def test_model_grad_is_bitwise_value_and_grad(precision):
    target, key = small_model(31, precision)
    batch = 0.7 * np.asarray(normal(key, [5, target.dim]))
    overflow = batch.copy()
    overflow[1, 0] = 1e3  # tau = exp(1000) overflows in both precisions
    overflow[3, 2] = 1e3  # and so does one lamb
    for z in (batch[0], batch, overflow):
        assert same_bits(target.grad(z), target.value_and_grad(z)[1])
    # the overflowed states really are dead, so the masking has work to do
    assert np.isneginf(target.value_and_grad(overflow)[0][[1, 3]]).all()


@pytest.mark.parametrize("precision", ["double", "single"])
def test_gaussian_grad_is_bitwise_value_and_grad(precision):
    g = GaussianTarget(3, precision=precision)
    z = np.asarray(normal(key_from_seed(32), [4, 3]))
    for state in (z[0], z):
        assert same_bits(g.grad(state), g.value_and_grad(state)[1])


@pytest.mark.parametrize("make_target", [
    lambda: small_model(33)[0],
    lambda: small_model(33, "single")[0],
    lambda: GaussianTarget(9),
])
def test_values_are_float64_and_ratio_is_their_difference(make_target):
    """At either precision the value is a float64 total, value_and_grad's
    is bitwise log_prob's, and log_prob_ratio is bitwise the difference of
    the two states' values."""
    target = make_target()
    k_a, k_b = split(key_from_seed(34), 2)
    za = 0.5 * np.asarray(normal(k_a, [6, target.dim]))
    zb = 0.5 * np.asarray(normal(k_b, [6, target.dim]))
    va, ga = target.value_and_grad(za)
    assert va.dtype == np.float64 and ga.dtype == target.dtype
    assert same_bits(va, target.log_prob(za))
    assert same_bits(target.log_prob_ratio(za, zb), va - target.log_prob(zb))


@pytest.mark.parametrize("precision", ["double", "single"])
def test_log_prob_ratio_dead_state_rules(precision):
    target, key = small_model(38, precision)
    d = target.num_features
    z = (0.3 * np.asarray(normal(key, [1, target.dim]))).astype(target.dtype)
    dead = z.copy()
    dead[0, 1] = 1e3  # lamb_0 overflows against beta_0 = 0: inf * 0 makes the
    dead[0, 1 + d] = 0.0  # logits, and so the likelihood terms, NaN
    with np.errstate(over="ignore", invalid="ignore"):
        margins = target._xs @ (np.exp(dead[0, 0] + dead[0, 1 : 1 + d]) * dead[0, 1 + d :])
    assert np.isnan(margins).any()
    assert np.isneginf(target.log_prob(dead)[0])
    assert target.log_prob_ratio(dead, z)[0] == -np.inf
    assert target.log_prob_ratio(z, dead)[0] == np.inf
    assert target.log_prob_ratio(dead, dead)[0] == -np.inf


def reference_leapfrog(target, eps, num_steps, z, m, grad, inv_mass):
    """The integrator before gradient-only steps: value_and_grad at every
    step, with dead rows evaluated at the origin and masked."""
    dtype = z.dtype.type
    half = eps * dtype(0.5)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for _ in range(num_steps):
            m = m + half * grad
            z = z + eps * (m if inv_mass is None else m * inv_mass)
            finite = np.all(np.isfinite(z), axis=1)
            value, grad = target.value_and_grad(np.where(finite[:, None], z, dtype(0.0)))
            value = np.where(finite, value, dtype(-np.inf))
            grad = np.where(finite[:, None], grad, dtype(np.nan))
            m = m + half * grad
    return z, m, value, grad


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("with_mass", [False, True])
def test_trajectory_matches_value_and_grad_at_every_step(precision, with_mass):
    base, key = small_model(35, precision)
    target = CountingTarget(base)
    dtype = base.dtype
    k_z, k_m = split(key, 2)
    z0 = (0.4 * np.asarray(normal(k_z, [5, base.dim]))).astype(dtype)
    m0 = np.asarray(normal(k_m, [5, base.dim])).astype(dtype)
    m0[2, 0] = 1e4  # chain 2 drifts its scale to exp(1000), then goes non-finite
    m0[4, -1] = np.inf  # chain 4 has one non-finite coordinate; the whole row is masked
    _, g0 = base.value_and_grad(z0)
    inv_mass = None
    if with_mass:
        inv_mass = (1.0 / np.linspace(0.5, 2.0, base.dim)).astype(dtype)
    eps, steps = dtype(0.1), 7

    got = sampler._leapfrog(target, eps, steps, z0, m0, g0, inv_mass)
    want = reference_leapfrog(base, eps, steps, z0, m0, g0, inv_mass)
    for a, b in zip(got, want):
        assert same_bits(a, b)
    # gradient-only hook calls inside, one with the value at the endpoint,
    # and no checked call
    assert target.calls == {("evaluate", False, True): steps - 1, ("evaluate", True, True): 1,
                            "log_prob": 0, "grad": 0, "value_and_grad": 0, "log_prob_ratio": 0}
    z1, value1 = got[0], got[2]
    for dead in (2, 4):
        assert not np.all(np.isfinite(z1[dead])) and np.isneginf(value1[dead])
    assert np.all(np.isfinite(np.delete(z1, [2, 4], axis=0)))


def test_accept_ratio_is_the_float64_energy_difference(monkeypatch):
    """Each float32 log accept ratio is bit for bit the difference of the
    two float64 energies, kinetic energy minus log_prob, over iterations
    with accepts, rejections and cached values carried between them."""
    target, key = small_model(36, "single", rows=120)
    chains = 40  # two 32-row float32 BLAS blocks: 32 + 8
    k_init, k_run = split(key, 2)
    z_init = 0.4 * np.asarray(normal(k_init, [chains, target.dim]))
    batch = ChainBatch.init(target, z_init)
    cfg = HmcConfig(step_size=0.25, num_leapfrog_steps=3, jitter=True)

    calls = []
    leapfrog = sampler._leapfrog

    def recording_leapfrog(tgt, eps, num_steps, z, m, grad, inv_mass):
        out = leapfrog(tgt, eps, num_steps, z, m, grad, inv_mass)
        calls.append((z, m, out[0], out[1]))
        return out

    monkeypatch.setattr(sampler, "_leapfrog", recording_leapfrog)
    steps, jitters = split(k_run, 2)
    accepted = rejected = 0
    for step_key, jitter_key in zip(split(steps, 12), split(jitters, 12)):
        calls.clear()
        batch, out = hmc_step(target, cfg, batch, step_key, jitter_key)
        [(z0, m0, z1, m1)] = calls  # one call integrates the whole batch
        ok = np.all(np.isfinite(z1), axis=1)
        value1 = np.where(ok, target.log_prob(np.where(ok[:, None], z1, z0)), -np.inf)
        with np.errstate(invalid="ignore", over="ignore"):
            r = ((0.5 * m0 * m0).sum(axis=1) - target.log_prob(z0)) - (
                (0.5 * m1 * m1).sum(axis=1) - value1)
        expected = np.where(np.isfinite(r), r, -np.inf)
        assert same_bits(out.log_accept_ratio, expected)
        check_cache(batch, target)
        accepted += int(out.is_accepted.sum())
        rejected += int((~out.is_accepted).sum())
    assert accepted > 0 and rejected > 0


def test_check_cache_catches_a_stale_value():
    target, key = small_model(37)
    z = 0.3 * np.asarray(normal(key, [4, target.dim]))
    value, grad = target.value_and_grad(z)
    check_cache(ChainBatch(z, value, grad), target)
    value = value.copy()
    value[1] += 1e-3
    with pytest.raises(AssertionError, match="out of sync"):
        check_cache(ChainBatch(z, value, grad), target)


def test_chees_agrees_between_retentions(tmp_path):
    """Full and moments-only retention write the same bits for every
    statistic taken over transitions."""
    args = ["sample", "gaussian:10", "--chains", "16", "--draws", "400",
            "--warmup", "100", "--seed", "2"]
    reports = {}
    for retention in ("full", "moments-only"):
        out = tmp_path / retention
        assert main(args + ["--retention", retention, "--output", str(out)]) == 0
        reports[retention] = json.loads((out / "diagnostics.json").read_text())
    for field in ("esjd", "chees", "mean_accept_harmonic", "roundoff_flag_fraction"):
        assert reports["moments-only"][field] == reports["full"][field], field


# Logits at the edges of the fused observation term: 0, tiny, moderate,
# where float32 exp(m) overflows (88 vs 89), where float64 exp(m) overflows
# (709.78), far past both, and infinite.
FUSED_LOGITS = np.array(
    [0.0, 1e-8, 1.0, 17.0, 30.0, 88.0, 89.0, 700.0, 710.0, 1e4, np.inf]
)
FUSED_LOGITS = np.concatenate([-FUSED_LOGITS[::-1], FUSED_LOGITS])
# Bound on the observation terms against float64 log_expit, in units of the
# working dtype's spacing at the reference. exp and log1p each round once;
# float32 exp is not correctly rounded, and at m = 1 the two errors add to
# 1.99 spacings (float64: 0), so float32 gets headroom for other SIMD paths.
FUSED_TERM_ULPS = {np.float64: 1.0, np.float32: 4.0}


@pytest.mark.parametrize("precision", ["double", "single"])
def test_fused_observation_terms_and_residuals_match_scipy(precision):
    """The fused term min(m, 0) - log1p(exp(-|m|)) is within FUSED_TERM_ULPS
    spacings of float64 log_expit(m), and the sign residual 1 / (1 + exp(m)) is,
    times sign, y - expit(logit) within one machine epsilon, at m = sign *
    logit for both labels."""
    dtype = np.float32 if precision == "single" else np.float64
    for y in (0.0, 1.0):
        sign = 2.0 * y - 1.0
        m = (sign * FUSED_LOGITS).astype(dtype)
        exact = m.astype(np.float64)  # the margins as the dtype holds them
        with np.errstate(over="ignore"):
            terms = _bernoulli_terms(m)
            resid = sign * _sign_residuals(m)
        assert terms.dtype == dtype and resid.dtype == dtype
        assert not np.isnan(terms).any()
        assert not (terms > 0).any()

        ref = log_expit(exact)
        np.testing.assert_array_equal(np.isinf(terms), np.isinf(ref))
        fin = np.isfinite(ref)
        spacing = np.spacing(np.abs(ref[fin]).astype(dtype)).astype(np.float64)
        ulps = np.abs(terms[fin].astype(np.float64) - ref[fin]) / spacing
        assert ulps.max() <= FUSED_TERM_ULPS[dtype], (y, m[fin][ulps.argmax()], ulps.max())

        ref_resid = y - expit(sign * exact)
        err = np.abs(resid.astype(np.float64) - ref_resid)
        assert err.max() <= np.finfo(dtype).eps, (y, m[err.argmax()], err.max())
        # the limits are exact: residual 0 at m = +inf, sign at m = -inf
        assert resid[m == np.inf] == 0.0 and resid[m == -np.inf] == sign


def edge_target(precision):
    """One feature whose values are the finite FUSED_LOGITS, once per label,
    so the state [0, 0, 1] (tau = lamb = beta = 1) has those logits exactly."""
    x = np.tile(FUSED_LOGITS[np.isfinite(FUSED_LOGITS)], 2)[:, None]
    y = np.repeat([0.0, 1.0], x.shape[0] // 2)
    return ModelTarget(Dataset(x, y), precision=precision)


@pytest.mark.parametrize("precision", ["double", "single"])
def test_fused_terms_at_extreme_states(precision):
    target = edge_target(precision)
    live = np.array([
        [0.0, 0.0, 1.0],  # logits = x
        [0.0, 0.0, -1.0],
        [0.0, 0.0, 40.0],  # margins up to 4e5: exp(m) overflows in both
        [0.0, 0.0, 0.0],  # every margin 0
        [-800.0, 0.0, 1.0],  # tau underflows to 0: every margin 0
        [0.0, 0.0, 1e-3],
    ], dtype=target.dtype)
    dead = np.array([
        [800.0, 0.0, 1.0],  # tau = exp(800) overflows in both precisions
        [0.0, 800.0, -1.0],  # and so does lamb
    ], dtype=target.dtype)
    states = np.concatenate([live, dead])
    value, grad = target.value_and_grad(states)
    n_live = len(live)

    assert np.isfinite(value[:n_live]).all() and np.isfinite(grad[:n_live]).all()
    assert np.isneginf(value[n_live:]).all()

    # the value at [0, 0, 1] is the float64 sum of the fused terms of sign * x
    # and the prior terms at tau = lamb = beta = 1, to the float64 sum's bound
    sign = 2.0 * target.dataset.y - 1.0
    m = (sign * target.dataset.x[:, 0]).astype(target.dtype)
    t_obs = _bernoulli_terms(m)
    assert not np.isnan(t_obs).any() and not (t_obs > 0).any()
    t_scale = target._gamma_const - target.dtype(model.GAMMA_RATE)  # a * 0 - r * exp(0)
    t_beta = target._normal_const - target.dtype(0.5)
    terms = np.concatenate([t_obs, [t_scale, t_scale, t_beta]]).astype(np.float64)
    assert abs(value[0] - math.fsum(terms)) <= len(terms) * 2.0**-53 * np.abs(terms).sum()

    assert same_bits(value, target.log_prob(states))
    assert same_bits(grad, target.grad(states))

    ratio = target.log_prob_ratio
    live0, dead0 = states[0], states[n_live]
    assert ratio(dead0, live0) == -np.inf
    assert ratio(live0, dead0) == np.inf
    assert ratio(dead0, dead0) == -np.inf
    assert np.isfinite(ratio(live, live[::-1])).all()
