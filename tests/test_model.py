"""Dataset handling and density/ratio correctness for the regression target."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from manychain.gradients import finite_difference_check
from manychain.model import (
    GAMMA_RATE,
    ConstrainedParams,
    Dataset,
    DatasetError,
    GaussianTarget,
    ModelTarget,
    Target,
    constrain,
    generate_synthetic,
    joint_log_prob,
    load_csv_dataset,
    _bernoulli_terms,
    replicate_dataset,
)
from manychain.prng import key_from_seed, normal, split
from testkit import grad_only

DATA_DIR = Path(__file__).parent / "data"

# Hand fixture: x = [[1, -2]], y = [1], tau = 0.5, lamb = (2, 0.25),
# beta = (1, -3). Coefficients are tau*lamb*beta = (1.0, -0.375), so the
# logit is 1*1.0 + (-2)*(-0.375) = 1.75. Log joint frozen from
# scipy.stats gamma/norm logpdfs plus -log1p(exp(-1.75)).
FIXTURE_X = np.array([[1.0, -2.0]])
FIXTURE_Y = np.array([1.0])
FIXTURE_PARAMS = (0.5, np.array([2.0, 0.25]), np.array([1.0, -3.0]))
FIXTURE_JOINT = -10.436769635901506
FIXTURE_LDJ = -1.3862943611198906  # log(0.5) + log(2) + log(0.25)


def fixture_target(precision="double"):
    return ModelTarget(Dataset(FIXTURE_X, FIXTURE_Y), precision=precision)


def fixture_z():
    tau, lamb, beta = FIXTURE_PARAMS
    return np.concatenate([[np.log(tau)], np.log(lamb), beta])


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_loader_on_committed_fixture():
    ds = load_csv_dataset(DATA_DIR / "small.csv")
    assert ds.num_rows == 32
    assert ds.num_features == 3
    assert set(np.unique(ds.y)) <= {0.0, 1.0}


def test_loader_standardizes(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(3.0, 5.0, size=(1000, 24))
    y = rng.integers(0, 2, size=1000)
    lines = [",".join(f"c{j}" for j in range(24)) + ",label"]
    for i in range(1000):
        lines.append(",".join(repr(float(v)) for v in x[i]) + f",{int(y[i])}")
    path = write_csv(tmp_path / "big.csv", "\n".join(lines) + "\n")

    ds = load_csv_dataset(path)
    assert ds.x.shape == (1000, 24)
    np.testing.assert_allclose(ds.x.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(ds.x.std(axis=0), 1.0, atol=1e-9)

    np.testing.assert_allclose(ds.x, (x - x.mean(axis=0)) / x.std(axis=0), rtol=0, atol=1e-12)


def test_loader_constant_column_becomes_zero(tmp_path):
    path = write_csv(tmp_path / "c.csv", "a,b,y\n7.0,1.0,0\n7.0,2.0,1\n7.0,3.0,0\n")
    ds = load_csv_dataset(path)
    np.testing.assert_array_equal(ds.x[:, 0], 0.0)
    assert ds.x[:, 1].std() > 0


def test_loader_error_positions(tmp_path):
    ragged = write_csv(tmp_path / "r.csv", "a,b,y\n1,2,0\n1,2\n")
    with pytest.raises(DatasetError, match="row 3"):
        load_csv_dataset(ragged)

    bad_cell = write_csv(tmp_path / "n.csv", "a,b,y\n1,2,0\n1,oops,1\n")
    with pytest.raises(DatasetError, match=r"row 3, column 2"):
        load_csv_dataset(bad_cell)

    bad_label = write_csv(tmp_path / "l.csv", "a,b,y\n1,2,2\n")
    with pytest.raises(DatasetError, match="label"):
        load_csv_dataset(bad_label)

    nonfinite = write_csv(tmp_path / "f.csv", "a,b,y\n1,inf,0\n")
    with pytest.raises(DatasetError, match="row 2"):
        load_csv_dataset(nonfinite)


def test_loader_structural_errors(tmp_path):
    empty = write_csv(tmp_path / "e.csv", "")
    with pytest.raises(DatasetError, match="empty"):
        load_csv_dataset(empty)

    header_only = write_csv(tmp_path / "h.csv", "a,b,y\n")
    with pytest.raises(DatasetError, match="no data rows"):
        load_csv_dataset(header_only)

    one_col = write_csv(tmp_path / "o.csv", "y\n0\n1\n")
    with pytest.raises(DatasetError, match="at least one feature"):
        load_csv_dataset(one_col)

    with pytest.raises(DatasetError, match="cannot open"):
        load_csv_dataset(tmp_path / "missing.csv")


def test_dataset_validation():
    with pytest.raises(DatasetError):
        Dataset(np.zeros(3), np.zeros(3))  # x must be 2-D
    with pytest.raises(DatasetError):
        Dataset(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(DatasetError):
        Dataset(np.zeros((3, 2)), np.array([0.0, 0.5, 1.0]))
    with pytest.raises(DatasetError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]))


def test_generate_synthetic():
    key = key_from_seed(2024)
    ds = generate_synthetic(key, 1000, 24, 0.25)
    assert ds.x.shape == (1000, 24)
    assert set(np.unique(ds.y)) <= {0.0, 1.0}
    assert ds.true_coef is not None
    nz = ds.true_coef[ds.true_coef != 0.0]
    assert nz.size == 6  # ceil(0.25 * 24)
    assert set(np.unique(np.abs(nz))) == {2.0}

    again = generate_synthetic(key, 1000, 24, 0.25)
    np.testing.assert_array_equal(ds.x, again.x)
    np.testing.assert_array_equal(ds.y, again.y)
    np.testing.assert_array_equal(ds.true_coef, again.true_coef)

    other = generate_synthetic(key_from_seed(2025), 1000, 24, 0.25)
    assert not np.array_equal(ds.x, other.x)

    with pytest.raises(ValueError):
        generate_synthetic(key, 0, 4, 0.5)
    with pytest.raises(ValueError):
        generate_synthetic(key, 10, 4, 1.5)


def test_replicate_dataset():
    ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([0.0, 1.0, 1.0]))
    rep = replicate_dataset(ds, 3)
    assert rep.num_rows == 9
    np.testing.assert_array_equal(rep.x[:3], ds.x)
    np.testing.assert_array_equal(rep.x[3:6], ds.x)
    np.testing.assert_array_equal(rep.y, np.tile(ds.y, 3))
    with pytest.raises(ValueError):
        replicate_dataset(ds, 0)


def test_joint_log_prob_matches_scipy_and_frozen_value():
    target = fixture_target()
    tau, lamb, beta = FIXTURE_PARAMS
    got = float(joint_log_prob(target, ConstrainedParams(tau, lamb, beta)))

    # live oracle from scipy distributions (shape 0.5, rate 0.5 => scale 2)
    want = float(stats.gamma.logpdf(tau, a=0.5, scale=2.0))
    want += float(stats.gamma.logpdf(lamb, a=0.5, scale=2.0).sum())
    want += float(stats.norm.logpdf(beta).sum())
    want += float(-np.logaddexp(0.0, -1.75))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(FIXTURE_JOINT, abs=1e-12)


def test_joint_rejects_nonpositive_scales():
    target = fixture_target()
    tau, lamb, beta = FIXTURE_PARAMS
    with pytest.raises(ValueError):
        joint_log_prob(target, ConstrainedParams(0.0, lamb, beta))
    with pytest.raises(ValueError):
        joint_log_prob(target, ConstrainedParams(tau, np.array([1.0, -0.1]), beta))


def test_constrain_round_trip():
    z = fixture_z()
    params, ldj = constrain(z)
    tau, lamb, beta = FIXTURE_PARAMS
    assert params.tau == pytest.approx(tau, rel=1e-12)
    np.testing.assert_allclose(params.lamb, lamb, rtol=1e-12)
    np.testing.assert_array_equal(params.beta, beta)
    assert ldj == pytest.approx(FIXTURE_LDJ, abs=1e-12)

    batch = np.stack([z, 2.0 * z])
    bparams, bldj = constrain(batch)
    assert bparams.tau.shape == (2,)
    assert bldj.shape == (2,)
    assert bparams.tau[0] == pytest.approx(tau, rel=1e-12)

    with pytest.raises(ValueError):
        constrain(np.zeros(4))  # even dimension has no (tau, lamb, beta) split


def test_unconstrained_density_is_joint_plus_jacobian():
    key = key_from_seed(77)
    ds = generate_synthetic(key, 50, 4, 0.5)
    target = ModelTarget(ds)
    z = 0.8 * np.asarray(normal(split(key, 2)[1], [100, target.dim]))
    params, ldj = constrain(z)
    want = joint_log_prob(target, params) + ldj
    got = target.log_prob(z)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_fixture_unconstrained_value():
    target = fixture_target()
    got = float(target.log_prob(fixture_z()))
    assert got == pytest.approx(FIXTURE_JOINT + FIXTURE_LDJ, abs=1e-10)


@pytest.mark.parametrize("precision", ["double", "single"])
def test_transposed_design_copy_is_row_major_and_exact(precision):
    target = ModelTarget(generate_synthetic(key_from_seed(41), 200, 40, 0.25), precision)
    xs_t = target._xs_t
    assert xs_t.flags.c_contiguous and xs_t.dtype == target.dtype
    assert xs_t.shape == (40, 200)
    np.testing.assert_array_equal(xs_t, target._xs.T)


@pytest.mark.parametrize("features", [32, 40, 64])
def test_one_state_at_many_features(features):
    """One state at a time at 32 or more features, where a one-row product
    rounds differently from one operand layout to another; there, as
    everywhere, the gradient-only evaluation and log_prob are bitwise
    value_and_grad's, the density is the joint plus its Jacobian and the
    gradient is the finite differences'."""
    k_data, k_states = split(key_from_seed(features), 2)
    ds = generate_synthetic(k_data, 200, features, 0.25)
    states = 0.8 * np.asarray(normal(k_states, [4, 1 + 2 * features]))
    for precision in ("double", "single"):
        target = ModelTarget(ds, precision)
        for z in states.astype(target.dtype):
            for zz in (z, z[None, :]):
                value, grad = target.value_and_grad(zz)
                assert np.asarray(grad_only(target, zz)).tobytes() == np.asarray(grad).tobytes()
                assert np.asarray(target.log_prob(zz)).tobytes() == np.asarray(value).tobytes()
    target = ModelTarget(ds)
    params, ldj = constrain(states)
    want = joint_log_prob(target, params) + ldj
    got = np.array([target.log_prob(z) for z in states])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    worst = max(finite_difference_check(target, z) for z in states)
    assert worst < 1e-5


@pytest.mark.parametrize("precision", ["double", "single"])
def test_self_ratio_is_exactly_zero(precision):
    target = fixture_target(precision)
    z = np.asarray(fixture_z(), dtype=target.dtype)
    r = target.log_prob_ratio(z, z)
    assert float(r) == 0.0

    batch = np.stack([z, z + target.dtype(0.5)])
    rb = target.log_prob_ratio(batch, batch)
    np.testing.assert_array_equal(rb, np.zeros(2, dtype=target.dtype))


def test_ratio_matches_naive_difference_in_double():
    key = key_from_seed(31)
    ds = generate_synthetic(key, 120, 5, 0.4)
    target = ModelTarget(ds)
    k1, k2 = split(key, 2)
    za = 0.7 * np.asarray(normal(k1, [8, target.dim]))
    zb = 0.7 * np.asarray(normal(k2, [8, target.dim]))
    naive = target.log_prob(za) - target.log_prob(zb)
    np.testing.assert_allclose(target.log_prob_ratio(za, zb), naive, rtol=0, atol=1e-9)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_ratio_antisymmetry_is_bitwise(seed):
    # per-term differencing makes r(a,b) the exact IEEE negation of r(b,a)
    key = key_from_seed(seed)
    target = fixture_target()
    k1, k2 = split(key, 2)
    za = np.asarray(normal(k1, [target.dim]))
    zb = np.asarray(normal(k2, [target.dim]))
    fwd = float(target.log_prob_ratio(za, zb))
    rev = float(target.log_prob_ratio(zb, za))
    assert fwd == -rev


@pytest.mark.parametrize("precision", ["double", "single"])
def test_overflowed_scale_is_dead_not_nan(precision):
    target = fixture_target(precision)
    z = fixture_z().astype(target.dtype)
    dead = z.copy()
    dead[0] = 1e3  # exp overflows at both widths
    assert target.log_prob(dead) == -np.inf
    assert np.isfinite(target.log_prob(z))

    # ratio direction conventions: into a dead state -inf, out of one +inf
    assert target.log_prob_ratio(dead, z) == -np.inf
    assert target.log_prob_ratio(z, dead) == np.inf
    r = target.log_prob_ratio(dead, dead)
    assert r == -np.inf  # staying dead never turns into NaN


def test_rejects_nonfinite_state():
    # the state checks are Target's, so both targets raise the same errors
    z = fixture_z()
    bad = z.copy()
    bad[2] = np.nan
    for target in (fixture_target(), GaussianTarget(5)):
        assert isinstance(target, Target)
        for evaluate in (target.log_prob, target.value_and_grad):
            with pytest.raises(ValueError, match="non-finite entries"):
                evaluate(bad)
            with pytest.raises(ValueError, match="state must have 5 entries, got 4"):
                evaluate(z[:4])
            with pytest.raises(ValueError, match="1- or 2-dimensional"):
                evaluate(z[None, None, :])
        with pytest.raises(ValueError, match="non-finite entries"):
            target.log_prob_ratio(z, bad)
        with pytest.raises(ValueError, match="state shapes differ"):
            target.log_prob_ratio(np.stack([z, z]), z)


def test_zero_design_matrix_prior_monotonic_in_beta():
    ds = Dataset(np.zeros((10, 2)), np.zeros(10))
    target = ModelTarget(ds)
    lp = []
    for b in (0.0, 0.5, 1.0, 2.0):
        z = np.array([0.0, 0.0, 0.0, b, b])
        lp.append(float(target.log_prob(z)))
    assert lp == sorted(lp, reverse=True)


def test_param_names_layout():
    ds = Dataset(np.zeros((2, 3)), np.zeros(2))
    target = ModelTarget(ds)
    names = target.param_names()
    assert len(names) == target.dim == 7
    assert names[0] == "u_tau"
    assert names[1:4] == ["u_lamb_0", "u_lamb_1", "u_lamb_2"]
    assert names[4:] == ["beta_0", "beta_1", "beta_2"]


def test_target_config_validation():
    ds = Dataset(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ValueError, match="precision must be"):
        ModelTarget(ds, precision="half")
    with pytest.raises(ValueError, match="precision must be"):
        GaussianTarget(3, precision="half")
    with pytest.raises(ValueError):
        GaussianTarget(0)


def test_replicated_dataset_ratio_beats_naive_in_single():
    """Past |log density| ~ 2^24 the difference of two float32-accumulated
    totals quantizes away, while the difference of the float32 target's
    float64-accumulated totals tracks the float64 oracle.

    Scales are pinned at u = 0 (exp32(0) is exact) and the perturbation is a
    power of two, so both widths evaluate identical states and the comparison
    isolates accumulation error.
    """
    key = key_from_seed(404)
    base = generate_synthetic(key, 180_000, 6, 0.5)
    scaled = Dataset(base.x * 60.0, base.y, true_coef=base.true_coef)
    rep = replicate_dataset(scaled, 2)
    t64 = ModelTarget(rep, precision="double")
    t32 = ModelTarget(rep, precision="single")

    sign = np.sign(rep.true_coef)
    beta = np.where(sign != 0, -0.625 * sign, 0.25)
    z_old = np.concatenate([np.zeros(7), beta])
    z_new = z_old.copy()
    j = int(np.flatnonzero(rep.true_coef > 0)[0])
    z_new[7 + j] += 2.0**-23

    assert abs(float(t64.log_prob(z_old))) > 2**24

    r64 = float(t64.log_prob_ratio(z_new, z_old))
    assert 0.5 < r64 < 1.5
    r32 = float(t32.log_prob_ratio(z_new, z_old))
    assert abs(r32 - r64) < 1e-2
    params, ldj = constrain(np.stack([z_new, z_old]))
    total32 = joint_log_prob(t32, params) + ldj.astype(np.float32)
    assert total32.dtype == np.float32
    naive32 = float(total32[0] - total32[1])
    assert abs(naive32 - r64) > 0.4


def test_float32_value_is_the_float64_sum_of_its_float32_terms():
    """Past 2^24, a float32 target's log_prob is within the float64 sum's
    error bound, n * 2^-53 * sum |t|, of the exact (math.fsum) sum of the
    same float32 terms, while their float32 sum is off by more. One feature
    and u = 0 make every margin a single float32 product, so the reference
    terms are the target's own, whatever the blocks' gemm order."""
    key = key_from_seed(405)
    base = generate_synthetic(key, 10_000, 1, 1.0)
    rep = replicate_dataset(Dataset(base.x * 1000.0, base.y, true_coef=base.true_coef), 4)
    t32 = ModelTarget(rep, precision="single")
    sign = np.sign(rep.true_coef[0])
    states = np.zeros((3, 3), dtype=np.float32)
    states[:, 2] = -sign * np.array([1.0, 0.875, 0.75])  # leaning against the data
    got = t32.log_prob(states)
    assert got.dtype == np.float64 and np.all(np.abs(got) > 2**24)

    g, half = t32._gamma_const, np.float32(0.5)
    for z, value in zip(states, got):
        t_obs = _bernoulli_terms(t32._xs[:, 0] * z[2])
        t_prior = [g - np.float32(GAMMA_RATE)] * 2 + [t32._normal_const - half * z[2] * z[2]]
        terms = np.concatenate([t_obs, t_prior]).astype(np.float64)
        exact = math.fsum(terms)
        bound = len(terms) * 2.0**-53 * np.abs(terms).sum()
        assert abs(value - exact) <= bound
        assert abs(float(terms.astype(np.float32).sum(dtype=np.float32)) - exact) > bound


def test_gaussian_target_density_and_ratio():
    g = GaussianTarget(3)
    z = np.array([1.0, -2.0, 0.5])
    want = float(stats.norm.logpdf(z).sum())
    assert float(g.log_prob(z)) == pytest.approx(want, abs=1e-12)
    zero = np.zeros(3)
    assert float(g.log_prob_ratio(z, zero)) == pytest.approx(
        float(g.log_prob(z) - g.log_prob(zero)), abs=1e-12
    )
    assert float(g.log_prob_ratio(z, z)) == 0.0
