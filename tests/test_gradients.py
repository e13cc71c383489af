"""Analytic gradients vs independent numerical oracles."""

import warnings

import numpy as np
import pytest

from manychain.gradients import finite_difference_check
from manychain.model import Dataset, GaussianTarget, ModelTarget, generate_synthetic
from manychain.prng import key_from_seed, normal, split


def test_gaussian_gradient_is_negative_state():
    g = GaussianTarget(2)
    z = np.array([1.0, -2.0])
    value, grad = g.value_and_grad(z)
    np.testing.assert_array_equal(grad, np.array([-1.0, 2.0]))
    assert float(value) == float(g.log_prob(z))


def test_value_is_bitwise_log_prob():
    key = key_from_seed(3)
    ds = generate_synthetic(key, 150, 5, 0.4)
    target = ModelTarget(ds)
    z = np.asarray(normal(split(key, 2)[1], [16, target.dim]))
    value, _ = target.value_and_grad(z)
    np.testing.assert_array_equal(value, target.log_prob(z))


def test_finite_difference_gaussian():
    # central differences are truncation-free on a quadratic, so a wide step
    # is strictly better: all that remains is rounding of the density values
    key = key_from_seed(8)
    g = GaussianTarget(10)
    worst = 0.0
    for i in range(20):
        z = np.asarray(normal(split(key, 20)[i], [10]))
        worst = max(worst, finite_difference_check(g, z, h=1e-2))
    assert worst < 1e-8


def test_finite_difference_sparse_regression():
    key = key_from_seed(9)
    k_data, k_states = split(key, 2)
    ds = generate_synthetic(k_data, 200, 6, 0.5)
    target = ModelTarget(ds)
    states = 0.8 * np.asarray(normal(k_states, [20, target.dim]))
    worst = 0.0
    for i in range(20):
        worst = max(worst, finite_difference_check(target, states[i]))
    assert worst < 1e-5


def test_finite_difference_rejects_bad_inputs():
    g = GaussianTarget(3)
    with pytest.raises(ValueError):
        finite_difference_check(g, np.zeros(3), h=0.0)
    with pytest.raises(ValueError):
        finite_difference_check(g, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        finite_difference_check(g, np.array([0.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        finite_difference_check(GaussianTarget(3, precision="single"), np.zeros(3))


def test_non_finite_derivative_is_an_infinite_error():
    # a step so wide that both probes overflow gives a NaN numeric
    # derivative, which must fail the check rather than count as agreement
    g = GaussianTarget(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        worst = finite_difference_check(g, np.array([0.5, -1.0, 2.0]), h=1e308)
    assert worst == np.inf

    class InfGradient(GaussianTarget):
        def value_and_grad(self, z):
            value, grad = super().value_and_grad(z)
            return value, np.full_like(grad, np.inf)

    assert finite_difference_check(InfGradient(2), np.array([0.3, 0.1])) == np.inf


def test_gradient_line_integral_recovers_density_change():
    """Simpson quadrature of grad . dz along a segment must reproduce the
    log-density difference between the endpoints. This catches any term the
    per-coordinate finite-difference probe could miss through cancellation."""
    key = key_from_seed(12)
    k_data, k_a, k_b = split(key, 3)
    ds = generate_synthetic(k_data, 80, 4, 0.5)
    target = ModelTarget(ds)
    za = 0.6 * np.asarray(normal(k_a, [target.dim]))
    zb = 0.6 * np.asarray(normal(k_b, [target.dim]))

    n_panels = 10_000
    t = np.linspace(0.0, 1.0, 2 * n_panels + 1)
    points = za[None, :] + t[:, None] * (zb - za)[None, :]
    _, grads = target.value_and_grad(points)
    along = grads @ (zb - za)
    weights = np.ones_like(t)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = float((weights * along).sum() * (t[1] - t[0]) / 3.0)

    diff = float(target.log_prob(zb) - target.log_prob(za))
    assert integral == pytest.approx(diff, rel=1e-6)


def test_zero_design_gradient_is_pure_prior():
    # with x = 0 the likelihood is flat, so d/dbeta is exactly -beta
    ds = Dataset(np.zeros((10, 2)), np.zeros(10))
    target = ModelTarget(ds)
    z = np.array([0.1, -0.2, 0.3, 1.5, -2.5])
    _, grad = target.value_and_grad(z)
    np.testing.assert_array_equal(grad[3:], np.array([-1.5, 2.5]))
