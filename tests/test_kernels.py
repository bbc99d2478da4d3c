"""Kernel constants checked against direct quadrature."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tvacov.errors import ConfigurationError
from tvacov.kernels import Kernel, epanechnikov


def test_epanechnikov_pointwise_values():
    k = epanechnikov()
    u = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.7])
    expected = np.array([0.0, 0.0, 0.5625, 0.75, 0.5625, 0.0, 0.0])
    assert_allclose(k(u), expected, rtol=0, atol=0)


def test_epanechnikov_matches_closed_form_bitwise():
    # the in-place evaluation performs the closed form's operations in order
    k = epanechnikov()
    u = np.random.default_rng(3).uniform(-1.6, 1.6, size=(37, 41))
    assert_array_equal(k(u), 0.75 * np.maximum(0.0, 1.0 - u * u))
    assert k(0.5) == 0.5625 and k(-1.5) == 0.0


def test_constants_match_quadrature():
    k = epanechnikov()
    assert_allclose(k.moment(0), 1.0, atol=1e-13)
    assert_allclose(k.moment(1), 0.0, atol=1e-13)
    assert_allclose(k.moment(2), k.mu2, atol=1e-13)
    assert_allclose(k.sq_moment(0), k.phi0, atol=1e-13)


def test_derivative_roughness_matches_quadrature():
    k = epanechnikov()
    x, w = np.polynomial.legendre.leggauss(64)
    assert_allclose(float(np.sum(w * k.deriv(x) ** 2)), k.roughness,
                    atol=1e-13)


def test_derivative_matches_finite_difference():
    k = epanechnikov()
    u = np.linspace(-0.95, 0.95, 39)
    eps = 1e-6
    fd = (k(u + eps) - k(u - eps)) / (2.0 * eps)
    assert_allclose(k.deriv(u), fd, atol=1e-8)


def test_compact_support():
    k = epanechnikov()
    u = np.array([1.0, 1.0001, 5.0, -1.0, -8.0])
    assert np.all(k(u) == 0.0)
    assert np.all(k.deriv(u) == 0.0)


def test_nonpositive_constants_rejected():
    with pytest.raises(ConfigurationError):
        Kernel(name="bad", fn=lambda u: u, deriv=lambda u: u,
               mu2=0.0, phi0=0.6, roughness=1.5)
