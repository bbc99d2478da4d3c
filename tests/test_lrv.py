"""Long-run covariance blocks, smoothing weights, and band scale curves.

The block estimator is simple enough to verify by hand on tiny inputs:
with residuals e_i = (-1)^i c and block half-width m = 1 every interior
window sums to +-c, so the normalized outer product is exactly c^2 / 3.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tvacov.errors import ConfigurationError
from tvacov.kernels import epanechnikov
from tvacov.locallinear import _design_fit, fit_curve
from tvacov.lrv import (
    LongRunCovCurve,
    ResidualPair,
    lrv_curve,
    residuals,
    sigma_functionals,
)
from tvacov.diffseries import difference
from tvacov.procgen import TimeSeries

KERN = epanechnikov()


def pair_from(eps_h, eps_k=None, lags=(3, 1)):
    eps_k = eps_h if eps_k is None else eps_k
    return ResidualPair(eps=np.column_stack([eps_h, eps_k]), lags=lags)


# ---------------------------------------------------------------------------
# block products by hand

def test_alternating_residuals_give_exactly_c2_over_3():
    c = 1.7
    e = c * (-1.0) ** np.arange(8)
    res = pair_from(e)
    # t = 0.5 with tau = 0.2 engages only interior design points 3/8..5/8,
    # whose block products all equal c^2/3; any convex weights return it
    out = lrv_curve(res, m=1, tau=0.2, kernel=KERN, grid=np.array([0.5]))
    assert_allclose(out.matrices[0], np.full((2, 2), c * c / 3.0), rtol=1e-14)


def test_edge_blocks_renormalized_by_true_window_size():
    c = 2.0
    e = c * (-1.0) ** np.arange(8)
    res = pair_from(e)
    # t = 1/8 with tau = 0.2 engages i/8 for i = 1, 2: the first block is
    # truncated to two terms that cancel (gives 0), the second is interior
    # (gives c^2/3); weights follow the kernel at distances 0 and 1/8
    out = lrv_curve(res, m=1, tau=0.2, kernel=KERN, grid=np.array([1.0 / 8.0]))
    w_far = KERN(np.array([0.125 / 0.2]))[0]
    w0 = KERN(np.array([0.0]))[0]
    expected = (w_far / (w0 + w_far)) * c * c / 3.0
    assert_allclose(out.matrices[0], np.full((2, 2), expected), rtol=1e-14)


def test_constant_residuals_block_arithmetic():
    # e_i = c: interior blocks sum to 3c (m=1) so N = 3c^2, edge blocks
    # sum to 2c over 2 terms so N = 2c^2
    c = 0.9
    res = pair_from(np.full(8, c))
    out = lrv_curve(res, m=1, tau=0.2, kernel=KERN, grid=np.array([0.5]))
    assert_allclose(out.matrices[0], np.full((2, 2), 3.0 * c * c), rtol=1e-14)


def test_scale_equivariance():
    rng = np.random.default_rng(0)
    e = rng.standard_t(df=5, size=(60, 2))
    res = pair_from(e[:, 0], e[:, 1])
    scaled = pair_from(3.0 * e[:, 0], 3.0 * e[:, 1])
    a = lrv_curve(res, m=3, tau=0.25, kernel=KERN)
    b = lrv_curve(scaled, m=3, tau=0.25, kernel=KERN)
    assert_allclose(b.matrices, 9.0 * a.matrices, rtol=1e-13)


def test_always_symmetric_psd_even_for_heavy_tails():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(40, 300))
        e = rng.standard_t(df=3, size=(n, 2))
        m = int(rng.integers(1, max(2, n // 4 + 1)))
        tau = float(rng.uniform(0.1, 0.45))
        out = lrv_curve(pair_from(e[:, 0], e[:, 1]), m, tau, KERN)
        eig = np.linalg.eigvalsh(out.matrices)
        assert eig.min() > -1e-10


def test_default_grid_is_design_points_inside_tau_margins():
    res = pair_from(np.ones(40))
    out = lrv_curve(res, m=2, tau=0.3, kernel=KERN)
    t = np.arange(1, 41) / 40
    assert_array_equal(out.grid, t[(t >= 0.3) & (t <= 0.7)])


def test_parameter_validation():
    res = pair_from(np.ones(40))
    with pytest.raises(ConfigurationError):
        lrv_curve(res, 0, 0.2, KERN)
    with pytest.raises(ConfigurationError):
        lrv_curve(res, 11, 0.2, KERN)  # n // 4 = 10
    for tau in (0.0, 0.5, -0.2):
        with pytest.raises(ConfigurationError):
            lrv_curve(res, 2, tau, KERN)
    with pytest.raises(ConfigurationError):
        ResidualPair(eps=np.ones((5, 3)), lags=(3, 1))
    with pytest.raises(ConfigurationError):
        ResidualPair(eps=np.ones((5, 2)), lags=(1, 3))


@pytest.mark.parametrize("m, tau, text", [
    (0, 0.2, r"block half-width m must be in \[1, 10\], got \[0\]"),
    (2, 0.7, r"tau must be in \(0, 1/2\), got \[0.7\]"),
])
def test_parameter_errors_name_the_rejected_value(m, tau, text):
    with pytest.raises(ConfigurationError, match=text):
        lrv_curve(pair_from(np.ones(40)), m, tau, KERN)


def test_explicit_empty_grid_is_a_configuration_error():
    rng = np.random.default_rng(4)
    pair = pair_from(rng.normal(size=200), rng.normal(size=200))
    with pytest.raises(ConfigurationError, match="no evaluation points"):
        lrv_curve(pair, 3, 0.2, KERN, grid=np.array([]))


# ---------------------------------------------------------------------------
# sigma functionals

def test_sigma_functionals_arithmetic():
    grid = np.array([0.4, 0.6])
    identity = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
    sig = sigma_functionals(LongRunCovCurve(grid=grid, matrices=identity,
                                            m=1, tau=0.25))
    assert_allclose(sig.sigma_h.values, 1.0)
    assert_allclose(sig.sigma_ck.values, np.sqrt(2.0))
    assert not sig.clipped

    mats = np.broadcast_to(np.array([[4.0, 1.0], [1.0, 1.0]]), (2, 2, 2)).copy()
    sig = sigma_functionals(LongRunCovCurve(grid=grid, matrices=mats,
                                            m=1, tau=0.25))
    assert_allclose(sig.sigma_h.values, 2.0)
    assert_allclose(sig.sigma_ck.values, np.sqrt(3.0))


def test_sigma_clipping_flag_on_rounding_negatives():
    grid = np.array([0.5])
    off = 1.0 + 5e-13  # passes the PSD tolerance, makes v_ck ~ -1e-12
    mats = np.array([[[1.0, off], [off, 1.0]]])
    sig = sigma_functionals(LongRunCovCurve(grid=grid, matrices=mats,
                                            m=1, tau=0.25))
    assert sig.clipped
    assert sig.sigma_ck.values[0] == 0.0


# ---------------------------------------------------------------------------
# residuals

def test_residuals_definition_and_truncation():
    rng = np.random.default_rng(4)
    y = TimeSeries(values=rng.normal(size=120))
    res = residuals(y, 1, 3, 0.25, KERN)
    assert res.eps.shape == (117, 2)
    assert res.lags == (3, 1)
    rho3, rho1 = difference(y, 3), difference(y, 1)
    eps_h = rho3.values - _design_fit(rho3.values, 0.25, KERN)[0]
    eps_k = (rho1.values - _design_fit(rho1.values, 0.25, KERN)[0])[:117]
    assert_array_equal(res.eps[:, 0], eps_h)
    assert_array_equal(res.eps[:, 1], eps_k)
    # the sliding correlations agree with the dense fit to rounding
    for col, rho in ((0, rho3), (1, rho1)):
        dense = rho.values - fit_curve(rho.values, 0.25, KERN,
                                       grid=rho.grid).values
        dense = dense[:117]
        gap = np.max(np.abs(res.eps[:, col] - dense))
        assert gap <= 1e-12 * np.max(np.abs(dense))


def test_residuals_equal_lags_duplicate_columns():
    rng = np.random.default_rng(4)
    y = TimeSeries(values=rng.normal(size=80))
    res = residuals(y, 3, 3, 0.25, KERN)
    assert_array_equal(res.eps[:, 0], res.eps[:, 1])


def test_noise_free_trend_leaves_no_residual():
    t = np.arange(1, 201) / 200
    y = TimeSeries(values=4.0 - 2.5 * t)
    res = residuals(y, 1, 3, 0.2, KERN)
    # squared differences of an affine series are constant; the local
    # linear fit reproduces constants exactly
    assert np.max(np.abs(res.eps)) < 1e-12


# ---------------------------------------------------------------------------
# statistical sanity

def test_iid_residual_pair_recovers_identity():
    # block sd at (n, m, tau) = (4000, 4, 0.3) is ~0.08; allow 4 sd
    rng = np.random.default_rng(11)
    e = rng.normal(size=(4000, 2))
    out = lrv_curve(pair_from(e[:, 0], e[:, 1]), m=4, tau=0.3, kernel=KERN)
    mid = out.matrices[out.grid.size // 2]
    assert abs(mid[0, 0] - 1.0) < 0.32
    assert abs(mid[1, 1] - 1.0) < 0.32
    assert abs(mid[0, 1]) < 0.32
    # the grid mean has sd ~0.06 here; stay at 4 sd
    mean_mat = out.matrices.mean(axis=0)
    assert_allclose(mean_mat, np.eye(2), atol=0.25)


def test_time_varying_scale_is_tracked():
    rng = np.random.default_rng(5)
    n = 4000
    t = np.arange(1, n + 1) / n
    e = np.sqrt(1.0 + t) * rng.normal(size=n)
    out = lrv_curve(pair_from(e), m=6, tau=0.2, kernel=KERN)
    v = out.matrices[:, 0, 0]
    truth = 1.0 + out.grid
    # endpoints of the span are the cleanest readout of the trend
    assert abs(v[0] - truth[0]) < 0.2
    assert abs(v[-1] - truth[-1]) < 0.2
    assert v[-1] - v[0] > 0.3
    assert np.max(np.abs(v - truth)) < 0.6
