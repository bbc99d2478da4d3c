"""Difference-based autocovariance estimators.

The estimators are thin, auditable combinations of pieces tested elsewhere
(difference series + local linear fits), so the tests here pin down exactly
those combinations, the grid conventions, and consistency on long samples.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tvacov import acov
from tvacov.acov import (
    estimate_gamma0,
    estimate_gammak,
    estimate_lags,
    naive_estimate,
)
from tvacov.diffseries import difference, select_lag
from tvacov.errors import ConfigurationError, InvalidLagError
from tvacov.kernels import epanechnikov
from tvacov.locallinear import fit_curve, interior_grid
from tvacov.lrv import lrv_curve, residuals, sigma_functionals
from tvacov.procgen import MeanSpec, TimeSeries, generate, model_preset, true_gamma
from tvacov.scb import GUMBEL_MAX_BANDWIDTH, bandwidth_candidates
from tvacov.tuning import default_bandwidth_grid, gcv_bandwidth, min_volatility

KERN = epanechnikov()


def make_series(n=400, seed=3, model="model1"):
    mean, err = model_preset(model)
    return generate(mean, err, n, seed)


def test_gamma0_is_half_the_fitted_difference_level():
    y = make_series()
    h, b = 4, 0.2
    est = estimate_gamma0(y, h, b, KERN)
    rho = difference(y, h)
    direct = fit_curve(rho.values, b, KERN, grid=est.curve.grid)
    assert_array_equal(est.curve.values, 0.5 * direct.values)
    assert est.working_n == y.n - h
    assert est.diff_lag == h
    assert est.lag == 0
    assert est.bandwidth == b


def test_gammak_is_half_the_difference_of_two_fits():
    y = make_series()
    k, h, b = 1, 4, 0.2
    est = estimate_gammak(y, k, h, b, KERN)
    rho_h = difference(y, h)
    rho_k = difference(y, k)
    fit_h = fit_curve(rho_h.values, b, KERN, grid=est.curve.grid)
    fit_k = fit_curve(rho_k.values, b, KERN, grid=est.curve.grid)
    assert_array_equal(est.curve.values, 0.5 * (fit_h.values - fit_k.values))
    # grid convention: both series are evaluated on the lag-h working grid
    assert_array_equal(est.curve.grid, interior_grid(y.n - h, b))
    assert est.working_n == y.n - h


def test_lag_bounds():
    y = make_series(n=100)
    with pytest.raises(InvalidLagError):
        estimate_gammak(y, 0, 4, 0.2, KERN)
    with pytest.raises(InvalidLagError):
        estimate_gammak(y, 4, 4, 0.2, KERN)
    with pytest.raises(InvalidLagError):
        estimate_gammak(y, 5, 4, 0.2, KERN)
    with pytest.raises(InvalidLagError):
        estimate_gamma0(y, 99, 0.2, KERN)


def test_custom_grid_is_respected():
    y = make_series(n=300)
    g = np.array([0.3, 0.5, 0.7])
    est0 = estimate_gamma0(y, 3, 0.25, KERN, grid=g)
    est1 = estimate_gammak(y, 1, 3, 0.25, KERN, grid=g)
    assert_array_equal(est0.curve.grid, g)
    assert_array_equal(est1.curve.grid, g)


def test_has_negative_flag():
    # a pure trend has zero noise, so fitted rho/2 stays >= 0 and tiny;
    # force a negative excursion with a crafted series instead
    rng = np.random.default_rng(8)
    y = TimeSeries(values=rng.normal(size=200))
    est = estimate_gamma0(y, 3, 0.2, KERN)
    assert est.has_negative == bool(np.any(est.curve.values < 0.0))
    # variance of standard white noise is ~1 everywhere, so no violations
    assert not est.has_negative


def test_consistency_on_long_sample_with_jumps():
    # the whole point: level shifts do not bias the difference estimates
    y = make_series(n=6000, seed=12, model="model1")
    _, err = model_preset("model1")
    est0 = estimate_gamma0(y, 3, 0.1, KERN)
    err0 = np.max(np.abs(est0.curve.values - true_gamma(err, 0, est0.curve.grid)))
    est1 = estimate_gammak(y, 1, 3, 0.1, KERN)
    err1 = np.max(np.abs(est1.curve.values - true_gamma(err, 1, est1.curve.grid)))
    assert err0 < 0.12
    assert err1 < 0.12


def test_estimate_lags_matches_step_by_step():
    y = make_series(n=400, seed=7)
    h, b_h, b_k, m, tau = 4, 0.2, 0.25, 3, 0.2
    for grid_points in (None, 41):
        fits = estimate_lags(y, h, (0, 1, 2), KERN, b_h=b_h, b_k=b_k,
                             m=m, tau=tau, grid_points=grid_points)
        for lag, fit in zip((0, 1, 2), fits):
            b = b_h if lag == 0 else b_k
            grid = None
            if grid_points is not None:
                grid = np.linspace(b, 1.0 - b, grid_points)
            if lag == 0:
                est = estimate_gamma0(y, h, b, KERN, grid=grid)
                scale = "sigma_h"
            else:
                est = estimate_gammak(y, lag, h, b, KERN, grid=grid)
                scale = "sigma_ck"
            pair = residuals(y, max(lag, 1), h, b, KERN)
            sig = sigma_functionals(
                lrv_curve(pair, m, tau, KERN, grid=est.curve.grid))
            assert fit.estimate.lag == lag
            assert (fit.b, fit.m, fit.tau) == (b, m, tau)
            assert fit.estimate.working_n == est.working_n
            assert fit.estimate.has_negative == est.has_negative
            assert_array_equal(fit.estimate.curve.grid, est.curve.grid)
            assert_allclose(fit.estimate.curve.values, est.curve.values,
                            rtol=1e-12)
            assert_allclose(fit.scale.values, getattr(sig, scale).values,
                            rtol=1e-12)


def assert_close_to_sup(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("n, h, b", [
    (403, 3, 0.2),    # n b = 80 on the working grid
    (104, 4, 0.031),  # 3.1 points per half-window: 4 in the end windows
    (302, 2, 0.45),   # one-sided windows over most of the series
])
def test_estimate_lags_fits_match_the_dense_smoother(n, h, b, monkeypatch):
    # the fits at the design points (sliding correlations) agree with the
    # dense fit_curve rows to rounding: the lag-0 level on [b, 1-b] and the
    # residual pair at every design point, one-sided end windows included
    pairs = []

    def record(pair, *args):
        pairs.append(pair)
        return band_scale(pair, *args)

    band_scale = acov._band_scale
    monkeypatch.setattr(acov, "_band_scale", record)
    y = make_series(n=n, seed=n)
    [fit] = estimate_lags(y, h, (0,), KERN, b_h=b, m=3, tau=0.2)
    rho_h, rho_1 = difference(y, h), difference(y, 1)
    level = fit_curve(rho_h.values, b, KERN, grid=interior_grid(n - h, b))
    assert_array_equal(fit.estimate.curve.grid, level.grid)
    assert_close_to_sup(fit.estimate.curve.values, 0.5 * level.values)
    [pair] = pairs
    for col, rho in ((0, rho_h), (1, rho_1)):
        dense = fit_curve(rho.values, b, KERN, grid=rho.grid).values
        eps = (rho.values - dense)[: n - h]
        assert_close_to_sup(pair.eps[:, col], eps)


def test_estimate_lags_data_driven_tuning():
    y = make_series(n=400, seed=7)
    h = 3
    fit0, fit1 = estimate_lags(y, h, (0, 1), KERN)
    rho_h = difference(y, h).values
    aligned = rho_h - difference(y, 1).values[: rho_h.size]
    assert fit0.b == gcv_bandwidth(rho_h, kernel=KERN).bandwidth
    assert fit1.b == gcv_bandwidth(aligned, kernel=KERN).bandwidth
    for fit in (fit0, fit1):
        mv = min_volatility(residuals(y, 1, h, fit.b, KERN), kernel=KERN)
        assert (fit.m, fit.tau) == (mv.m, mv.tau)


def test_estimate_lags_validation():
    y = make_series(n=100)
    with pytest.raises(ConfigurationError):
        estimate_lags(y, 3, (0, 3), KERN, b_h=0.2, b_k=0.2, m=3, tau=0.2)
    with pytest.raises(ConfigurationError):
        estimate_lags(y, 98, (0,), KERN, b_h=0.2, m=3, tau=0.2)
    with pytest.raises(ConfigurationError):
        estimate_lags(y, 4, (0, 1, 2), KERN, b_h=0.2, b_k=(0.2, 0.2, 0.2),
                      m=3, tau=0.2)


@pytest.mark.parametrize("points", [0, -3])
def test_estimate_lags_rejects_empty_band_grid_before_tuning(points,
                                                             monkeypatch):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tuning ran")

    monkeypatch.setattr(acov, "gcv_bandwidth", no_tuning)
    with pytest.raises(ConfigurationError, match="grid_points"):
        estimate_lags(make_series(n=200), 3, (0, 1), KERN, grid_points=points)

def test_naive_matches_manual_two_stage_fit():
    y = make_series(n=400, seed=5)
    est = naive_estimate(y, 1, KERN, b_mean=0.2, b_var=0.25)
    trend = fit_curve(y.values, 0.2, KERN, grid=y.grid)
    resid = y.values - trend.values
    prods = resid[1:] * resid[:-1]
    direct = fit_curve(prods, 0.25, KERN, grid=est.curve.grid)
    assert_array_equal(est.curve.values, direct.values)
    assert est.diff_lag is None
    assert est.mean_bandwidth == 0.2
    assert est.working_n == prods.size


def test_naive_is_fine_without_jumps_but_biased_with_them():
    # smooth mean: residual estimator recovers the variance well
    _, err = model_preset("model1")
    smooth = generate(MeanSpec.zero(), err, 4000, 21)
    est = naive_estimate(smooth, 0, KERN, b_mean=0.2, b_var=0.15)
    sup_smooth = np.max(np.abs(est.curve.values
                               - true_gamma(err, 0, est.curve.grid)))
    # jumpy mean from the preset: the same estimator is badly biased
    jumpy = make_series(n=4000, seed=21)
    est_j = naive_estimate(jumpy, 0, KERN, b_mean=0.2, b_var=0.15)
    sup_jumpy = np.max(np.abs(est_j.curve.values
                              - true_gamma(err, 0, est_j.curve.grid)))
    assert sup_smooth < 0.15
    assert sup_jumpy > 3.0 * sup_smooth


def test_naive_lag_validation():
    y = make_series(n=100)
    with pytest.raises(InvalidLagError):
        naive_estimate(y, -1, KERN, b_mean=0.2, b_var=0.2)
    with pytest.raises(InvalidLagError):
        naive_estimate(y, 99, KERN, b_mean=0.2, b_var=0.2)


def test_estimate_lags_auto_h_equals_the_two_step_result():
    # h from the scan, lag 0's bandwidth the scan's own choice for the
    # lag-h series: the same function on the same series as scoring it again
    y = make_series(n=400, seed=7)
    fits = estimate_lags(y, None, (0, 1), KERN, m=3, tau=0.2)
    sel = select_lag(y, kernel=KERN)
    h = max(sel.h, 2)
    assert sel.bandwidths[h - 1] == gcv_bandwidth(
        difference(y, h).values, kernel=KERN).bandwidth
    two_step = estimate_lags(y, h, (0, 1), KERN, b_h=sel.bandwidths[h - 1],
                             m=3, tau=0.2)
    for fit, ref in zip(fits, two_step):
        assert fit.estimate.diff_lag == h
        assert (fit.b, fit.m, fit.tau) == (ref.b, ref.m, ref.tau)
        assert_array_equal(fit.estimate.curve.grid, ref.estimate.curve.grid)
        assert_array_equal(fit.estimate.curve.values,
                           ref.estimate.curve.values)
        assert_array_equal(fit.scale.values, ref.scale.values)


def counting(monkeypatch, name):
    calls = []
    orig = getattr(acov, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(acov, name, wrapper)
    return calls


def test_lags_zero_and_one_share_one_band_scale(monkeypatch):
    # both band from the residual pair (h, 1)
    lrv = counting(monkeypatch, "lrv_curve")
    minvol = counting(monkeypatch, "min_volatility")
    y = make_series()
    fit0, fit1 = estimate_lags(y, 3, (0, 1), KERN, b_h=0.2, b_k=0.2, m=3,
                               tau=0.2)
    assert (len(lrv), len(minvol)) == (1, 0)
    assert fit0.sigma is fit1.sigma
    fit0, fit1 = estimate_lags(y, 3, (0, 1), KERN, b_h=0.2, b_k=0.2)
    assert (len(lrv), len(minvol)) == (2, 1)
    assert fit0.sigma is fit1.sigma
    fit0, fit1 = estimate_lags(y, 3, (0, 1), KERN, b_h=0.2, b_k=0.25, m=3,
                               tau=0.2)
    assert len(lrv) == 4
    assert fit0.sigma is not fit1.sigma


@pytest.mark.parametrize("lags, kwargs", [
    ((1,), dict(b_h=0.2)), ((1, 2), dict(b_h=0.2)), ((0,), dict(b_k=0.2)),
])
def test_estimate_lags_rejects_bandwidth_of_a_lag_not_asked_for(lags, kwargs):
    with pytest.raises(ConfigurationError, match="but lags has"):
        estimate_lags(make_series(n=200), 3, lags, KERN, **kwargs)


def test_estimate_lags_checks_run_before_the_lag_scan(monkeypatch):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tuning ran")

    monkeypatch.setattr(acov, "select_lag", no_tuning)
    y = make_series(n=400)
    bad = [dict(lags=(0, -1)), dict(grid_points=0), dict(b_k=(0.2, 0.3)),
           dict(m=(3, 4, 5)), dict(tau=(0.2, 0.3, 0.4)), dict(m=100),
           dict(lags=(0, 397)), dict(bandwidths=np.array([0.2, 0.6])),
           dict(bandwidths=np.array([0.2, np.nan]))]
    for kwargs in bad:
        kwargs = {"lags": (0, 1), **kwargs}
        with pytest.raises(ConfigurationError):
            estimate_lags(y, None, kernel=KERN, **kwargs)


@pytest.mark.parametrize("kwargs", [dict(b_h=0.7), dict(b_k=0.6),
                                    dict(tau=0.9), dict(b_h=np.nan)])
def test_estimate_lags_range_checks_run_before_the_lag_scan(monkeypatch,
                                                            kwargs):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tuning ran")

    monkeypatch.setattr(acov, "select_lag", no_tuning)
    with pytest.raises(ConfigurationError, match=r"must be in \(0, 1/2\)"):
        estimate_lags(make_series(), None, (0, 1), KERN, **kwargs)


def lag_zero_fit(monkeypatch, bandwidths):
    """The all-auto lag-0 fit of model1 at n = 400, seed 1, the series the
    pipeline cross-validated and the lag-h series."""
    y = make_series(seed=1)
    with monkeypatch.context() as patch:
        gcv = counting(patch, "gcv_bandwidth")
        fit0, _ = estimate_lags(y, None, (0, 1), KERN, m=3, tau=0.2,
                                bandwidths=bandwidths)
    rho_h = difference(y, fit0.estimate.diff_lag).values
    return fit0, [args[0] for args in gcv], rho_h


def test_gumbel_candidates_take_lag_zero_bandwidth_from_the_scan(monkeypatch):
    # the gumbel cut keeps every default value up to the scan's choice, so
    # lag 0 scores its series no more often than under the bootstrap
    boot, boot_scored, _ = lag_zero_fit(monkeypatch, None)
    cut = bandwidth_candidates("gumbel", None, (None, None))
    gumbel, gumbel_scored, _ = lag_zero_fit(monkeypatch, cut)
    assert boot.b < GUMBEL_MAX_BANDWIDTH
    assert gumbel.b == boot.b
    assert len(gumbel_scored) == len(boot_scored) == 1  # lag 1 only


def test_grid_without_a_value_below_the_scan_choice_scores_lag_h_again(
        monkeypatch):
    auto, _, _ = lag_zero_fit(monkeypatch, None)
    grid = default_bandwidth_grid()
    assert auto.b > grid[0]
    fit0, scored, rho_h = lag_zero_fit(monkeypatch, grid[1:])
    assert len(scored) == 2
    assert_array_equal(scored[0], rho_h)
    # the scan's choice minimizes over the larger grid, so here too
    assert fit0.b == auto.b
