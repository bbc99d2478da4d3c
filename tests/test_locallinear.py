"""Local linear smoother against brute-force weighted least squares.

The closed-form weights in tvacov.locallinear are the foundation for every
estimator downstream, so they are checked here against a direct lstsq solve
of the same weighted regression, and the streaming hat trace is checked
against an explicitly assembled hat matrix.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import tvacov.locallinear as ll
from tvacov.errors import ConfigurationError, SingularDesignError
from tvacov.kernels import epanechnikov
from tvacov.locallinear import (
    CurveOnGrid,
    _design_fit,
    fit_at_data,
    fit_curve,
    hat_trace,
    interior_grid,
    unit_grid,
    weight_matrix,
    weights,
)
from tvacov.lrv import ResidualPair, _block_products, lrv_curve

KERN = epanechnikov()


def brute_force_fit(values, t, b, kernel):
    """Solve the local weighted regression directly with lstsq."""
    n = values.size
    d = unit_grid(n) - t
    kv = kernel(d / b)
    keep = kv > 0
    sw = np.sqrt(kv[keep])
    X = np.column_stack([np.ones(keep.sum()), d[keep]]) * sw[:, None]
    yw = values[keep] * sw
    beta, *_ = np.linalg.lstsq(X, yw, rcond=None)
    return beta  # (level, slope) at t


def test_level_weights_match_textbook_expression_bitwise(monkeypatch):
    # the smoother builds its weight rows in place; the arithmetic, and so
    # every bit, is that of the plain expression
    n, b = 150, 0.2
    grid = np.linspace(0.0, 1.0, 61)
    D = unit_grid(n)[None, :] - grid[:, None]
    KV = 0.75 * np.maximum(0.0, 1.0 - (D / b) * (D / b))
    S0 = KV.sum(axis=1)
    S1 = (KV * D).sum(axis=1)
    S2 = (KV * D * D).sum(axis=1)
    ref = KV * (S2[:, None] - D * S1[:, None]) / (S0 * S2 - S1 * S1)[:, None]
    assert_array_equal(weight_matrix(n, grid, b, KERN), ref)
    values = np.random.default_rng(2).normal(size=n)
    full = unit_grid(n)
    D = full[None, :] - full[:, None]
    KV = 0.75 * np.maximum(0.0, 1.0 - (D / b) * (D / b))
    S0 = KV.sum(axis=1)
    S1 = (KV * D).sum(axis=1)
    S2 = (KV * D * D).sum(axis=1)
    den = S0 * S2 - S1 * S1
    fitted = fit_curve(values, b, KERN, grid=full).values
    assert_array_equal(fitted, (KV * (S2[:, None] - D * S1[:, None])
                                / den[:, None]) @ values)
    # Nadaraya-Watson rows of the long-run covariance, in one chunk and in
    # forced 6-point chunks; the reference takes the same rows per product,
    # because a small dgemm may round a row by the number of rows it is given
    eps = np.random.default_rng(3).normal(size=(n, 2))
    D = unit_grid(n)[None, :] - grid[:, None]
    kv = 0.75 * np.maximum(0.0, 1.0 - (D / b) * (D / b))
    nw = kv / kv.sum(1)[:, None]
    nmat = _block_products(eps, 3)
    res = ResidualPair(eps=eps, lags=(3, 1))
    for budget, step in ((ll._CHUNK_BUDGET, grid.size), (6 * n, 6)):
        monkeypatch.setattr(ll, "_CHUNK_BUDGET", budget)
        flat = np.vstack([nw[i : i + step] @ nmat
                          for i in range(0, grid.size, step)])
        mats = lrv_curve(res, 3, b, KERN, grid=grid).matrices
        assert_array_equal(mats.reshape(-1, 4)[:, [0, 1, 3]], flat)


def test_weight_identities():
    # sum w_i = 1 and sum w_i (t_i - t) = 0 define local linear weights
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(40, 400))
        b = float(rng.uniform(0.08, 0.45))
        t = float(rng.uniform(0.0, 1.0))
        w = weights(n, t, b, KERN)
        dense = w.dense()
        assert dense.size == n
        assert abs(dense.sum() - 1.0) < 1e-12
        assert abs(np.sum(dense * (unit_grid(n) - t))) < 1e-12


def test_weights_vanish_outside_window():
    w = weights(100, 0.5, 0.1, KERN)
    dense = w.dense()
    outside = np.abs(unit_grid(100) - 0.5) > 0.1
    assert np.all(dense[outside] == 0.0)
    assert dense[np.abs(unit_grid(100) - 0.5) < 0.1 - 1e-9].size > 0


def test_affine_functions_reproduced_exactly():
    # a local linear smoother is exact on affine inputs, any bandwidth
    for n in (50, 173, 400):
        t = unit_grid(n)
        vals = 1.75 - 0.6 * t
        for b in (0.15, 0.3):
            fit = fit_curve(vals, b, KERN, with_slope=True)
            assert_allclose(fit.values, 1.75 - 0.6 * fit.grid, atol=1e-10)
            assert_allclose(fit.slope, -0.6, atol=1e-9)


def test_matches_brute_force_wls():
    rng = np.random.default_rng(123)
    n = 200
    vals = rng.normal(size=n) + np.sin(2 * np.pi * unit_grid(n))
    for _ in range(20):
        b = float(rng.uniform(0.08, 0.45))
        t = float(rng.uniform(b, 1.0 - b))
        beta = brute_force_fit(vals, t, b, KERN)
        w = weights(n, t, b, KERN)
        assert abs(float(w.dense() @ vals) - beta[0]) < 1e-10
        fit = fit_curve(vals, b, KERN, grid=np.array([t]), with_slope=True)
        assert abs(fit.values[0] - beta[0]) < 1e-10
        assert abs(fit.slope[0] - beta[1]) < 1e-9


def test_one_sided_windows_near_boundary():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=120)
    for t in (0.0, 0.02, 0.98, 1.0):
        beta = brute_force_fit(vals, t, 0.2, KERN)
        fit = fit_curve(vals, 0.2, KERN, grid=np.array([t]))
        assert abs(fit.values[0] - beta[0]) < 1e-10


def test_weight_matrix_stacks_single_point_weights():
    n = 90
    grid = np.array([0.2, 0.35, 0.5, 0.77])
    mat = weight_matrix(n, grid, 0.18, KERN)
    assert mat.shape == (4, n)
    for g, t in enumerate(grid):
        assert_allclose(mat[g], weights(n, float(t), 0.18, KERN).dense(),
                        rtol=0, atol=0)


def test_hat_trace_matches_explicit_hat_matrix():
    rng = np.random.default_rng(11)
    for n, b in ((60, 0.2), (150, 0.12)):
        H = weight_matrix(n, unit_grid(n), b, KERN)
        assert abs(hat_trace(n, b, KERN) - np.trace(H)) < 1e-10
        vals = rng.normal(size=n)
        fitted, trace = fit_at_data(vals, b, KERN)
        assert_allclose(fitted, H @ vals, atol=1e-12)
        assert abs(trace - np.trace(H)) < 1e-10


def _assert_design_fit_matches(vals, b):
    # the dense reference is the hat matrix: its rows are those of
    # fit_curve on unit_grid(n), built once for the level and the trace
    try:
        H = weight_matrix(vals.size, unit_grid(vals.size), b, KERN)
    except SingularDesignError:
        with pytest.raises(SingularDesignError):
            _design_fit(vals, b, KERN)
        return
    fitted, trace = H @ vals, np.trace(H)
    got, got_trace = _design_fit(vals, b, KERN)
    assert np.max(np.abs(got - fitted)) <= 1e-13 * np.max(np.abs(fitted))
    assert abs(got_trace - trace) <= 1e-13 * trace


def test_design_fit_matches_fit_at_data():
    # the sliding correlations are the dense rows summed in another order;
    # cases include n b an integer, where the window edge |d| = n b carries
    # kernel value 0, windows too small for a line at n = 60 and b = 0.03,
    # and the one-sided windows near t = 0 and t = 1
    rng = np.random.default_rng(8)
    cases = [(n, b) for n in (60, 61, 100, 400, 797, 2000)
             for b in np.round(np.linspace(0.03, 0.45, 8), 10)]
    cases += [(100, 0.2), (800, 0.2), (2000, 0.45)]
    for n, b in cases:
        t = unit_grid(n)
        vals = np.sin(5 * t) + (t > 0.4) + rng.normal(0, 0.5, n)
        _assert_design_fit_matches(vals, float(b))
    # one-sided end windows alone: the fit at the first and last point
    # against the brute-force WLS solve
    vals = rng.normal(size=120)
    got, _ = _design_fit(vals, 0.2, KERN)
    for i in (0, 119):
        beta = brute_force_fit(vals, unit_grid(120)[i], 0.2, KERN)
        assert abs(got[i] - beta[0]) < 1e-10


def _dense_fit(vals, b, kernel):
    return fit_curve(vals, b, kernel, grid=unit_grid(vals.size))


def test_design_fit_raises_where_dense_fit_does():
    vals = np.random.default_rng(9).normal(size=10)
    for run in (_dense_fit, _design_fit):
        with pytest.raises(SingularDesignError, match="engages 1 points"):
            run(vals, 0.01, KERN)
    with pytest.raises(ConfigurationError):
        _design_fit(vals, 0.5, KERN)


def _rejection(run, vals, b):
    try:
        run(vals, b, KERN)
    except SingularDesignError as err:
        return str(err)
    return None


def test_dense_and_design_fits_reject_the_same_windows():
    # at b = k/n the edge point |t_i - t| = b may carry a rounding ghost
    # K ~ 1e-16 in the dense rows; it must not count as engaged, so a
    # one-sided end window of 3 real points fails on both paths
    cases = [(n, k / n) for n in range(8, 401, 7) for k in range(2, 7)
             if k / n < 0.5]
    cases += [(10, 0.2), (68, 3 / 68), (225, 3 / 225), (239, 3 / 239)]
    rejected = 0
    for n, b in cases:
        vals = np.random.default_rng(n).normal(size=n)
        dense = _rejection(_dense_fit, vals, b)
        design = _rejection(_design_fit, vals, b)
        assert (dense is None) == (design is None), (n, b, dense, design)
        if dense is not None and "engages" in dense:
            assert dense == design
        rejected += dense is not None
    assert 0 < rejected < len(cases)
    with pytest.raises(SingularDesignError, match="engages 2 points"):
        _dense_fit(np.ones(10), 0.2, KERN)


def test_every_path_gives_the_same_window_error():
    # single points, the weight matrix, dense fits and the sliding
    # correlations all reject a too-small window with one text
    for n, b in ((10, 0.2), (68, 3 / 68), (20, 0.05)):
        vals = np.random.default_rng(n).normal(size=n)
        grid = unit_grid(n)

        def point_by_point():
            for t in grid:  # raises at the first degenerate window
                weights(n, t, b, KERN)

        runs = (point_by_point,
                lambda: weight_matrix(n, grid, b, KERN),
                lambda: fit_curve(vals, b, KERN, grid=grid),
                lambda: fit_at_data(vals, b, KERN),
                lambda: _design_fit(vals, b, KERN))
        texts = set()
        for run in runs:
            with pytest.raises(SingularDesignError) as err:
                run()
            texts.add(str(err.value))
        assert len(texts) == 1, (n, b, texts)


def _chunked_outputs(vals, grid, b):
    res = ResidualPair(eps=np.column_stack([vals, vals[::-1]]), lags=(3, 1))
    hat = weight_matrix(vals.size, unit_grid(vals.size), b, KERN)
    curve = fit_curve(vals, b, KERN, grid=grid, with_slope=True)
    return [curve.values, curve.slope, hat @ vals, np.trace(hat),
            weight_matrix(vals.size, grid, b, KERN),
            lrv_curve(res, 3, b, KERN, grid=grid).matrices]


def test_chunked_evaluation_matches_unchunked(monkeypatch):
    # chunking only changes BLAS call shapes, so agreement is at ulp level
    vals = np.random.default_rng(2).normal(size=300)
    grid = interior_grid(300, 0.1)
    full = _chunked_outputs(vals, grid, 0.1)
    monkeypatch.setattr(ll, "_CHUNK_BUDGET", 900)  # forces 3-point chunks
    small = _chunked_outputs(vals, grid, 0.1)
    for got, want in zip(small, full):
        assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_chunks_bound_traced_memory(monkeypatch):
    # each chunk is freed before the next is built: the traced peak stays
    # near three (chunk x n) arrays, far below one dense (grid x n) array
    n, b = 2001, 0.2
    monkeypatch.setattr(ll, "_CHUNK_BUDGET", 100_000)
    chunk_bytes = (100_000 // n) * n * 8
    vals = np.random.default_rng(4).normal(size=n)
    res = ResidualPair(eps=np.column_stack([vals, vals[::-1]]), lags=(3, 1))
    for grid_size, run in (
        (n, lambda: fit_curve(vals, b, KERN, grid=unit_grid(n))),
        (interior_grid(n, b).size, lambda: lrv_curve(res, 3, b, KERN)),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid_size * n * 8
        assert peak < 4 * chunk_bytes


def test_dense_entry_points_check_evaluation_points():
    # a point must be finite and in [0, 1]; it is rejected before any kernel
    # row is built, so an infinite point raises no numpy warning first
    vals = np.random.default_rng(1).normal(size=50)
    res = ResidualPair(eps=np.column_stack([vals, vals[::-1]]), lags=(3, 1))
    runs = (lambda g: fit_curve(vals, 0.2, KERN, grid=g),
            lambda g: weight_matrix(50, g, 0.2, KERN),
            lambda g: lrv_curve(res, 3, 0.2, KERN, grid=g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid, bad in (([np.inf, 0.5], r"\[inf\]"), ([0.5, 1.5], r"\[1.5\]")):
            for run in runs:
                with pytest.raises(ConfigurationError,
                                   match=r"finite and in \[0, 1\], got " + bad):
                    run(np.array(grid))
        for t in (np.inf, np.nan, -0.1):
            with pytest.raises(ConfigurationError, match="finite and in"):
                weights(50, t, 0.2, KERN)


def test_interior_grid():
    g = interior_grid(10, 0.25)
    # design points 0.1 .. 1.0; those in [0.25, 0.75]
    assert_allclose(g, np.array([0.3, 0.4, 0.5, 0.6, 0.7]))
    assert interior_grid(400, 0.2).min() >= 0.2
    assert interior_grid(400, 0.2).max() <= 0.8


def test_bandwidth_range_enforced():
    vals = np.zeros(50)
    for b in (0.0, -0.1, 0.5, 1.2):
        with pytest.raises(ConfigurationError):
            fit_curve(vals, b, KERN)


def test_tiny_window_raises():
    # n*b too small to engage 4 points for a line fit
    with pytest.raises(SingularDesignError):
        weights(20, 0.0, 0.05, KERN)


def test_curve_on_grid_validation():
    with pytest.raises(ConfigurationError):
        CurveOnGrid(grid=np.array([0.2, 0.2]), values=np.zeros(2))
    with pytest.raises(ConfigurationError):
        CurveOnGrid(grid=np.array([0.2, 1.4]), values=np.zeros(2))
    with pytest.raises(ConfigurationError):
        CurveOnGrid(grid=np.array([0.2, 0.4]), values=np.array([1.0, np.nan]))


def test_non_finite_series_rejected():
    vals = np.ones(80)
    vals[3] = np.inf
    with pytest.raises(ConfigurationError):
        fit_curve(vals, 0.2, KERN)
