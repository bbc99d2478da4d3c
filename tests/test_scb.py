"""Simultaneous band construction: proxy bootstrap and the limit formula."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tvacov.acov import estimate_gamma0, naive_estimate
from tvacov.errors import (
    ConfigurationError,
    DegenerateVarianceError,
    GridAlignmentError,
)
from tvacov.kernels import epanechnikov
from tvacov.locallinear import CurveOnGrid, interior_grid, weight_matrix
from tvacov.procgen import generate, model_preset
from tvacov import scb
from tvacov.scb import (
    BandResult,
    bootstrap_quantile,
    build_band,
    coverage_check,
    gumbel_critical,
    proxy_draws,
)

KERN = epanechnikov()


def test_proxy_pointwise_variance():
    # each proxy coordinate is a fixed linear form in iid standard normals,
    # so its variance is the scaled squared weight norm
    n, b = 150, 0.2
    grid = interior_grid(n, b)
    draws = proxy_draws(n, b, KERN, grid, draws=20_000, seed=4)
    w = weight_matrix(n, grid, b, KERN) * 0.5
    target = np.sum(w * w, axis=1)
    sample = draws.var(axis=1)
    rel = np.abs(sample - target) / target
    assert rel.max() < 0.05


def test_proxy_chunking_is_invisible():
    n, b = 80, 0.25
    grid = interior_grid(n, b)
    one = proxy_draws(n, b, KERN, grid, draws=1030, seed=9)
    again = proxy_draws(n, b, KERN, grid, draws=1030, seed=9)
    assert_array_equal(one, again)
    # the first 1000 draws do not depend on how many more are requested
    fewer = proxy_draws(n, b, KERN, grid, draws=1000, seed=9)
    assert_array_equal(one[:, :1000], fewer)


@pytest.mark.parametrize("n, b", [(80, 0.25), (797, 0.45), (3997, 0.2)])
@pytest.mark.parametrize("grid_kind", ["design", "linspace"])
def test_band_limited_product_matches_dense_weights(n, b, grid_kind):
    # the row blocks skip only exact zeros of the weights, so on the same
    # draws the product agrees with the dense one up to summation order
    grid = (interior_grid(n, b) if grid_kind == "design"
            else np.linspace(b, 1.0 - b, 97))
    u = scb._draw_block(n, 3, 0, 64)
    got = np.full((grid.size, 64), np.nan)
    for rows, values in scb._proxy_values(
            scb._proxy_weights(n, b, KERN, grid, 0.5), u):
        got[rows] = values
    dense = (weight_matrix(n, grid, b, KERN) * 0.5) @ u.T
    sup = np.abs(dense).max(axis=0)
    assert np.all(np.abs(got - dense) <= 1e-13 * sup)
    assert_allclose(np.abs(got).max(axis=0), sup, rtol=1e-13, atol=0)


def test_draw_block_is_a_prefix_of_its_keyed_stream():
    # draws lo..hi-1 are rows of block j = lo // 512, drawn in C order from
    # the substream keyed by j, so a short block is a prefix of the full one
    n, seed = 97, 21
    for lo, hi in ((512, 530), (512, 1024), (0, 1)):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(lo // 512,)))
        full = rng.standard_normal((512, n))
        assert_array_equal(scb._draw_block(n, seed, lo, hi), full[:hi - lo])
    for lo, hi in ((1, 10), (500, 520), (512, 512), (0, 513)):
        with pytest.raises(ConfigurationError, match="one block"):
            scb._draw_block(n, seed, lo, hi)


def test_quantile_interval_covers_and_narrows():
    small = bootstrap_quantile(100, 0.2, KERN, draws=1000, seed=13)
    large = bootstrap_quantile(100, 0.2, KERN, draws=10_000, seed=13)
    widths = []
    for q in (small, large):
        lo, hi = q.quantile_interval()
        assert lo <= q.quantile <= hi
        assert (lo, hi) == q.quantile_interval()
        assert lo in q.sup_draws and hi in q.sup_draws
        widths.append(hi - lo)
    assert widths[1] < 0.5 * widths[0]
    lo99, hi99 = small.quantile_interval(0.99)
    lo95, hi95 = small.quantile_interval(0.95)
    assert lo99 <= lo95 and hi95 <= hi99
    with pytest.raises(ConfigurationError):
        small.quantile_interval(1.0)


def test_quantile_interval_order_statistics():
    # 1000 draws, level 0.95 quantile: the binomial tails put the interval
    # at order statistics 936 and 964 (1-based)
    q = bootstrap_quantile(100, 0.2, KERN, draws=1000, seed=13)
    x = np.sort(q.sup_draws)

    def below(j):  # P(Binomial(1000, 0.95) <= j)
        return sum(math.comb(1000, k) * 0.95**k * 0.05 ** (1000 - k)
                   for k in range(j + 1))

    # X_(936) above the quantile needs at most 935 draws below it, and
    # X_(964) below it needs at least 964; both are the tightest choices
    assert below(935) <= 0.025 < below(936)
    assert 1.0 - below(963) <= 0.025 < 1.0 - below(962)
    assert q.quantile_interval() == (x[935], x[963])


def test_bootstrap_quantile_deterministic():
    a = bootstrap_quantile(100, 0.2, KERN, draws=1500, seed=11)
    b = bootstrap_quantile(100, 0.2, KERN, draws=1500, seed=11)
    assert a.quantile == b.quantile
    assert_array_equal(a.sup_draws, b.sup_draws)
    c = bootstrap_quantile(100, 0.2, KERN, draws=1500, seed=12)
    assert c.quantile != a.quantile


def test_bootstrap_quantile_thread_partition_invariance():
    a = bootstrap_quantile(120, 0.2, KERN, draws=2000, seed=5, threads=1)
    b = bootstrap_quantile(120, 0.2, KERN, draws=2000, seed=5, threads=3)
    assert_array_equal(a.sup_draws, b.sup_draws)
    assert a.quantile == b.quantile


def test_bootstrap_quantile_levels_nest():
    q = bootstrap_quantile(100, 0.2, KERN, draws=4000, seed=2)
    q01 = q.quantile_at(0.01)
    q05 = q.quantile_at(0.05)
    q10 = q.quantile_at(0.10)
    assert q01 > q05 > q10 > 0
    assert q.quantile == q05
    assert q05 == float(np.quantile(q.sup_draws, 0.95))


def test_bootstrap_quantile_validation():
    with pytest.raises(ConfigurationError):
        bootstrap_quantile(100, 0.2, KERN, draws=999)
    with pytest.raises(ConfigurationError):
        bootstrap_quantile(100, 0.2, KERN, draws=2000, alpha=0.0)
    with pytest.raises(ConfigurationError):
        bootstrap_quantile(100, 0.2, KERN, draws=2000, threads=0)
    with pytest.raises(ConfigurationError):
        bootstrap_quantile(100, 0.2, KERN, draws=2000,
                           grid=np.array([0.05, 0.5]))
    q = bootstrap_quantile(100, 0.2, KERN, draws=1000)
    with pytest.raises(ConfigurationError):
        q.quantile_at(1.0)


def test_bootstrap_quantile_checks_every_sup_grid_point():
    # an interior point outside [b, 1-b] fails as the ends do; an empty grid
    # is a configuration error, not an IndexError
    for grid in ([0.3, 0.05, 0.5], []):
        with pytest.raises(ConfigurationError):
            bootstrap_quantile(400, 0.2, KERN, draws=1000,
                               grid=np.array(grid))


def test_gumbel_constant_frozen_value():
    # with the tail term cancelled (alpha = 1 - exp(-2)) the multiplier
    # reduces to the centering constant; for this kernel at m* = 10 it is
    # known to six decimals
    alpha = 1.0 - math.exp(-2.0)
    bk = gumbel_critical(0.1, KERN, alpha, n=400)
    s = math.sqrt(2.0 * math.log(10.0))
    by_hand = s + math.log(math.sqrt(1.5 / (4.0 * 0.6)) / math.pi) / s
    assert_allclose(bk, by_hand, rtol=1e-15)
    assert_allclose(bk, 1.503024, atol=5e-7)


def test_gumbel_critical_monotone_in_alpha():
    c1 = gumbel_critical(0.25, KERN, 0.01, 400)
    c5 = gumbel_critical(0.25, KERN, 0.05, 400)
    c10 = gumbel_critical(0.25, KERN, 0.10, 400)
    assert c1 > c5 > c10


def test_gumbel_critical_domain():
    with pytest.raises(ConfigurationError):
        gumbel_critical(1.0 / math.e, KERN, 0.05, 400)
    with pytest.raises(ConfigurationError):
        gumbel_critical(0.5, KERN, 0.05, 400)
    with pytest.raises(ConfigurationError):
        gumbel_critical(0.2, KERN, 1.5, 400)
    with pytest.raises(ConfigurationError):
        gumbel_critical(0.2, KERN, 0.05, 1)


def fitted_estimate(n=300, seed=8, h=3, b=0.2):
    mean, model = model_preset("model1")
    y = generate(mean, model, n, seed)
    return estimate_gamma0(y, h, b, KERN)


def unit_sigma(est):
    return CurveOnGrid(grid=est.curve.grid,
                       values=np.ones_like(est.curve.values))


def test_build_band_bootstrap_reuse_and_context():
    est = fitted_estimate()
    sigma = unit_sigma(est)
    direct = build_band(est, sigma, KERN, draws=1500, seed=3)
    q = bootstrap_quantile(est.working_n, est.bandwidth, KERN, draws=1500,
                           seed=3, grid=est.curve.grid)
    reused = build_band(est, sigma, KERN, quantile=q)
    assert direct.sigma_factor == reused.sigma_factor
    assert_array_equal(direct.lower, reused.lower)
    assert_array_equal(direct.upper, reused.upper)

    other = bootstrap_quantile(est.working_n, 0.25, KERN, draws=1500, seed=3)
    with pytest.raises(ConfigurationError):
        build_band(est, sigma, KERN, quantile=other)


def test_build_band_halfwidth_scales_with_sigma():
    est = fitted_estimate()
    sig1 = unit_sigma(est)
    sig3 = CurveOnGrid(grid=sig1.grid, values=3.0 * sig1.values)
    a = build_band(est, sig1, KERN, draws=1200, seed=1)
    c = build_band(est, sig3, KERN, draws=1200, seed=1)
    assert_allclose(c.width, 3.0 * a.width, rtol=1e-12)
    assert_array_equal(a.center, c.center)


def test_build_band_gumbel_halfwidth_formula():
    est = fitted_estimate(b=0.25)
    sigma = CurveOnGrid(
        grid=est.curve.grid,
        values=0.5 + 0.2 * est.curve.grid,
    )
    band = build_band(est, sigma, KERN, method="gumbel", alpha=0.05)
    crit = gumbel_critical(0.25, KERN, 0.05, est.working_n)
    factor = 0.5 * math.sqrt(KERN.phi0 / (est.working_n * 0.25)) * crit
    assert_allclose(band.sigma_factor, factor, rtol=1e-15)
    assert_allclose(band.upper - band.center, factor * sigma.values,
                    rtol=1e-15)
    assert band.method == "gumbel"


def test_build_band_rejects_bad_sigma():
    est = fitted_estimate()
    flat = np.ones_like(est.curve.values)
    zeroed = flat.copy()
    zeroed[3] = 0.0
    with pytest.raises(DegenerateVarianceError):
        build_band(est, CurveOnGrid(grid=est.curve.grid, values=zeroed), KERN,
                   draws=1000)
    shifted = CurveOnGrid(grid=est.curve.grid + 0.001, values=flat)
    with pytest.raises(GridAlignmentError):
        build_band(est, shifted, KERN, draws=1000)
    with pytest.raises(ConfigurationError):
        build_band(est, unit_sigma(est), KERN, method="wavelet")


def test_band_result_ordering_enforced():
    g = np.linspace(0.2, 0.8, 5)
    base = dict(lag=0, grid=g, center=np.ones(5), sigma=np.ones(5),
                sigma_factor=0.1, method="bootstrap", alpha=0.05,
                bandwidth=0.2, working_n=100)
    ok = BandResult(lower=np.zeros(5), upper=np.full(5, 2.0), **base)
    assert_allclose(ok.width, 2.0)
    assert ok.mean_width == 2.0
    bad_upper = np.full(5, 2.0)
    bad_upper[2] = 0.5
    with pytest.raises(ConfigurationError):
        BandResult(lower=np.zeros(5), upper=bad_upper, **base)


def test_coverage_check_boundary_cases():
    est = fitted_estimate()
    sigma = unit_sigma(est)
    band = build_band(est, sigma, KERN, draws=1200, seed=6)
    inside = CurveOnGrid(grid=band.grid, values=band.center.copy())
    assert coverage_check(band, inside)
    poked = band.center.copy()
    poked[0] = band.upper[0] + 1e-9
    assert not coverage_check(band, CurveOnGrid(grid=band.grid, values=poked))
    exact = CurveOnGrid(grid=band.grid, values=band.upper.copy())
    assert coverage_check(band, exact)  # the band is closed
    with pytest.raises(GridAlignmentError):
        coverage_check(band, CurveOnGrid(grid=band.grid[:-1],
                                         values=band.center[:-1]))


def test_build_band_reads_the_proxy_scale_of_a_naive_estimate():
    # the residual-based estimate is the smoothed product itself, so its
    # proxy has scale 1, not the 1/2 of a half-difference estimate
    mean, model = model_preset("model1")
    y = generate(mean, model, 300, 8)
    est = naive_estimate(y, 0, KERN, b_mean=0.2, b_var=0.25)
    assert est.proxy_scale == 1.0
    sigma = unit_sigma(est)
    band = build_band(est, sigma, KERN, draws=1500, seed=3)
    q = bootstrap_quantile(est.working_n, est.bandwidth, KERN, draws=1500,
                           seed=3, grid=est.curve.grid, weight_scale=1.0)
    assert band.sigma_factor == q.quantile
    # a quantile drawn at scale 1/2 belongs to another context
    half = bootstrap_quantile(est.working_n, est.bandwidth, KERN, draws=1500,
                              seed=3, grid=est.curve.grid)
    with pytest.raises(ConfigurationError):
        build_band(est, sigma, KERN, quantile=half)

    # the same context as a half-difference estimate: half the gumbel factor
    diff = replace(est, diff_lag=3)
    assert diff.proxy_scale == 0.5
    naive_g = build_band(est, sigma, KERN, method="gumbel")
    diff_g = build_band(diff, sigma, KERN, method="gumbel")
    assert naive_g.sigma_factor == 2.0 * diff_g.sigma_factor
