"""Bandwidth cross-validation and block-parameter selection."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tvacov.errors import ConfigurationError, SingularDesignError, TuningError
from tvacov.kernels import epanechnikov
from tvacov.diffseries import difference
from tvacov.locallinear import fit_at_data, unit_grid, weight_matrix
from tvacov.lrv import ResidualPair, lrv_curve, residuals
from tvacov.procgen import generate, model_preset
from tvacov.tuning import (
    default_bandwidth_grid,
    default_block_grid,
    default_span_grid,
    gcv_bandwidth,
    min_volatility,
    select_pair_from_curves,
)

KERN = epanechnikov()


def test_gcv_score_matches_explicit_formula():
    rng = np.random.default_rng(42)
    n = 60
    t = np.arange(1, n + 1) / n
    v = np.cos(2 * np.pi * t) + rng.normal(0, 0.3, n)
    grid = np.array([0.2, 0.3, 0.4])
    res = gcv_bandwidth(v, grid)
    for j, b in enumerate(grid):
        fitted, trace = fit_at_data(v, float(b), KERN)
        r = v - fitted
        expected = np.mean(r * r) / (1.0 - trace / n) ** 2
        assert_allclose(res.scores[j], expected, rtol=1e-14)
    assert res.bandwidth == grid[np.argmin(res.scores)]


def test_gcv_shift_invariance():
    # adding a constant leaves local-linear residuals unchanged, so the
    # whole score curve and the selection must survive a level shift
    rng = np.random.default_rng(5)
    n = 150
    t = np.arange(1, n + 1) / n
    v = np.sin(3 * t) + rng.normal(0, 0.4, n)
    a = gcv_bandwidth(v)
    b = gcv_bandwidth(v + 7.5)
    assert_allclose(a.scores, b.scores, rtol=0, atol=1e-10)
    assert a.bandwidth == b.bandwidth


def test_gcv_noise_free_line_picks_largest_bandwidth():
    n = 80
    t = np.arange(1, n + 1) / n
    v = 1.5 - 0.75 * t
    assert gcv_bandwidth(v).bandwidth == 0.45
    assert gcv_bandwidth(v, np.array([0.2, 0.35, 0.3])).bandwidth == 0.35


def test_gcv_default_grid():
    g = default_bandwidth_grid()
    assert g.size == 31
    assert g[0] == 0.15 and g[-1] == 0.45
    assert_allclose(np.diff(g), 0.01, rtol=1e-9)
    rng = np.random.default_rng(1)
    res = gcv_bandwidth(rng.normal(size=100))
    assert_array_equal(res.bandwidths, g)


def test_gcv_oscillating_signal_interior_minimum():
    """A sharp oscillation needs a small bandwidth, a noisy one not too
    small; on a grid that brackets that trade-off the score minimum lands
    strictly inside for 95 of these 100 seeds."""
    n = 400
    t = np.arange(1, n + 1) / n
    grid = np.round(np.linspace(0.03, 0.30, 28), 10)
    interior = 0
    for s in range(100):
        rng = np.random.default_rng(s)
        v = np.sin(4 * np.pi * t) + rng.normal(0, 0.5, n)
        b = gcv_bandwidth(v, grid).bandwidth
        interior += grid[0] < b < grid[-1]
    assert interior >= 90


def test_gcv_all_candidates_fail():
    rng = np.random.default_rng(0)
    v = rng.normal(size=10)
    with pytest.raises(TuningError):
        gcv_bandwidth(v, np.array([0.01]))


@pytest.mark.parametrize("model, seed", [("model1", 1), ("model3", 2)])
def test_gcv_matches_the_dense_fit_on_model_series(model, seed):
    # GCV fits by sliding correlations; the dense hat matrix (the rows of
    # fit_curve on unit_grid(n)) must give the same scores and the same
    # choice on the series GCV sees
    y = generate(*model_preset(model), 800, seed)
    for v in (y.values, difference(y, 3).values):
        res = gcv_bandwidth(v)
        n = v.size
        want = np.empty(res.bandwidths.size)
        for j, b in enumerate(res.bandwidths):
            H = weight_matrix(n, unit_grid(n), float(b), KERN)
            r = v - H @ v
            want[j] = np.mean(r * r) / (1.0 - np.trace(H) / n) ** 2
        assert_allclose(res.scores, want, rtol=1e-12)
        assert res.bandwidth == np.max(res.bandwidths[want == want.min()])


def test_gcv_needs_four_points_in_every_window():
    # at n = 68, b = 3/68 the end windows hold 3 points; the dense rows
    # round t_i - t_j and give the point at |i - j| = 3 a kernel value of
    # about 1e-16, GCV counts only the 3 and scores the candidate inf
    v = np.random.default_rng(6).normal(size=68)
    res = gcv_bandwidth(v, np.array([3 / 68, 0.3]))
    assert res.scores[0] == np.inf
    assert np.isfinite(res.scores[1]) and res.bandwidth == 0.3


def test_gcv_validation():
    with pytest.raises(ConfigurationError):
        gcv_bandwidth(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ConfigurationError):
        gcv_bandwidth(np.ones(20), np.array([]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gcv_rejects_a_non_finite_series(bad):
    # a configuration error (exit 2), as in fit_curve, not "every bandwidth
    # candidate failed" (exit 5)
    v = np.random.default_rng(0).normal(size=200)
    v[50] = bad
    with pytest.raises(ConfigurationError, match="non-finite"):
        gcv_bandwidth(v)


@pytest.mark.parametrize("grid", [[0.6, 0.7], [0.2, 0.7], [0.0, 0.2],
                                  [0.2, np.nan], [0.2, np.inf], [0.5]])
def test_gcv_rejects_candidates_outside_the_open_half_interval(grid):
    v = np.random.default_rng(0).normal(size=200)
    with pytest.raises(ConfigurationError, match="must be in"):
        gcv_bandwidth(v, np.array(grid))


def test_default_block_grid_values():
    assert_array_equal(default_block_grid(400), [4, 6, 8, 10, 11, 13, 15])
    assert_array_equal(default_block_grid(100), [3, 4, 5, 6, 8, 9, 10])
    with pytest.raises(ConfigurationError):
        default_block_grid(3)


def test_default_span_grid_values():
    assert_array_equal(default_span_grid(), [0.10, 0.15, 0.20, 0.25, 0.30])


def flat_curves(m1, m2, G):
    t_grid = np.linspace(0.0, 1.0, G)
    curves = np.tile(np.eye(2), (m1, m2, G, 1, 1))
    valid = np.ones((m1, m2), dtype=bool)
    return curves, valid, t_grid


def test_select_pair_all_tied_takes_smallest_interior():
    m_grid = np.array([2, 4, 6, 8, 10, 12, 14])
    tau_grid = default_span_grid()
    curves, valid, t_grid = flat_curves(7, 5, 40)
    res = select_pair_from_curves(curves, valid, m_grid, tau_grid, t_grid)
    assert res.m == m_grid[2]
    assert res.tau == tau_grid[2]
    interior = np.isfinite(res.ise)
    assert interior.sum() == 3  # i in {2,3,4}, j = 2 only
    assert_allclose(res.ise[interior], 0.0, atol=0)


def test_select_pair_contaminated_neighborhood_loses():
    """Inflating one curve that belongs to exactly one neighborhood must
    push the selection away from that pair."""
    m_grid = np.array([2, 4, 6, 8, 10, 12, 14])
    tau_grid = default_span_grid()
    G = 40
    curves, valid, t_grid = flat_curves(7, 5, G)
    rng = np.random.default_rng(3)
    curves = curves + 0.05 * rng.normal(size=curves.shape)
    # make the middle interior pair's neighborhood the calmest
    for i, j in [(r, 2) for r in range(1, 6)] + [(3, c) for c in range(5)]:
        curves[i, j] = np.eye(2) + 0.001 * rng.normal(size=(G, 2, 2))
    base = select_pair_from_curves(curves, valid, m_grid, tau_grid, t_grid)
    assert base.m == m_grid[3]

    bumped = curves.copy()
    bumped[3, 4] += 5.0  # member of (3, 2)'s neighborhood and nobody else's
    res = select_pair_from_curves(bumped, valid, m_grid, tau_grid, t_grid)
    assert res.m != m_grid[3]
    assert res.ise[3, 2] > 10 * res.ise[2, 2]


def test_select_pair_invalid_curves_poison_their_neighborhoods():
    m_grid = np.array([2, 4, 6, 8, 10, 12, 14])
    tau_grid = default_span_grid()
    curves, valid, t_grid = flat_curves(7, 5, 25)
    valid[1, 2] = False  # sits in the row neighborhoods of (2,2) and (3,2)
    res = select_pair_from_curves(curves, valid, m_grid, tau_grid, t_grid)
    assert np.isinf(res.ise[2, 2])
    assert np.isinf(res.ise[3, 2])
    assert res.m == m_grid[4]


def test_select_pair_nothing_scorable():
    m_grid = np.array([2, 4, 6, 8, 10, 12, 14])
    tau_grid = default_span_grid()
    curves, valid, t_grid = flat_curves(7, 5, 25)
    valid[:] = False
    with pytest.raises(TuningError):
        select_pair_from_curves(curves, valid, m_grid, tau_grid, t_grid)


def test_select_pair_grid_validation():
    curves, valid, t_grid = flat_curves(4, 5, 10)
    with pytest.raises(ConfigurationError):
        select_pair_from_curves(curves, valid, np.arange(4), default_span_grid(),
                                t_grid)
    curves, valid, t_grid = flat_curves(7, 5, 10)
    with pytest.raises(ConfigurationError):
        select_pair_from_curves(curves[:5], valid, np.arange(7),
                                default_span_grid(), t_grid)


def iid_pair(seed, n=400):
    rng = np.random.default_rng(seed)
    return ResidualPair(eps=rng.normal(size=(n, 2)), lags=(3, 1))


def test_min_volatility_deterministic_and_frozen():
    a = min_volatility(iid_pair(7))
    b = min_volatility(iid_pair(7))
    assert (a.m, a.tau) == (b.m, b.tau)
    assert_array_equal(a.ise, b.ise)
    assert (a.m, a.tau) == (8, 0.2)
    # with the default grids only the middle span is interior, so every
    # selection reports tau = 0.2 and m comes from {8, 10, 11}
    finite = np.isfinite(a.ise)
    ii, jj = np.nonzero(finite)
    assert set(a.m_grid[ii]) <= {8, 10, 11}
    assert set(np.round(a.tau_grid[jj], 10)) == {0.2}


def test_min_volatility_grid_order_irrelevant():
    m_shuffled = np.array([12, 4, 16, 8, 6, 14, 10])
    tau_shuffled = np.array([0.30, 0.10, 0.20, 0.25, 0.15])
    a = min_volatility(iid_pair(9), m_grid=np.sort(m_shuffled),
                       tau_grid=np.sort(tau_shuffled))
    b = min_volatility(iid_pair(9), m_grid=m_shuffled, tau_grid=tau_shuffled)
    assert (a.m, a.tau) == (b.m, b.tau)
    assert_array_equal(a.ise, b.ise)


def test_min_volatility_dependence_raises_block_size():
    """Persistent residuals need wider blocks than independent ones.

    For AR(1) with coefficient 0.8 the curve family keeps shifting as m
    grows until the blocks span the dependence, so the calmest
    neighborhood sits at larger m than for white noise, where dispersion
    only grows with m. The contrast needs n large enough that estimation
    noise does not swamp those systematic shifts; at this n the AR choice
    is strictly larger in every paired seed.
    """
    def ar1(rng, n, phi=0.8):
        z = rng.normal(size=n + 100)
        x = np.empty(n + 100)
        x[0] = z[0] / np.sqrt(1 - phi * phi)
        for i in range(1, n + 100):
            x[i] = phi * x[i - 1] + z[i]
        return x[100:]

    n = 2000
    m_grid = np.arange(2, 21)
    for s in range(6):
        rng = np.random.default_rng(1000 + s)
        m_iid = min_volatility(
            ResidualPair(eps=rng.normal(size=(n, 2)), lags=(3, 1)),
            m_grid=m_grid,
        ).m
        e_ar = np.column_stack([ar1(rng, n), ar1(rng, n)])
        m_ar = min_volatility(ResidualPair(eps=e_ar, lags=(3, 1)),
                              m_grid=m_grid).m
        assert m_iid <= 5
        assert m_ar >= 6
        assert m_ar > m_iid


def test_min_volatility_needs_five_per_axis():
    with pytest.raises(ConfigurationError):
        min_volatility(iid_pair(0), m_grid=np.array([2, 3, 4, 5]))
    with pytest.raises(ConfigurationError):
        min_volatility(iid_pair(0), tau_grid=np.array([0.1, 0.2, 0.3, 0.4]))


def per_pair_min_volatility(res, m_grid, tau_grid):
    """Minimum volatility the long way: one `lrv_curve` per (m, tau) on the
    design points inside [tau, 1 - tau], nearest-value padding to all design
    points, a pair whose call raises left invalid."""
    t = res.grid
    curves = np.zeros((len(m_grid), len(tau_grid), t.size, 2, 2))
    valid = np.zeros(curves.shape[:2], dtype=bool)
    for j, tau in enumerate(tau_grid):
        inside = np.flatnonzero((t >= tau) & (t <= 1.0 - tau))
        if inside.size == 0:
            continue
        lo, hi = inside[0], inside[-1] + 1
        for i, m in enumerate(m_grid):
            try:
                c = lrv_curve(res, int(m), float(tau), KERN, grid=t[lo:hi])
            except (SingularDesignError, ConfigurationError):
                continue
            curves[i, j, :lo] = c.matrices[0]
            curves[i, j, lo:hi] = c.matrices
            curves[i, j, hi:] = c.matrices[-1]
            valid[i, j] = True
    return select_pair_from_curves(curves, valid, m_grid, tau_grid, t)


def ar1_pair(seed, n=400, phi=0.6):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n + 100, 2))
    x = np.empty_like(z)
    x[0] = z[0]
    for i in range(1, n + 100):
        x[i] = phi * x[i - 1] + z[i]
    return ResidualPair(eps=x[100:], lags=(3, 1))


@pytest.mark.parametrize("pair", ["iid", "ar1", "model1"])
@pytest.mark.parametrize("grids", ["default", "out_of_range"])
def test_min_volatility_matches_per_pair_curves(pair, grids):
    # every block width of a span is smoothed in one pass; the choice, the
    # pattern of unscored pairs and the scores must match one lrv_curve
    # call per pair (stacked products may round differently in the last bit)
    res = {
        "iid": lambda: iid_pair(3),
        "ar1": lambda: ar1_pair(4),
        "model1": lambda: residuals(
            generate(*model_preset("model1"), 400, 1), 1, 3, 0.2, KERN),
    }[pair]()
    m_grid, tau_grid = default_block_grid(res.n), default_span_grid()
    if grids == "out_of_range":
        # m = n // 4 + 1 and tau = 0.5 (whose only design point is t = 1/2
        # for even n) are invalid, so their neighborhoods score inf
        m_grid = np.array([2, 3, 5, 8, 11, 14, res.n // 4 + 1])
        tau_grid = np.array([0.10, 0.15, 0.20, 0.25, 0.30, 0.50])
    got = min_volatility(res, m_grid=m_grid, tau_grid=tau_grid, kernel=KERN)
    want = per_pair_min_volatility(res, m_grid, tau_grid)
    assert (got.m, got.tau) == (want.m, want.tau)
    assert_array_equal(np.isfinite(got.ise), np.isfinite(want.ise))
    assert_array_equal(np.isnan(got.ise), np.isnan(want.ise))
    finite = np.isfinite(want.ise)
    assert_allclose(got.ise[finite], want.ise[finite], rtol=1e-12, atol=0)
    if grids == "out_of_range":
        assert np.isinf(want.ise).any() and finite.any()


@pytest.mark.parametrize("power", [-60, -30, 0, 30, 60])
def test_gcv_noise_free_series_pick_largest_bandwidth_at_any_scale(power):
    t = np.arange(1, 81) / 80
    c = 2.0**power
    for v in (c * (1.5 - 0.75 * t), np.full(80, c), np.zeros(80)):
        assert gcv_bandwidth(v).bandwidth == 0.45
