"""Difference-based curve estimates of time-varying autocovariance.

With beta_k(t) = E(y_i - y_{i-k})^2 = 2 gamma_0(t) - 2 gamma_k(t) for a lag
k beyond the dependence range h of the noise,

    gamma0_hat(t) = betahat_{h}(t) / 2,
    gammak_hat(t) = (betahat_{h}(t) - betahat_{k}(t)) / 2,   1 <= k < h,

where each betahat is a local-linear fit of the squared difference series.
Trends never enter except through the ~lag-many points straddling each level
shift, which is what makes these estimates jump-robust. The classical
residual-based estimator is provided for comparison; it inherits the full
bias of a smoothed trend fit.

`estimate_lags` runs the whole per-lag chain behind a band: bandwidth,
estimate, residuals, blocks, long-run covariance and band scales.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .diffseries import difference, select_lag
from .errors import ConfigurationError, InvalidLagError, _check_values
from .kernels import Kernel
from .locallinear import CurveOnGrid, _in_band_range, fit_curve, interior_grid, unit_grid
from .lrv import (
    ResidualPair,
    SigmaFunctionals,
    _fitted_difference,
    _residual_pair,
    lrv_curve,
    sigma_functionals,
)
from .procgen import TimeSeries
from .tuning import (check_bandwidth_grid, default_bandwidth_grid,
                     gcv_bandwidth, min_volatility)

__all__ = [
    "AcovEstimate",
    "LagEstimate",
    "estimate_gamma0",
    "estimate_gammak",
    "estimate_lags",
    "naive_estimate",
]


@dataclass(frozen=True)
class AcovEstimate:
    """A fitted autocovariance curve and the settings that produced it.

    ``working_n`` is the effective sample length behind the fit (N - h for
    the difference-based estimates); the band machinery needs it.
    ``diff_lag`` is None for the residual-based estimator.
    ``has_negative`` flags sign violations of a nonnegative target (lag 0);
    values are reported as-is, never clipped.
    """

    lag: int
    curve: CurveOnGrid
    bandwidth: float
    working_n: int
    diff_lag: int | None
    has_negative: bool = False
    mean_bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.lag < 0:
            raise ConfigurationError("lag must be >= 0")
        if self.working_n < 2:
            raise ConfigurationError("working length must be >= 2")

    @property
    def proxy_scale(self) -> float:
        """Band proxy coefficient: 1/2 for half differences, else 1."""
        return 1.0 if self.diff_lag is None else 0.5


@dataclass(frozen=True)
class LagEstimate:
    """One lag's curve estimate, its band scales, and the block parameters
    (m, tau) of the long-run covariance behind them."""

    estimate: AcovEstimate
    sigma: SigmaFunctionals
    m: int
    tau: float

    @property
    def b(self) -> float:
        return self.estimate.bandwidth

    @property
    def scale(self) -> CurveOnGrid:
        """The band scale: sigma_h at lag 0, sigma_{C,k} at lag k."""
        if self.estimate.lag == 0:
            return self.sigma.sigma_h
        return self.sigma.sigma_ck


def _interior(fitted: np.ndarray, b: float) -> CurveOnGrid:
    """A fit at the design points i/n, restricted to [b, 1-b]."""
    t = unit_grid(fitted.size)
    inside = _in_band_range(t, b)
    return CurveOnGrid(grid=t[inside], values=fitted[inside])


def _difference_estimate(
    y: TimeSeries,
    lag: int,
    h: int,
    b: float,
    kernel: Kernel,
    grid: np.ndarray | None,
    fits: dict,
) -> AcovEstimate:
    """The gamma_lag estimate on ``grid``; with grid None, on the lag-h
    design points in [b, 1-b], read off the lag-h fit kept in ``fits``."""
    if grid is None:
        curve = _interior(_fitted_difference(y, h, b, kernel, fits)[1], b)
    else:
        curve = fit_curve(difference(y, h).values, b, kernel, grid=grid)
    level = curve.values
    if lag > 0:
        rho_k = difference(y, lag).values
        level = level - fit_curve(rho_k, b, kernel, grid=curve.grid).values
    vals = 0.5 * level
    return AcovEstimate(
        lag=lag,
        curve=CurveOnGrid(grid=curve.grid, values=vals),
        bandwidth=float(b),
        working_n=y.n - h,
        diff_lag=h,
        has_negative=bool(lag == 0 and np.any(vals < 0.0)),
    )


def estimate_gamma0(
    y: TimeSeries,
    h: int,
    b: float,
    kernel: Kernel,
    grid: np.ndarray | None = None,
) -> AcovEstimate:
    """Time-varying variance estimate from the lag-h difference series.

    Parameters
    ----------
    y : TimeSeries
    h : int
        Truncation lag; the lag-h autocovariance must be negligible for the
        estimate to be unbiased.
    b : float
        Bandwidth for the local-linear fit.
    kernel : Kernel
    grid : ndarray, optional
        Evaluation points; default is the difference-series design grid
        restricted to [b, 1-b].
    """
    if grid is None:
        grid = interior_grid(difference(y, h).n, b)
    return _difference_estimate(y, 0, h, b, kernel, grid, {})


def estimate_gammak(
    y: TimeSeries,
    k: int,
    h: int,
    b: float,
    kernel: Kernel,
    grid: np.ndarray | None = None,
) -> AcovEstimate:
    """Time-varying lag-k autocovariance from two difference series.

    Both the lag-h and the lag-k series are fitted with the same bandwidth b
    on their own unit grids and combined on the common evaluation grid:
    half their difference estimates gamma_k. Requires 1 <= k < h.
    """
    if not 1 <= k < h:
        raise InvalidLagError(f"need 1 <= k < h, got k={k}, h={h}")
    if grid is None:
        grid = interior_grid(difference(y, h).n, b)
    return _difference_estimate(y, k, h, b, kernel, grid, {})


def _band_scale(
    pair: ResidualPair,
    m: int | None,
    tau: float | None,
    kernel: Kernel,
    grid: np.ndarray,
) -> tuple[SigmaFunctionals, int, float]:
    """Band scales on ``grid`` from the block long-run covariance of a
    residual pair; an m or tau left None comes from minimum volatility."""
    if m is None or tau is None:
        mv = min_volatility(pair, kernel=kernel)
        m = mv.m if m is None else m
        tau = mv.tau if tau is None else tau
    m, tau = int(m), float(tau)
    return sigma_functionals(lrv_curve(pair, m, tau, kernel, grid=grid)), m, tau


def _per_lag(value, count: int, what: str) -> list:
    values = (value,) if value is None or np.isscalar(value) else tuple(value)
    if len(values) == 1:
        return list(values) * count
    if len(values) != count:
        want = "one value" if count == 1 else f"one value or {count}"
        raise ConfigurationError(f"{what} takes {want}, got {len(values)}")
    return list(values)


def _check_block_width(m: Sequence[int | None], n_work: int) -> None:
    """Every fixed m, >= 1 by `_check_ranges`, must be <= n_work // 4."""
    top = n_work // 4
    _check_values(m, lambda v: v <= top,
                  f"block half-width m must be in [1, {top}] for working "
                  f"length {n_work}")


def _check_ranges(b_h, b_k, m, tau) -> None:
    """The rules on fixed tuning values that need no length."""
    for what, values in (("b_h", b_h), ("b_k", b_k), ("tau", tau)):
        _check_values(values, lambda v: 0.0 < v < 0.5,  # NaN fails
                      f"{what} must be in (0, 1/2)")
    _check_values(m, lambda v: v >= 1, "m must be >= 1")


def _check_settings(n: int, h: int | None, lags: tuple[int, ...], b_h=None,
                    b_k=None, m=None, tau=None, bandwidths=None,
                    grid_points=None) -> tuple[list, list, list]:
    """The checks of `estimate_lags` that need no data, for a series of
    length n: lags against h, h against n, ``grid_points``, which lags the
    bandwidths go to, the per-lag counts, `_check_ranges`, the bandwidth
    grid (`check_bandwidth_grid`), and a fixed m against the working
    length of the smallest h; with n, h and lags alone, as a study passes
    them, only the first two. Returns b_k per positive lag and m and tau
    per lag."""
    # the scan returns an h above max(lags), so h_low is the smallest h
    h_low = max(lags, default=0) + 1 if h is None else h
    if not lags or min(lags) < 0 or max(lags) >= h_low:
        raise ConfigurationError(f"every lag must be in [0, h={h_low})")
    if not 1 <= h_low < n - 2:
        raise ConfigurationError(f"h={h_low} out of range for n={n}")
    if grid_points is not None and grid_points < 1:
        raise ConfigurationError(f"grid_points must be >= 1, got {grid_points}")
    if b_h is not None and 0 not in lags:
        raise ConfigurationError("b_h is the lag-0 bandwidth, but lags has "
                                 "no 0")
    positive = sum(k > 0 for k in lags)
    if b_k is not None and not positive:
        raise ConfigurationError("b_k is the bandwidth of lags k > 0, but "
                                 "lags has none")
    b_k = _per_lag(b_k, positive, "b_k")
    m = _per_lag(m, len(lags), "m")
    tau = _per_lag(tau, len(lags), "tau")
    _check_ranges(b_h, b_k, m, tau)
    if bandwidths is not None:
        check_bandwidth_grid(bandwidths)
    _check_block_width(m, n - h_low)
    return b_k, m, tau


def _truncation_lag(y: TimeSeries, h, lags, kernel: Kernel, b_h,
                    bandwidths) -> tuple[int, float | None]:
    """h, at least max(lags) + 1 when the lag scan picks it (h None), and
    the lag-0 bandwidth: b_h, or with b_h None the scan's choice b for the
    lag-h series when ``bandwidths`` are on the scan's default grid and hold
    all its values up to b: b is its largest minimizer, so scoring them
    again would return b."""
    if h is None:
        sel = select_lag(y, kernel=kernel)
        h = max(sel.h, max(lags) + 1)
        if b_h is None and h <= sel.h0:
            b = sel.bandwidths[h - 1]
            scored = default_bandwidth_grid()
            cand = scored if bandwidths is None else np.asarray(bandwidths)
            if (np.isin(cand, scored).all()
                    and np.isin(scored[scored <= b], cand).all()):
                b_h = b
    return h, b_h


def estimate_lags(
    y: TimeSeries,
    h: int | None,
    lags: Sequence[int],
    kernel: Kernel,
    b_h: float | None = None,
    b_k: float | Sequence[float | None] | None = None,
    m: int | Sequence[int | None] | None = None,
    tau: float | Sequence[float | None] | None = None,
    bandwidths: np.ndarray | None = None,
    grid_points: int | None = None,
) -> list[LagEstimate]:
    """Estimate and band scales for each lag, 0 <= lag < h < N - 2; h None
    runs the lag scan `select_lag`, whose lag-h bandwidth lag 0 reuses when
    ``b_h`` is None and scoring ``bandwidths`` would return it too.

    Per lag: the bandwidth (``b_h`` at lag 0, ``b_k`` at lag k; None
    cross-validates over ``bandwidths``, on the lag-h series at lag 0 and on
    lag-h minus lag-k at lag k), the estimate of `estimate_gamma0` /
    `estimate_gammak`, the pair of `residuals` (k = 1 at lag 0), its blocks
    (minimum volatility picks an ``m`` or ``tau`` left None) and
    `sigma_functionals` on the estimate's grid. ``b_k``, ``m`` and ``tau``
    take one value or one per (positive) lag; a fixed ``b_h`` needs lag 0,
    ``b_k`` a positive lag, fixed bandwidths and ``tau`` lie in (0, 1/2) and
    ``m`` in [1, (N - h) // 4], all checked before any tuning or scan.
    ``grid_points`` evaluates on that many (at least 1) equispaced points of
    [b, 1-b] instead of the design points.

    Each difference series is fitted once per (lag, bandwidth) at its design
    points, and each band scale computed once (lags 0 and 1 share one);
    residuals and default-grid lag-h levels are read off that fit, so
    centers match the step-by-step functions to rounding, not bitwise.
    """
    lags = tuple(int(k) for k in lags)
    b_k, m, tau = _check_settings(y.n, h, lags, b_h, b_k, m, tau, bandwidths,
                                  grid_points)
    h, b_h = _truncation_lag(y, h, lags, kernel, b_h, bandwidths)
    _check_block_width(m, y.n - h)
    b_k = iter(b_k)
    b = [b_h if k == 0 else next(b_k) for k in lags]

    rho_h = difference(y, h).values
    fits: dict = {}
    # the band grid is a function of the bandwidth, so it needs no key
    scales: dict = {}
    out = []
    for lag, b_lag, m_lag, tau_lag in zip(lags, b, m, tau):
        if b_lag is None:
            target = rho_h
            if lag > 0:
                target = rho_h - difference(y, lag).values[: rho_h.size]
            b_lag = gcv_bandwidth(target, bandwidths, kernel).bandwidth
        b_lag = float(b_lag)
        grid = None
        if grid_points is not None:
            grid = np.linspace(b_lag, 1.0 - b_lag, int(grid_points))
        band_grid = interior_grid(rho_h.size, b_lag) if grid is None else grid
        key = (max(lag, 1), b_lag, m_lag, tau_lag)
        if key not in scales:
            pair = _residual_pair(y, max(lag, 1), h, b_lag, kernel, fits)
            scales[key] = _band_scale(pair, m_lag, tau_lag, kernel, band_grid)
        sigma, m_lag, tau_lag = scales[key]
        est = _difference_estimate(y, lag, h, b_lag, kernel, grid, fits)
        out.append(LagEstimate(est, sigma, m_lag, tau_lag))
    return out


def _lag_products(
    y: TimeSeries,
    lags: Sequence[int],
    kernel: Kernel,
    b_mean: float | None,
    b_var: float | None,
    bandwidths: np.ndarray | None,
) -> tuple[float, list[tuple[np.ndarray, float]]]:
    """Detrend once, then per lag the products of the residuals at that lag
    and their smoothing bandwidth. Bandwidths left None are cross-validated
    over ``bandwidths``; the trend bandwidth is returned first."""
    if b_mean is None:
        b_mean = gcv_bandwidth(y.values, bandwidths, kernel).bandwidth
    resid = y.values - fit_curve(y.values, b_mean, kernel, grid=y.grid).values
    out = []
    for k in lags:
        prods = resid * resid if k == 0 else resid[k:] * resid[:-k]
        b = b_var
        if b is None:
            b = gcv_bandwidth(prods, bandwidths, kernel).bandwidth
        out.append((prods, float(b)))
    return float(b_mean), out


def _naive_acov(k: int, curve: CurveOnGrid, b_var: float, b_mean: float,
                working_n: int) -> AcovEstimate:
    return AcovEstimate(
        lag=k,
        curve=curve,
        bandwidth=b_var,
        working_n=working_n,
        diff_lag=None,
        has_negative=bool(k == 0 and np.any(curve.values < 0.0)),
        mean_bandwidth=b_mean,
    )


def naive_estimate(
    y: TimeSeries,
    k: int,
    kernel: Kernel,
    b_mean: float | None = None,
    b_var: float | None = None,
    grid: np.ndarray | None = None,
    bandwidths: np.ndarray | None = None,
) -> AcovEstimate:
    """Residual-based autocovariance estimate (detrend, then smooth).

    The trend is fitted by a local-linear smoother (bandwidth ``b_mean``,
    cross-validated when omitted); the lag-k residual products are then
    smoothed again (bandwidth ``b_var``, likewise cross-validated). No
    differencing is involved: level shifts leak into the residuals over a
    full bandwidth neighborhood, and the tests document how badly the bands
    fail under jumps.
    """
    if k < 0 or k > y.n - 2:
        raise InvalidLagError(f"lag {k} invalid for length {y.n}")
    b_mean, [(prods, b_var)] = _lag_products(y, (k,), kernel, b_mean, b_var,
                                             bandwidths)
    if grid is None:
        grid = interior_grid(prods.size, b_var)
    fit = fit_curve(prods, b_var, kernel, grid=grid)
    return _naive_acov(k, fit, b_var, b_mean, prods.size)
