"""Long-run covariance of the difference-series noise.

The band width at t is driven by the 2x2 long-run covariance of the centered
difference pair (rho^h_i - beta_h(t_i), rho^k_i - beta_k(t_i)). It is
estimated from overlapping block sums of the fitted residuals:

    Q_i = sum_{|j| <= m} eps_{i+j},   N_i = Q_i Q_i^T / #window,
    Sigma(t) = sum_i wtilde_i(t) N_i,

with Nadaraya-Watson weights wtilde_i(t) = K_tau(t_i - t) / sum_l K_tau. The
estimate is symmetric PSD by construction (a convex combination of rank-one
outer products). Blocks that stick out of 1..n are truncated and divided by
their true size instead of 2m + 1. The weights are built chunk by chunk from
the smoother's kernel rows, so no (grid x n) kernel matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularDesignError
from .kernels import Kernel
from .locallinear import CurveOnGrid, _chunk_rows, _kernel_rows, fit_curve
from .diffseries import difference
from .procgen import TimeSeries

__all__ = [
    "ResidualPair",
    "LongRunCovCurve",
    "SigmaFunctionals",
    "residuals",
    "lrv_curve",
    "sigma_functionals",
]


@dataclass(frozen=True)
class ResidualPair:
    """Centered difference-series residuals, columns (eps^h, eps^k)."""

    eps: np.ndarray
    lags: tuple[int, int]  # (h, k)

    def __post_init__(self) -> None:
        eps = np.asarray(self.eps, dtype=float)
        object.__setattr__(self, "eps", eps)
        h, k = self.lags
        if eps.ndim != 2 or eps.shape[1] != 2 or eps.shape[0] < 2:
            raise ConfigurationError("residuals must be (n, 2) with n >= 2")
        if not np.all(np.isfinite(eps)):
            raise ConfigurationError("residuals contain non-finite values")
        if not 1 <= k <= h:
            raise ConfigurationError(f"lags must satisfy 1 <= k <= h, got {self.lags}")

    @property
    def n(self) -> int:
        return int(self.eps.shape[0])

    @property
    def grid(self) -> np.ndarray:
        return np.arange(1, self.n + 1) / self.n


@dataclass(frozen=True)
class LongRunCovCurve:
    """2x2 long-run covariance matrices on a grid, with their (m, tau)."""

    grid: np.ndarray
    matrices: np.ndarray  # (G, 2, 2)
    m: int
    tau: float

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        mats = np.asarray(self.matrices, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "matrices", mats)
        if mats.shape != (grid.size, 2, 2):
            raise ConfigurationError("matrices must have shape (G, 2, 2)")
        if not np.all(np.isfinite(mats)):
            raise ConfigurationError("long-run covariance is not finite")
        asym = np.max(np.abs(mats[:, 0, 1] - mats[:, 1, 0]))
        if asym > 1e-12:
            raise ConfigurationError(f"matrices asymmetric by {asym:.3e}")
        # PSD check for 2x2: nonnegative trace and determinant (tolerance
        # scaled to the matrix magnitude).
        scale = np.maximum(1.0, np.max(np.abs(mats)))
        tr = mats[:, 0, 0] + mats[:, 1, 1]
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        if np.any(tr < -1e-10 * scale) or np.any(det < -1e-10 * scale * scale):
            raise ConfigurationError("long-run covariance is not PSD")


@dataclass(frozen=True)
class SigmaFunctionals:
    """Band scale curves: sigma_h for the variance target, sigma_{C,k} for
    the lag-k target. ``clipped`` records whether any square root had its
    (tiny, numerically negative) argument clamped to zero."""

    sigma_h: CurveOnGrid
    sigma_ck: CurveOnGrid
    clipped: bool


def _fitted_difference(
    y: TimeSeries, lag: int, b: float, kernel: Kernel, fits: dict
) -> tuple[np.ndarray, np.ndarray]:
    """The squared lag differences and their local-linear fit at their own
    design points, computed once per (lag, b) and kept in ``fits``."""
    key = (lag, float(b))
    if key not in fits:
        rho = difference(y, lag)
        fitted = fit_curve(rho.values, b, kernel, grid=rho.grid).values
        fits[key] = (rho.values, fitted)
    return fits[key]


def _residual_pair(
    y: TimeSeries, k: int, h: int, b: float, kernel: Kernel, fits: dict
) -> ResidualPair:
    """`residuals` computed from (and into) the fits kept in ``fits``."""
    rho_h, fit_h = _fitted_difference(y, h, b, kernel, fits)
    eps_h = rho_h - fit_h
    if k == h:
        eps_k = eps_h
    else:
        rho_k, fit_k = _fitted_difference(y, k, b, kernel, fits)
        eps_k = (rho_k - fit_k)[: rho_h.size]
    return ResidualPair(eps=np.column_stack([eps_h, eps_k]), lags=(h, k))


def residuals(
    y: TimeSeries, k: int, h: int, b: float, kernel: Kernel
) -> ResidualPair:
    """Fitted residuals of the lag-h and lag-k difference series.

    Both series are fitted with the same bandwidth b on their own unit
    grids; the lag-k residuals are truncated to the lag-h length so row i of
    the pair shares the anchor observation y_i. k = h is allowed and gives
    duplicated columns (useful when only the variance component matters).
    """
    if not 1 <= k <= h:
        raise ConfigurationError(f"need 1 <= k <= h, got k={k}, h={h}")
    return _residual_pair(y, k, h, b, kernel, {})


def _block_products(eps: np.ndarray, m: int) -> np.ndarray:
    """Per-index normalized outer products of the +-m block sums.

    Returns (n, 3): columns Qh^2, Qh Qk, Qk^2, each divided by the actual
    window size (2m + 1 in the interior, less at the edges).
    """
    n = eps.shape[0]
    prefix = np.vstack([np.zeros((1, 2)), np.cumsum(eps, axis=0)])
    idx = np.arange(n)
    lo = np.maximum(idx - m, 0)
    hi = np.minimum(idx + m, n - 1)
    q = prefix[hi + 1] - prefix[lo]
    count = (hi - lo + 1).astype(float)
    out = np.empty((n, 3))
    out[:, 0] = q[:, 0] * q[:, 0] / count
    out[:, 1] = q[:, 0] * q[:, 1] / count
    out[:, 2] = q[:, 1] * q[:, 1] / count
    return out


def _smoothed_blocks(
    eps: np.ndarray, ms, tau: float, kernel: Kernel, grid: np.ndarray
) -> np.ndarray:
    """Sigma(t) on ``grid`` for each half-width in ``ms`` at span tau, shape
    (len(ms), G, 2, 2): each chunk of kernel rows is normalized once and
    multiplied once by the (n x 3M) stack of every width's block products."""
    n = eps.shape[0]
    nmat = np.hstack([_block_products(eps, m) for m in ms])
    flat = np.empty((grid.size, nmat.shape[1]))
    step = _chunk_rows(n)
    for lo in range(0, grid.size, step):
        kv = _kernel_rows(grid[lo : lo + step], n, tau, kernel)[0]
        rowsum = kv.sum(axis=1)
        if np.any(rowsum <= 0.0):
            g = lo + int(np.argmax(rowsum <= 0.0))
            raise SingularDesignError(
                f"empty smoothing window at t={grid[g]:.6g} for tau={tau}"
            )
        kv /= rowsum[:, None]
        flat[lo : lo + step] = kv @ nmat
        del kv  # free this chunk before the next is built
    # (G, 3M) -> (M, G, 3) -> entries (11, 12, 21, 22) of each 2x2 matrix
    flat = flat.reshape(grid.size, len(ms), 3).transpose(1, 0, 2)
    return flat[..., [0, 1, 1, 2]].reshape(len(ms), grid.size, 2, 2)


def lrv_curve(
    res: ResidualPair,
    m: int,
    tau: float,
    kernel: Kernel,
    grid: np.ndarray | None = None,
) -> LongRunCovCurve:
    """Kernel-smoothed block estimate of the 2x2 long-run covariance.

    Parameters
    ----------
    res : ResidualPair
    m : int
        Block half-width, 1 <= m <= n/4.
    tau : float
        Smoothing span in (0, 1/2). Default grid: design points inside
        [tau, 1 - tau]; any grid in [0, 1] is accepted (the weights stay a
        convex combination, so the PSD property is preserved).
    kernel : Kernel
    grid : ndarray, optional
    """
    n = res.n
    if not 1 <= m <= n // 4:
        raise ConfigurationError(f"block half-width m must be in [1, {n // 4}]")
    tau = float(tau)
    if not 0.0 < tau < 0.5:
        raise ConfigurationError("tau must be in (0, 1/2)")
    t_data = res.grid
    if grid is None:
        grid = t_data[(t_data >= tau) & (t_data <= 1.0 - tau)]
        if grid.size == 0:
            raise ConfigurationError("no design points inside [tau, 1-tau]")
    grid = np.asarray(grid, dtype=float)

    mats = _smoothed_blocks(res.eps, [m], tau, kernel, grid)[0]
    return LongRunCovCurve(grid=grid, matrices=mats, m=m, tau=tau)


def sigma_functionals(lrv: LongRunCovCurve) -> SigmaFunctionals:
    """Pointwise band scales from a long-run covariance curve.

    sigma_h(t) = sqrt(Sigma_11(t)) scales the variance band and
    sigma_{C,k}(t) = sqrt((1,-1) Sigma(t) (1,-1)^T) the lag-k band. Any
    negative argument (possible only through rounding, the form is PSD) is
    clamped to 0 and flagged.
    """
    mats = lrv.matrices
    v_h = mats[:, 0, 0]
    v_ck = mats[:, 0, 0] - 2.0 * mats[:, 0, 1] + mats[:, 1, 1]
    clipped = bool(np.any(v_h < 0.0) or np.any(v_ck < 0.0))
    sigma_h = np.sqrt(np.maximum(v_h, 0.0))
    sigma_ck = np.sqrt(np.maximum(v_ck, 0.0))
    return SigmaFunctionals(
        sigma_h=CurveOnGrid(grid=lrv.grid, values=sigma_h),
        sigma_ck=CurveOnGrid(grid=lrv.grid, values=sigma_ck),
        clipped=clipped,
    )
