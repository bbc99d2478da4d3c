"""Data-driven smoothing parameters.

Two rules live here. Generalized cross-validation picks the local-linear
bandwidth by minimizing

    GCV(b) = n^-1 sum_i (v_i - vhat_i(b))^2 / (1 - trace(H(b))/n)^2

over a candidate grid (default 0.15..0.45 in steps of 0.01). The fit and
the trace at the design points come from `locallinear._design_fit`, five
sliding correlations at O(n * n b) per candidate, which match the dense
`fit_at_data` to about 1e-14. The block parameters (m, tau) of the
long-run covariance are picked by extended minimum volatility: every
interior grid pair is scored by the integrated sample dispersion of the
nine curves in its cross-shaped neighborhood, and the most stable pair
wins. Each span is smoothed once, for every block width.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularDesignError, TuningError
from .kernels import Kernel, epanechnikov
from .locallinear import _design_fit
from .lrv import LongRunCovCurve, ResidualPair, _smoothed_blocks

__all__ = [
    "GcvResult",
    "MinVolResult",
    "check_bandwidth_grid",
    "default_bandwidth_grid",
    "gcv_bandwidth",
    "default_block_grid",
    "default_span_grid",
    "min_volatility",
    "select_pair_from_curves",
]

# Scores within this margin, relative to the minimum or the mean square of the
# series if larger, count as tied; ties go to the largest bandwidth, so
# noise-free data picks the top of the grid at any scale.
_TIE_EPS = 1e-12


def default_bandwidth_grid() -> np.ndarray:
    """0.15 to 0.45 in steps of 0.01."""
    return np.round(np.linspace(0.15, 0.45, 31), 10)


def check_bandwidth_grid(bandwidths: np.ndarray) -> np.ndarray:
    """The distinct candidates, ascending; a grid that is empty or holds a
    value outside (0, 1/2), NaN included, is a configuration error."""
    grid = np.unique(np.asarray(bandwidths, dtype=float))
    if grid.size == 0:
        raise ConfigurationError("bandwidth grid is empty")
    bad = grid[~((grid > 0.0) & (grid < 0.5))]
    if bad.size:
        raise ConfigurationError(
            f"bandwidth candidates must be in (0, 1/2), got {bad.tolist()}"
        )
    return grid


@dataclass(frozen=True)
class GcvResult:
    """Cross-validation outcome: the grid, per-candidate scores (inf where
    the candidate failed), and the selected bandwidth."""

    bandwidth: float
    bandwidths: np.ndarray
    scores: np.ndarray


def gcv_bandwidth(
    series: np.ndarray,
    bandwidths: np.ndarray | None = None,
    kernel: Kernel | None = None,
) -> GcvResult:
    """Select a local-linear bandwidth by generalized cross-validation.

    Parameters
    ----------
    series : ndarray
        Observations on the unit grid.
    bandwidths : ndarray, optional
        Candidate grid; default `default_bandwidth_grid`.
    kernel : Kernel, optional

    Raises
    ------
    ConfigurationError
        If a candidate lies outside (0, 1/2) (`check_bandwidth_grid`) or
        the series holds NaN or inf.
    TuningError
        If every candidate fails (degenerate window or trace >= n).
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size < 4:
        raise ConfigurationError("series must be 1-d with at least 4 points")
    if not np.all(np.isfinite(series)):
        raise ConfigurationError("series contains non-finite values")
    if kernel is None:
        kernel = epanechnikov()
    if bandwidths is None:
        bandwidths = default_bandwidth_grid()
    bandwidths = check_bandwidth_grid(bandwidths)
    n = series.size

    scores = np.full(bandwidths.size, np.inf)
    for j, b in enumerate(bandwidths):
        try:
            fitted, trace = _design_fit(series, float(b), kernel)
        except SingularDesignError:
            continue
        if trace >= n:
            continue
        resid = series - fitted
        scores[j] = float(np.mean(resid * resid) / (1.0 - trace / n) ** 2)

    finite = np.isfinite(scores)
    if not np.any(finite):
        raise TuningError("every bandwidth candidate failed")
    smin = float(np.min(scores[finite]))
    tied = scores <= smin + _TIE_EPS * max(smin, np.mean(series * series))
    chosen = float(np.max(bandwidths[tied]))
    return GcvResult(bandwidth=chosen, bandwidths=bandwidths, scores=scores)


def default_block_grid(n: int) -> np.ndarray:
    """Seven block half-widths spanning [n^(1/3)/2, 2 n^(1/3)], deduplicated."""
    lo = int(np.ceil(n ** (1 / 3) / 2))
    hi = int(np.ceil(2 * n ** (1 / 3)))
    hi = min(hi, n // 4)
    if hi < lo:
        raise ConfigurationError(f"series too short for a block grid (n={n})")
    return np.unique(np.round(np.linspace(lo, hi, 7)).astype(int))


def default_span_grid() -> np.ndarray:
    return np.array([0.10, 0.15, 0.20, 0.25, 0.30])


@dataclass(frozen=True)
class MinVolResult:
    """Minimum-volatility outcome. ``ise`` is indexed [i, j] like
    (m_grid[i], tau_grid[j]); non-interior or failed pairs hold inf/nan."""

    m: int
    tau: float
    m_grid: np.ndarray
    tau_grid: np.ndarray
    ise: np.ndarray


def _frob_sq(diff: np.ndarray) -> np.ndarray:
    # diff: (l, G, 2, 2) -> (l, G)
    return np.sum(diff * diff, axis=(2, 3))


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    dx = np.diff(x)
    return float(np.sum(0.5 * dx * (y[1:] + y[:-1])))


def select_pair_from_curves(
    curves: np.ndarray,
    valid: np.ndarray,
    m_grid: np.ndarray,
    tau_grid: np.ndarray,
    t_grid: np.ndarray,
) -> MinVolResult:
    """Score interior (m, tau) pairs from precomputed curves and pick one.

    Parameters
    ----------
    curves : ndarray, shape (M1, M2, G, 2, 2)
        Long-run covariance curves on the common grid ``t_grid``.
    valid : ndarray of bool, shape (M1, M2)
        Which curves were computable.
    m_grid, tau_grid : ndarray
        Ascending parameter grids, M1 >= 5 and M2 >= 5.
    t_grid : ndarray
        Common evaluation grid covering [0, 1] endpoints by padding.

    The neighborhood of interior (i, j) is the cross {(i+r, j)} union
    {(i, j+r)}, r = -2..2, nine distinct curves. Its score is

        ISE = int_0^1 sqrt( sum_s |A_s(t) - Abar(t)|_F^2 / (l-1) ) dt,

    evaluated by the trapezoid rule. Ties go to the lexicographically
    smallest (m, tau).
    """
    m1, m2 = len(m_grid), len(tau_grid)
    if m1 < 5 or m2 < 5:
        raise ConfigurationError("need at least 5 values per grid axis")
    if curves.shape[:2] != (m1, m2):
        raise ConfigurationError("curves shape does not match the grids")
    ise = np.full((m1, m2), np.nan)
    best = None
    for i in range(2, m1 - 2):
        for j in range(2, m2 - 2):
            rows = [(i + r, j) for r in range(-2, 3)]
            cols = [(i, j + r) for r in range(-2, 3) if r != 0]
            hood = rows + cols
            if not all(valid[a, b] for a, b in hood):
                ise[i, j] = np.inf
                continue
            stack = np.stack([curves[a, b] for a, b in hood])  # (9, G, 2, 2)
            mean = stack.mean(axis=0)
            disp = np.sqrt(_frob_sq(stack - mean).sum(axis=0) / (len(hood) - 1))
            score = _trapezoid(disp, t_grid)
            ise[i, j] = score
            if best is None or score < best[0]:
                best = (score, i, j)
    if best is None or not np.isfinite(best[0]):
        raise TuningError("no interior (m, tau) pair could be scored")
    _, i, j = best
    return MinVolResult(
        m=int(m_grid[i]),
        tau=float(tau_grid[j]),
        m_grid=np.asarray(m_grid),
        tau_grid=np.asarray(tau_grid),
        ise=ise,
    )


def min_volatility(
    res: ResidualPair,
    m_grid: np.ndarray | None = None,
    tau_grid: np.ndarray | None = None,
    kernel: Kernel | None = None,
) -> MinVolResult:
    """Pick (m, tau) for the long-run covariance by extended minimum
    volatility.

    Curves for every grid pair are evaluated on the design points of
    ``res``; each curve is computed on [tau, 1 - tau] and extended to the
    full grid by nearest-value padding so that curves with different tau are
    comparable on all of [0, 1]. A pair for which `lrv_curve` would raise,
    its finite, symmetric and PSD checks included, stays invalid.
    """
    if kernel is None:
        kernel = epanechnikov()
    n = res.n
    if m_grid is None:
        m_grid = default_block_grid(n)
    m_grid = np.unique(np.asarray(m_grid, dtype=int))
    if tau_grid is None:
        tau_grid = default_span_grid()
    tau_grid = np.unique(np.asarray(tau_grid, dtype=float))
    if len(m_grid) < 5 or len(tau_grid) < 5:
        raise ConfigurationError(
            "minimum volatility needs >= 5 candidates per axis"
        )

    t_grid = res.grid
    G = t_grid.size
    curves = np.zeros((len(m_grid), len(tau_grid), G, 2, 2))
    valid = np.zeros((len(m_grid), len(tau_grid)), dtype=bool)
    fit = np.flatnonzero((m_grid >= 1) & (m_grid <= n // 4))
    for j, tau in enumerate(tau_grid):
        inside = np.flatnonzero((t_grid >= tau) & (t_grid <= 1.0 - tau))
        if not (0.0 < tau < 0.5 and inside.size and fit.size):
            continue
        sub = t_grid[inside]  # one run of design points
        try:
            mats = _smoothed_blocks(res.eps, m_grid[fit], tau, kernel, sub)
        except SingularDesignError:
            continue
        pad = np.clip(np.arange(G) - inside[0], 0, inside.size - 1)
        for i, c in zip(fit, mats):
            with contextlib.suppress(ConfigurationError):
                LongRunCovCurve(sub, c, int(m_grid[i]), float(tau))
                curves[i, j], valid[i, j] = c[pad], True
    return select_pair_from_curves(curves, valid, m_grid, tau_grid, t_grid)
