"""Local linear smoothing on the unit grid.

A series v_1..v_n observed at t_i = i/n is smoothed by weighted least squares
on (1, t_i - t) with kernel weights K((t_i - t)/b). The fitted level at t has
the closed form

    sum_i w_i(t) v_i,
    w_i(t) = K_b(t_i - t) [S2(t) - (t_i - t) S1(t)] / [S0(t) S2(t) - S1(t)^2],

with S_j(t) = sum_i (t_i - t)^j K_b(t_i - t) and K_b(u) = K(u/b). Everything
downstream (difference-based curve estimates, hat traces for cross-validation,
bootstrap weight matrices) is built on these weights, so this module keeps them
exact: sums are evaluated with numpy's pairwise accumulation and the weight
identities sum w_i = 1, sum w_i (t_i - t) = 0 hold to ~1e-15.

One window function, `_window`, holds all of that arithmetic for a chunk of
evaluation points; `_chunks` cuts `weight_matrix`, `_dense_fit` (the one level
loop of `fit_curve` and `fit_at_data`) and `lrv.lrv_curve` into chunks of at
most `_CHUNK_BUDGET` (chunk x n) cells, each freed before the next is built.
Every fit of a series at its own design points i/n (cross-validation, the
difference-series levels and residuals, the naive study's product fits) goes
through `_design_fit`: there every window holds one kernel vector, so the
moments are sliding correlations, O(n * n b) per bandwidth, that match
`fit_at_data` to about 1e-14. Fits on any other grid stay dense. Both forms
reject a degenerate window in `_check_windows`, with the same texts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularDesignError
from .kernels import Kernel

__all__ = [
    "CurveOnGrid",
    "WeightSet",
    "unit_grid",
    "interior_grid",
    "weights",
    "weight_matrix",
    "fit_curve",
    "fit_at_data",
    "hat_trace",
]

# Below this, S0 S2 - S1^2 is treated as a degenerate window.
_DEN_FLOOR = 1e-14
# A window of fewer engaged points cannot support a line fit.
_MIN_POINTS = 4
# A point engages only if its kernel value exceeds this fraction of K(0):
# rounding of t_i - t can leave a point at |t_i - t| = b with K ~ 1e-16.
_ENGAGED_FLOOR = 1e-12

# Cap on the rows of the (chunk x n) temporaries, keeps memory ~tens of MB.
# It is part of the result, not a free memory setting: OpenBLAS rounds a row
# of a product by the product's shape, so another chunk height can move the
# last bit of a fit or of `lrv.lrv_curve` (seen at n = 4500).
_CHUNK_BUDGET = 4_000_000


@dataclass(frozen=True)
class CurveOnGrid:
    """A function estimate evaluated on a finite grid in [0, 1].

    ``slope`` optionally carries the local-linear derivative estimate at the
    same grid points.
    """

    grid: np.ndarray
    values: np.ndarray
    slope: np.ndarray | None = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size == 0:
            raise ConfigurationError("grid must be a nonempty 1-d array")
        if values.shape != grid.shape:
            raise ConfigurationError("values and grid shapes differ")
        if not np.all(np.diff(grid) > 0):
            raise ConfigurationError("grid must be strictly increasing")
        if grid[0] < 0.0 or grid[-1] > 1.0:
            raise ConfigurationError("grid must lie inside [0, 1]")
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("curve values must be finite")
        if self.slope is not None:
            slope = np.asarray(self.slope, dtype=float)
            object.__setattr__(self, "slope", slope)
            if slope.shape != grid.shape:
                raise ConfigurationError("slope and grid shapes differ")

    def __len__(self) -> int:
        return int(self.grid.size)


@dataclass(frozen=True)
class WeightSet:
    """Local-linear level weights at a single evaluation point.

    ``start`` is the 0-based index of the first engaged observation;
    ``values[j]`` weights observation ``start + j``.
    """

    t: float
    bandwidth: float
    n: int
    start: int
    values: np.ndarray

    def dense(self) -> np.ndarray:
        """The weights as a length-n vector."""
        out = np.zeros(self.n)
        out[self.start : self.start + self.values.size] = self.values
        return out


def unit_grid(n: int) -> np.ndarray:
    """The design points t_i = i/n, i = 1..n."""
    if n < 2:
        raise ConfigurationError("need at least 2 observations")
    return np.arange(1, n + 1) / n


def _check_bandwidth(b: float) -> float:
    b = float(b)
    if not 0.0 < b < 0.5:
        raise ConfigurationError(f"bandwidth must be in (0, 1/2), got {b!r}")
    return b


def _chunks(size: int, n: int) -> list[slice]:
    """Slices of ``size`` points, so a (slice x n) array stays in budget."""
    step = max(1, _CHUNK_BUDGET // n)
    return [slice(lo, lo + step) for lo in range(0, size, step)]


def _check_windows(t: np.ndarray, engaged: np.ndarray, den: np.ndarray) -> None:
    """Raise for the first window at ``t`` that engages fewer than
    `_MIN_POINTS` points, else for the first with den <= `_DEN_FLOOR`."""
    if np.any(engaged < _MIN_POINTS):
        g = int(np.argmax(engaged < _MIN_POINTS))
        raise SingularDesignError(
            f"window at t={t[g]:.6g} engages {int(engaged[g])} points "
            f"(< {_MIN_POINTS}); enlarge b or n"
        )
    if np.any(den <= _DEN_FLOOR):
        g = int(np.argmax(den <= _DEN_FLOOR))
        raise SingularDesignError(
            f"singular design at t={t[g]:.6g}: S0 S2 - S1^2 = {den[g]:.3e}"
        )


def _kernel_rows(
    t_eval: np.ndarray, n: int, b: float, kernel: Kernel
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values K(D / b) and distances D[g, i] = t_i - t_eval[g]."""
    D = unit_grid(n)[None, :] - t_eval[:, None]
    return kernel(D / b), D


def _window(
    t_eval: np.ndarray, n: int, b: float, kernel: Kernel,
    with_slope: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Local-linear weights for one chunk of evaluation points.

    Returns (rows, diag, slope_rows): the level-weight rows
    KV (S2 - D S1) / den with den = S0 S2 - S1^2, the weight K(0) S2 / den
    of a design point in its own window, and the derivative rows
    KV (S0 D - S1) / den when ``with_slope``. Each moment is summed once,
    and every row array is built in place (the level rows in D's buffer),
    so the chunk never holds more than three (chunk x n) arrays. A point
    engages if its kernel value exceeds `_ENGAGED_FLOOR` K(0), counted
    before KD exists; `_check_windows` rejects degenerate windows.
    """
    KV, D = _kernel_rows(t_eval, n, b, kernel)
    k0 = kernel(np.zeros(1))[0]
    engaged = np.count_nonzero(KV > _ENGAGED_FLOOR * k0, axis=1)
    KD = KV * D
    S0 = KV.sum(axis=1)
    S1 = KD.sum(axis=1)
    KD *= D
    S2 = KD.sum(axis=1)
    del KD
    den = S0 * S2 - S1 * S1
    _check_windows(t_eval, engaged, den)
    slope = None
    if with_slope:
        slope = S0[:, None] * D
        slope -= S1[:, None]
        slope *= KV
        slope /= den[:, None]
    rows = D
    rows *= S1[:, None]
    np.subtract(S2[:, None], rows, out=rows)
    rows *= KV
    rows /= den[:, None]
    return rows, k0 * S2 / den, slope


def _design_fit(
    values: np.ndarray, b: float, kernel: Kernel
) -> tuple[np.ndarray, float]:
    """`fit_at_data` by sliding correlations, for every fit of a series at
    its own design points.

    At the design points every window holds the same kernel vector
    k(d) = K((d/n)/b), d = -L..L with L = floor(n b) + 1, cut off at the
    ends of 1..n. With the series and a vector of ones padded by L zeros,
    the moments S_q = sum_d k(d) (d/n)^q and T_r = sum_d k(d) (d/n)^r v_{i+d}
    are five correlations, O(n L) in all. Agrees with `fit_at_data` to
    about 1e-14; `_check_windows` rejects degenerate windows as in `_window`.
    """
    values = np.asarray(values, dtype=float)
    b = _check_bandwidth(b)
    n = values.size
    L = int(n * b) + 1
    d = np.arange(-L, L + 1) / n
    k = kernel(d / b)
    ones, padded = np.zeros((2, n + 2 * L))
    ones[L : L + n] = 1.0
    padded[L : L + n] = values

    engaged = np.correlate(ones, (k > _ENGAGED_FLOOR * k[L]).astype(float),
                           "valid")
    kd = k * d
    S0 = np.correlate(ones, k, "valid")
    S1 = np.correlate(ones, kd, "valid")
    S2 = np.correlate(ones, kd * d, "valid")
    den = S0 * S2 - S1 * S1
    _check_windows(unit_grid(n), engaged, den)
    fitted = (S2 * np.correlate(padded, k, "valid")
              - S1 * np.correlate(padded, kd, "valid")) / den
    return fitted, float(np.sum(k[L] * S2 / den))


def _dense_fit(
    values: np.ndarray, grid: np.ndarray, b: float, kernel: Kernel,
    with_slope: bool = False,
) -> tuple[np.ndarray, float, np.ndarray | None]:
    """Level on ``grid``, the sum of the `_window` diagonals (the hat trace
    when ``grid`` is the design points), and the slope if ``with_slope``."""
    n = values.size
    level = np.empty(grid.size)
    slope = np.empty(grid.size) if with_slope else None
    trace = 0.0
    for part in _chunks(grid.size, n):
        rows, diag, slope_rows = _window(grid[part], n, b, kernel, with_slope)
        level[part] = rows @ values
        if with_slope:
            slope[part] = slope_rows @ values
        trace += float(np.sum(diag))
        del rows, slope_rows  # free this chunk before the next is built
    return level, trace, slope


def weights(n: int, t: float, b: float, kernel: Kernel) -> WeightSet:
    """Level weights w_i(t) for a series of length n at one point t.

    Parameters
    ----------
    n : int
        Series length; design points are i/n.
    t : float
        Evaluation point in [0, 1].
    b : float
        Bandwidth, 0 < b < 1/2.
    kernel : Kernel
        Smoothing kernel.

    Returns
    -------
    WeightSet
        Sparse weights over the engaged index range. They satisfy
        sum w_i = 1 and sum w_i (t_i - t) = 0 up to rounding, and vanish
        for |t_i - t| > b.
    """
    b = _check_bandwidth(b)
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ConfigurationError(f"evaluation point must be in [0, 1], got {t!r}")
    row = _window(np.array([t]), n, b, kernel)[0][0]
    engaged = np.nonzero(row != 0.0)[0]
    start = int(engaged[0])
    stop = int(engaged[-1]) + 1
    return WeightSet(t=t, bandwidth=b, n=n, start=start, values=row[start:stop])


def weight_matrix(
    n: int, grid: np.ndarray, b: float, kernel: Kernel
) -> np.ndarray:
    """The (len(grid) x n) matrix of level weights, row g for grid[g]."""
    b = _check_bandwidth(b)
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.size, n))
    for part in _chunks(grid.size, n):
        out[part] = _window(grid[part], n, b, kernel)[0]
    return out


def interior_grid(n: int, b: float) -> np.ndarray:
    """Design points i/n restricted to [b, 1-b], the band-valid range."""
    g = unit_grid(n)
    return g[(g >= b) & (g <= 1.0 - b)]


def fit_curve(
    values: np.ndarray,
    b: float,
    kernel: Kernel,
    grid: np.ndarray | None = None,
    with_slope: bool = False,
) -> CurveOnGrid:
    """Local linear fit of a series observed on the unit grid.

    Parameters
    ----------
    values : ndarray
        Observations v_1..v_n at t_i = i/n.
    b : float
        Bandwidth, 0 < b < 1/2.
    kernel : Kernel
        Smoothing kernel.
    grid : ndarray, optional
        Evaluation points. Default: the design points restricted to
        [b, 1-b]. Points outside that range are allowed (the window is then
        one-sided) but the band theory does not cover them.
    with_slope : bool
        Also return the derivative estimate.

    Returns
    -------
    CurveOnGrid
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ConfigurationError("series must be 1-d with at least 2 points")
    if not np.all(np.isfinite(values)):
        raise ConfigurationError("series contains non-finite values")
    b = _check_bandwidth(b)
    if grid is None:
        grid = interior_grid(values.size, b)
        if grid.size == 0:
            raise ConfigurationError("no design points inside [b, 1-b]")
    grid = np.asarray(grid, dtype=float)
    level, _, slope = _dense_fit(values, grid, b, kernel, with_slope)
    if not np.all(np.isfinite(level)):
        raise SingularDesignError("fit produced non-finite values")
    return CurveOnGrid(grid=grid, values=level, slope=slope)


def fit_at_data(
    values: np.ndarray, b: float, kernel: Kernel
) -> tuple[np.ndarray, float]:
    """Fitted values at every design point plus the hat-matrix trace.

    The trace is accumulated from the diagonal elements
    w_i(t_i) = K(0) S2(t_i) / den(t_i) without materializing the n x n hat
    matrix; `_design_fit` computes the same pair by sliding correlations.
    """
    values = np.asarray(values, dtype=float)
    b = _check_bandwidth(b)
    return _dense_fit(values, unit_grid(values.size), b, kernel)[:2]


def hat_trace(n: int, b: float, kernel: Kernel) -> float:
    """trace of the local-linear hat matrix for length n and bandwidth b."""
    return fit_at_data(np.zeros(n), b, kernel)[1]
