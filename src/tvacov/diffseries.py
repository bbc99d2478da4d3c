"""Squared difference series and data-driven choice of the truncation lag.

Squaring the lag-k difference of the raw series removes any smooth trend and
turns abrupt level shifts into a contamination that touches only ~k points
per shift: the heart of the approach. The expected value of the difference
series is beta_k(t) = 2 gamma_0(t) - 2 gamma_k(t), so the profile of fitted
beta_k over k flattens once k passes the dependence range, which is what the
lag scan exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidLagError
from .kernels import Kernel, epanechnikov
from .locallinear import fit_curve, unit_grid
from .procgen import TimeSeries

__all__ = [
    "DifferenceSeries",
    "LagSelection",
    "difference",
    "default_start_lag",
    "select_lag",
]


@dataclass(frozen=True)
class DifferenceSeries:
    """The series rho_j = (y_{j+k} - y_j)^2 on its own unit grid.

    A source series of length N yields N - k values, re-indexed to design
    points j / (N - k).
    """

    lag: int
    values: np.ndarray
    source_n: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.lag < 1:
            raise InvalidLagError("difference lag must be >= 1")
        if values.size != self.source_n - self.lag:
            raise ConfigurationError("length must equal source_n - lag")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ConfigurationError("squared differences must be finite, >= 0")

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def grid(self) -> np.ndarray:
        return unit_grid(self.n)


def difference(y: TimeSeries, k: int) -> DifferenceSeries:
    """Squared lag-k differences of a series.

    Parameters
    ----------
    y : TimeSeries
        Input of length N.
    k : int
        Difference lag, 1 <= k <= N - 2 (at least two differences remain).
    """
    if k < 1 or k > y.n - 2:
        raise InvalidLagError(
            f"lag {k} invalid for a series of length {y.n}"
        )
    v = y.values
    d = v[k:] - v[:-k]
    return DifferenceSeries(lag=k, values=d * d, source_n=y.n)


def default_start_lag(n: int) -> int:
    """Scan start h0 = ceil(n^(1/4) log(n) / 4), clamped to [3, 20]."""
    if n < 2:
        raise ConfigurationError("n must be >= 2")
    raw = math.ceil(n**0.25 * math.log(n) / 4.0)
    return int(min(20, max(3, raw)))


@dataclass(frozen=True)
class LagSelection:
    """Outcome of the truncation-lag scan.

    ``profile[k - 1]`` holds the fitted beta_k curve at the source design
    points, for k = 1..h0; ``local`` holds the per-point choices h*(t_i).
    """

    h: int
    h0: int
    threshold: float
    local: np.ndarray
    profile: np.ndarray
    bandwidths: tuple[float, ...]


def select_lag(
    y: TimeSeries,
    h0: int | None = None,
    threshold: float = 3.0,
    kernel: Kernel | None = None,
    b_provider=None,
) -> LagSelection:
    """Choose the truncation lag h by scanning fitted difference levels.

    For each design point t_i the scan walks k = h0 - 1 down to 1 and fires
    at the first k where |beta_k - beta_{k+1}| exceeds ``threshold`` times
    the top-of-scan increment |beta_{h0} - beta_{h0-1}| (floored by machine
    eps times |beta_{h0}|); the local choice is then k + 1, or 1 when nothing
    fires. The global h is the rounded average of the local choices.

    Parameters
    ----------
    y : TimeSeries
    h0 : int, optional
        Scan start; default `default_start_lag`. Must satisfy
        2 <= h0 <= ceil(n^(1/4) log n) and h0 <= n - 3.
    threshold : float
        Firing multiple, > 0 (NaN is not); math.inf disables firing (h = 1).
    kernel : Kernel, optional
    b_provider : callable, optional
        ``b_provider(k, rho)`` returns the bandwidth used to fit the lag-k
        difference series. Default: the cross-validation rule on its
        standard grid. Injectable to keep scans cheap in tests.
    """
    n = y.n
    if h0 is None:
        h0 = default_start_lag(n)
    guard = math.ceil(n**0.25 * math.log(n)) if n > 1 else 2
    if not 2 <= h0 <= guard:
        raise ConfigurationError(
            f"h0 must be in [2, {guard}] for n = {n}, got {h0}"
        )
    if h0 > n - 3:
        raise ConfigurationError(f"h0 = {h0} leaves too few differences")
    if not threshold > 0:  # NaN included
        raise ConfigurationError("threshold must be positive")
    if kernel is None:
        kernel = epanechnikov()
    if b_provider is None:
        from .tuning import gcv_bandwidth  # deferred: tuning sits above us

        def b_provider(k: int, rho: DifferenceSeries) -> float:
            return gcv_bandwidth(rho.values, kernel=kernel).bandwidth

    grid = y.grid
    profile = np.empty((h0, n))
    bandwidths = []
    for k in range(1, h0 + 1):
        rho = difference(y, k)
        b = float(b_provider(k, rho))
        bandwidths.append(b)
        profile[k - 1] = fit_curve(rho.values, b, kernel, grid=grid).values

    local = np.ones(n, dtype=int)
    if math.isfinite(threshold) and h0 >= 2:
        steps = np.abs(np.diff(profile, axis=0))  # row k-1: |beta_{k+1}-beta_k|
        ref = np.maximum(steps[h0 - 2],
                         np.finfo(float).eps * np.abs(profile[h0 - 1]))
        fired = steps > threshold * ref[None, :]
        hit = fired.any(axis=0)
        # walking k = h0-1 .. 1, the first hit is the largest firing k
        k_fire = (h0 - 1) - np.argmax(fired[::-1], axis=0)
        local = np.where(hit, k_fire + 1, 1).astype(int)
    h = int(math.floor(float(np.mean(local)) + 0.5))
    return LagSelection(
        h=h,
        h0=h0,
        threshold=threshold,
        local=local,
        profile=profile,
        bandwidths=tuple(bandwidths),
    )
