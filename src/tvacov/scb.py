"""Simultaneous confidence bands for the fitted curves.

Two constructions of the critical value are provided, both multiplying the
pointwise long-run scale sigma_hat(t):

* bootstrap: simulate the Gaussian proxy of the estimation error,
  sum_i w_i(t) u_i * scale with u_i iid N(0,1), take the empirical
  (1 - alpha) quantile of its sup over the band domain [b, 1-b]. The
  scale is the estimate's `AcovEstimate.proxy_scale`: 1/2 for estimates of
  the form (fitted difference level)/2.
* gumbel: the limiting extreme-value formula; with m* = 1/b,

      crit = B(m*) - log(log(1-alpha)^(-1/2)) / sqrt(2 log m*),
      B(m*) = sqrt(2 log m*)
              + log((1/pi) sqrt(int K'^2 / (4 phi0))) / sqrt(2 log m*),

  and half-width sigma_hat(t) sqrt(phi0 / (n b)) crit times that scale.

The draws come in blocks of 512, and block j is drawn row by row from the
substream keyed by j, so draw d is a pure function of (seed, d): any
partition of the blocks over workers reproduces the single-threaded
quantile exactly, and asking for more draws leaves the first ones as they
were.
The bootstrap value depends on (n, b, grid, draws, alpha, seed) only, never
on the data; ``tvacov estimate`` computes one per distinct (b, band grid)
and passes it to `build_band` for every lag in that context.

The proxy product is band-limited: row t of the weights is exactly zero
where |t_i - t| >= b, so the sup grid is cut into row blocks and each block
multiplies only the span of columns it weights. `proxy_draws` and
`bootstrap_quantile` share that one product.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .acov import AcovEstimate
from .errors import (
    ConfigurationError,
    DegenerateVarianceError,
    GridAlignmentError,
)
from .kernels import Kernel
from .locallinear import CurveOnGrid, _in_band_range, interior_grid, unit_grid, weight_matrix
from .tuning import check_bandwidth_grid, default_bandwidth_grid

__all__ = [
    "BootstrapQuantile",
    "BandResult",
    "GUMBEL_MAX_BANDWIDTH",
    "proxy_draws",
    "bootstrap_quantile",
    "bandwidth_candidates",
    "check_band_settings",
    "gumbel_critical",
    "build_band",
    "coverage_check",
]

_MIN_DRAWS = 1000
# Draws per substream and per matrix product. It defines the streams: draw d
# is row d % _DRAW_CHUNK of the block keyed by d // _DRAW_CHUNK, so changing
# it changes every bootstrap value. It also bounds the normals held at once
# to (_DRAW_CHUNK x n).
_DRAW_CHUNK = 512
# Sup-grid rows per proxy product; each row block multiplies only the span
# of columns its rows weight.
_ROW_BLOCK = 400


def _draw_blocks(draws: int):
    """Yield the (lo, hi) draw ranges of the blocks behind ``draws`` draws."""
    for lo in range(0, draws, _DRAW_CHUNK):
        yield lo, min(lo + _DRAW_CHUNK, draws)


def _draw_block(n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Standard normal rows for draws lo..hi-1 of one block.

    Block j = lo // _DRAW_CHUNK is filled in C order from the substream keyed
    by j, so a short block is a prefix of the full one. ``lo`` must start a
    block and ``hi`` must not pass its end.
    """
    j, start = divmod(lo, _DRAW_CHUNK)
    if start or not lo < hi <= lo + _DRAW_CHUNK:
        raise ConfigurationError(
            f"draws {lo}..{hi} do not lie in one block of {_DRAW_CHUNK}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
    return rng.standard_normal((hi - lo, n))


def _proxy_weights(
    n: int, b: float, kernel: Kernel, grid: np.ndarray, weight_scale: float
) -> list[tuple[slice, slice, np.ndarray]]:
    """The scaled (grid x n) proxy weights as row blocks cut to their support.

    Each entry is (rows, cols, x) with x = w[rows, cols]; every weight of
    those rows outside ``cols`` is exactly zero, because the kernel vanishes
    beyond one bandwidth.
    """
    w = weight_matrix(n, grid, b, kernel)
    w *= float(weight_scale)
    blocks = []
    for g0 in range(0, grid.size, _ROW_BLOCK):
        rows = slice(g0, min(g0 + _ROW_BLOCK, grid.size))
        live = np.flatnonzero(w[rows].any(axis=0))
        cols = slice(live[0], live[-1] + 1) if live.size else slice(0, 0)
        blocks.append((rows, cols, w[rows, cols]))
    return blocks


def _proxy_values(blocks: list, u: np.ndarray):
    """Yield (rows, values): the proxy on each row block for the draws in the
    rows of ``u``, values shaped (block rows x draws)."""
    for rows, cols, x in blocks:
        yield rows, x @ u[:, cols].T


def proxy_draws(
    n: int,
    b: float,
    kernel: Kernel,
    grid: np.ndarray,
    draws: int,
    seed: int,
    weight_scale: float = 0.5,
) -> np.ndarray:
    """Realizations of the Gaussian proxy process, shape (len(grid), draws).

    Column d is sum_i w_i(t) u_i^{(d)} * weight_scale on the grid, with
    u^{(d)} row d % 512 of the block drawn from the substream keyed by
    d // 512. Draw d never depends on ``draws`` or on the draw order.
    """
    if draws < 1:
        raise ConfigurationError("need at least one draw")
    grid = np.asarray(grid, dtype=float)
    blocks = _proxy_weights(n, b, kernel, grid, weight_scale)
    out = np.empty((grid.size, draws))
    for lo, hi in _draw_blocks(draws):
        for rows, values in _proxy_values(blocks, _draw_block(n, seed, lo, hi)):
            out[rows, lo:hi] = values
    return out


@dataclass(frozen=True)
class BootstrapQuantile:
    """Empirical sup-quantile of the proxy process plus its context."""

    n: int
    bandwidth: float
    draws: int
    alpha: float
    seed: int
    weight_scale: float
    quantile: float
    grid: np.ndarray = field(repr=False)
    sup_draws: np.ndarray = field(repr=False)

    def quantile_at(self, alpha: float) -> float:
        """Re-read the stored draws at another level (type-7 empirical)."""
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError("alpha must be in (0, 1)")
        return float(np.quantile(self.sup_draws, 1.0 - alpha))

    def quantile_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Monte-Carlo error of `quantile`: the distribution-free interval
        (X_(l), X_(u)) of order statistics of ``sup_draws`` that holds the
        true (1 - alpha) sup quantile with probability >= ``level``.

        The count of draws below the true quantile is Binomial(draws,
        1 - alpha); l and u cut (1 - level)/2 from each of its tails. With
        too few draws for ``level`` they are clamped to the sample range.
        """
        if not 0.0 < level < 1.0:
            raise ConfigurationError("level must be in (0, 1)")
        x = np.sort(self.sup_draws)
        size = x.size
        p = 1.0 - self.alpha
        k = np.arange(size)
        # Binomial(size, p) pmf at 0..size from the ratio pmf(k+1)/pmf(k)
        log0 = size * math.log1p(-p)
        steps = np.log((size - k) / (k + 1.0)) + math.log(p / (1.0 - p))
        cdf = np.cumsum(np.exp(np.concatenate(([log0], log0 + np.cumsum(steps)))))
        tail = 0.5 * (1.0 - level)
        # P(X_(l) above the quantile) = P(count <= l - 1) <= tail
        lo = max(int(np.searchsorted(cdf, tail, side="right")), 1)
        # P(X_(u) below the quantile) = P(count >= u) <= tail
        hi = min(int(np.searchsorted(cdf, 1.0 - tail, side="left")) + 1, size)
        return float(x[lo - 1]), float(x[hi - 1])


def bootstrap_quantile(
    n: int,
    b: float,
    kernel: Kernel,
    draws: int = 10_000,
    alpha: float = 0.05,
    seed: int = 0,
    grid: np.ndarray | None = None,
    weight_scale: float = 0.5,
    threads: int = 1,
) -> BootstrapQuantile:
    """Simulate the band critical value q_hat for working length n.

    Parameters
    ----------
    n : int
        Working series length behind the fit.
    b : float
        Bandwidth; the sup runs over [b, 1-b].
    kernel : Kernel
    draws : int
        Number of proxy draws, >= 1000.
    alpha : float
        Band level is 1 - alpha.
    seed : int
        Root seed; draw d is row d % 512 of the block drawn from the
        substream keyed by d // 512.
    grid : ndarray, optional
        Sup grid; default design points within [b, 1-b].
    weight_scale : float
        Linear coefficient of the proxy (1/2 for half-difference targets).
    threads : int
        Worker threads over disjoint draw blocks. Draw d is a pure function
        of (seed, d), so the result is bit-identical for every thread count.
    """
    check_band_settings("bootstrap", alpha, draws)
    if threads < 1:
        raise ConfigurationError("threads must be >= 1")
    if grid is None:
        grid = interior_grid(n, b)
        if grid.size == 0:
            raise ConfigurationError("no design points inside [b, 1-b]")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigurationError("sup grid must be a nonempty 1-d array")
    if not np.all(_in_band_range(grid, b - 1e-12)):  # 1e-12 slack each side
        raise ConfigurationError("sup grid must lie inside [b, 1-b]")

    sups = np.empty(draws)
    weights = _proxy_weights(n, b, kernel, grid, weight_scale)

    def fill(block: tuple[int, int]) -> None:
        lo, hi = block
        sup = np.zeros(hi - lo)
        for _, values in _proxy_values(weights, _draw_block(n, seed, lo, hi)):
            np.maximum(sup, np.abs(values).max(axis=0), out=sup)
        sups[lo:hi] = sup

    if threads == 1:
        for block in _draw_blocks(draws):
            fill(block)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, _draw_blocks(draws)))
    q = float(np.quantile(sups, 1.0 - alpha))
    return BootstrapQuantile(
        n=n,
        bandwidth=float(b),
        draws=draws,
        alpha=float(alpha),
        seed=seed,
        weight_scale=float(weight_scale),
        quantile=q,
        grid=grid,
        sup_draws=sups,
    )


# The limit formula needs log(m*) > 1 with m* = 1/b.
GUMBEL_MAX_BANDWIDTH = 1.0 / math.e


def check_band_settings(method: str, alpha: float, draws: int) -> None:
    """Reject an unknown band method, a level outside (0, 1) or, under
    bootstrap, fewer than 1000 draws; callers run it before any tuning."""
    if method not in ("bootstrap", "gumbel"):
        raise ConfigurationError(f"unknown method {method!r}")
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must be in (0, 1)")
    if method == "bootstrap" and draws < _MIN_DRAWS:
        raise ConfigurationError(f"draws must be >= {_MIN_DRAWS}, got {draws}")


def bandwidth_candidates(
    method: str,
    bandwidths: np.ndarray | None,
    fixed: Sequence[float | None],
) -> np.ndarray | None:
    """Cross-validation candidates for a band method, checked before tuning.

    Given ``bandwidths`` must pass `check_bandwidth_grid`. Under gumbel,
    each fixed band bandwidth in ``fixed`` (None where cross-validated) must
    be below `GUMBEL_MAX_BANDWIDTH` and the candidates (default
    `default_bandwidth_grid`) are cut below it; the cut changes no choice
    the limit formula accepts. Other methods keep ``bandwidths``.
    """
    if bandwidths is not None:
        check_bandwidth_grid(bandwidths)
    if method != "gumbel":
        return bandwidths
    if any(b is not None and b >= GUMBEL_MAX_BANDWIDTH for b in fixed):
        raise ConfigurationError(
            f"method gumbel needs bandwidths < 1/e, got {list(fixed)}"
        )
    grid = default_bandwidth_grid() if bandwidths is None else bandwidths
    grid = np.asarray(grid, dtype=float)
    grid = grid[grid < GUMBEL_MAX_BANDWIDTH]
    if grid.size == 0 and None in fixed:
        raise ConfigurationError("method gumbel needs candidates below 1/e")
    return grid


def gumbel_critical(b: float, kernel: Kernel, alpha: float, n: int) -> float:
    """The limiting critical multiplier; half-width is
    sigma_hat(t) * sqrt(phi0 / (4 n b)) * multiplier.

    Requires b < `GUMBEL_MAX_BANDWIDTH` (1/e).
    """
    b = float(b)
    if not 0.0 < b < GUMBEL_MAX_BANDWIDTH:
        raise ConfigurationError(
            f"the limit formula needs 0 < b < 1/e, got b={b!r}"
        )
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must be in (0, 1)")
    if n < 2:
        raise ConfigurationError("n must be >= 2")
    two_log_m = -2.0 * math.log(b)
    s = math.sqrt(two_log_m)
    bk = s + math.log(math.sqrt(kernel.roughness / (4.0 * kernel.phi0)) / math.pi) / s
    tail = -0.5 * math.log1p(-alpha)  # log (1-alpha)^(-1/2)
    return bk - math.log(tail) / s


@dataclass(frozen=True)
class BandResult:
    """A simultaneous band: center +- sigma_factor * sigma_hat pointwise."""

    lag: int
    grid: np.ndarray
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    sigma: np.ndarray
    sigma_factor: float
    method: str
    alpha: float
    bandwidth: float
    working_n: int

    def __post_init__(self) -> None:
        if np.any(self.lower > self.center) or np.any(self.center > self.upper):
            raise ConfigurationError("band ordering violated")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def mean_width(self) -> float:
        return float(np.mean(self.width))


def build_band(
    estimate: AcovEstimate,
    sigma: CurveOnGrid,
    kernel: Kernel,
    method: str = "bootstrap",
    alpha: float = 0.05,
    draws: int = 10_000,
    seed: int = 0,
    quantile: BootstrapQuantile | None = None,
    threads: int = 1,
) -> BandResult:
    """Wrap a fitted curve in a simultaneous (1 - alpha) band.

    ``sigma`` must be evaluated on exactly the estimate's grid and be
    strictly positive there. A precomputed ``quantile`` may be supplied; its
    context (n, b, level, the estimate's `proxy_scale`, grid) must match.
    """
    curve = estimate.curve
    if not np.array_equal(curve.grid, sigma.grid):
        raise GridAlignmentError("sigma and estimate grids differ")
    if np.any(sigma.values <= 0.0):
        raise DegenerateVarianceError(
            "sigma must be strictly positive on the band domain"
        )
    n = estimate.working_n
    b = estimate.bandwidth
    if method == "bootstrap":
        if quantile is None:
            quantile = bootstrap_quantile(
                n,
                b,
                kernel,
                draws=draws,
                alpha=alpha,
                seed=seed,
                grid=curve.grid,
                weight_scale=estimate.proxy_scale,
                threads=threads,
            )
        else:
            ctx = (
                quantile.n == n
                and quantile.bandwidth == b
                and quantile.alpha == alpha
                and quantile.weight_scale == estimate.proxy_scale
                and np.array_equal(quantile.grid, curve.grid)
            )
            if not ctx:
                raise ConfigurationError(
                    "supplied quantile was computed for a different context"
                )
        factor = quantile.quantile
    elif method == "gumbel":
        crit = gumbel_critical(b, kernel, alpha, n)
        factor = estimate.proxy_scale * math.sqrt(kernel.phi0 / (n * b)) * crit
    else:
        raise ConfigurationError(f"unknown band method {method!r}")

    half = factor * sigma.values
    return BandResult(
        lag=estimate.lag,
        grid=curve.grid,
        center=curve.values,
        lower=curve.values - half,
        upper=curve.values + half,
        sigma=sigma.values,
        sigma_factor=float(factor),
        method=method,
        alpha=float(alpha),
        bandwidth=float(b),
        working_n=n,
    )


def coverage_check(band: BandResult, truth: CurveOnGrid) -> bool:
    """True iff the true curve lies inside the band at every grid point."""
    if not np.array_equal(band.grid, truth.grid):
        raise GridAlignmentError("truth grid does not match the band grid")
    tv = truth.values
    return bool(np.all((band.lower <= tv) & (tv <= band.upper)))
