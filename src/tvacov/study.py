"""Monte-Carlo coverage studies for the simultaneous bands.

Each replication draws a fresh series from the configured benchmark design,
runs the full data-driven pipeline (difference lag, cross-validated
bandwidths, block long-run covariance, band), and records whether the band
contains the true curve everywhere on its grid. Replication r always uses the
substream keyed by r, so results are independent of execution order and of
the thread count.

The bootstrap critical value depends only on (working length, bandwidth,
level, draw count), never on the data, so it is memoized under a seed derived
from those values alone; disabling ``share_bootstrap`` re-simulates it per
replication instead. Both modes are bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from threading import Lock
from typing import Any

import numpy as np

from .acov import (
    AcovEstimate,
    _band_scale,
    _check_block_width,
    _check_ranges,
    _check_settings,
    _interior,
    _lag_products,
    _naive_acov,
    _truncation_lag,
    estimate_lags,
)
from .diffseries import default_start_lag
from .errors import ConfigurationError, NumericError, TvacovError
from .kernels import Kernel, epanechnikov
from .locallinear import CurveOnGrid, _design_fit
from .lrv import ResidualPair
from .procgen import ErrorModel, MeanSpec, TimeSeries, generate, model_preset, true_gamma
from .scb import BootstrapQuantile, bandwidth_candidates, bootstrap_quantile, build_band, check_band_settings, coverage_check

__all__ = ["StudyConfig", "StudyReport", "run_study", "run_naive_study"]

# Substream purposes, kept distinct so no two uses share a stream.
_STREAM_SERIES = 1
_STREAM_BOOT = 2
_STREAM_BOOT_PRIVATE = 3


def _child_seed(root: int, *key: int) -> int:
    ss = np.random.SeedSequence(root, spawn_key=tuple(int(v) for v in key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class StudyConfig:
    """Settings for one coverage study.

    The tuning defaults are fixed values rather than per-replication
    selection. Re-selecting the bandwidth or the block length on every
    replication narrows the bands and makes them more variable (the
    criteria surfaces are nearly flat, so the argmin wanders between seeds).
    On model1 at n = 400 (0.94 / 0.97 at lags 0 / 1 with these defaults)
    re-selected blocks cost 5-21 points of coverage and a cross-validated
    bandwidth 31-71; see the data-driven coverage table in ROADMAP.md.
    The fixed defaults were calibrated once, at n = 400; on model1 at
    n = 2000 they cover only 0.75 / 0.90, as the smoothing bias grows
    relative to the narrower band.

    ``h`` fixes the truncation lag; ``h=None`` re-selects it per replication
    with the lag scan of `estimate_lags`. ``b_h``/``b_k`` fix the regression
    bandwidths; ``None`` switches that bandwidth to per-replication
    cross-validation over ``bandwidth_grid``; with h auto, lag 0 takes the
    scan's own choice for the lag-h series as `estimate_lags` does.
    ``m``/``tau`` fix the long-run covariance blocks; one left None comes
    from minimum volatility (the other stays fixed; ``min_volatility=True``
    needs one None) or its plain rule (ceil(n^(1/3)), 0.2).
    Fixed bandwidths and tau lie in (0, 1/2) and m >= 1, checked by
    `acov._check_ranges` as in `estimate_lags`, and bandwidth_grid passes
    `check_bandwidth_grid` in `bandwidth_candidates`, when the config is
    built; it is frozen, so they stay checked. Gumbel needs
    b < 1/e, bootstrap at least 1000 draws (`check_band_settings`).
    ``quantile_inflation`` scales the bootstrap critical value, for
    sensitivity checks only; gumbel takes neither it nor
    ``share_bootstrap=False``.

    The checks on the working length run when a study starts, because they
    depend on the estimator. `run_study` runs those of `estimate_lags` and
    needs m <= (n - h) / 4 with h the fixed lag or else the largest the lag
    scan can return, `default_start_lag`. `run_naive_study` has no
    difference lag and ignores ``h``; it needs max(lags) <= n - 2 and
    m <= (n - max(lags)) / 4.
    """

    model: str | tuple[MeanSpec, ErrorModel] = "model1"
    n: int = 400
    replications: int = 200
    lags: tuple[int, ...] = (0, 1)
    alpha: float = 0.05
    draws: int = 2000
    seed: int = 0
    h: int | None = 3
    b_h: float | None = 0.2
    b_k: float | None = 0.2
    bandwidth_grid: np.ndarray | None = None
    m: int | None = 3
    tau: float | None = 0.2
    min_volatility: bool = False
    method: str = "bootstrap"
    threads: int = 1
    share_bootstrap: bool = True
    quantile_inflation: float = 1.0
    max_failure_fraction: float = 0.05
    kernel: Kernel = field(default_factory=epanechnikov)

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ConfigurationError("n must be >= 8")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")
        lags = tuple(sorted(set(int(k) for k in self.lags)))
        if not lags or any(k < 0 for k in lags):
            raise ConfigurationError("lags must be nonnegative integers")
        object.__setattr__(self, "lags", lags)
        check_band_settings(self.method, self.alpha, self.draws)
        _check_ranges(self.b_h, self.b_k, self.m, self.tau)
        if self.min_volatility and self.m is not None and self.tau is not None:
            raise ConfigurationError(
                "min_volatility selects m or tau, but both are fixed"
            )
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        bandwidth_candidates(self.method, self.bandwidth_grid,
                             (self.b_h, self.b_k))  # grid; gumbel: b < 1/e
        if self.quantile_inflation <= 0:
            raise ConfigurationError("quantile_inflation must be positive")
        if self.method == "gumbel" and (self.quantile_inflation != 1.0
                                        or not self.share_bootstrap):
            raise ConfigurationError(
                "quantile_inflation and share_bootstrap act on the bootstrap "
                "only; method gumbel takes neither"
            )
        if not 0.0 <= self.max_failure_fraction < 1.0:
            raise ConfigurationError("max_failure_fraction must be in [0, 1)")

    def resolve_model(self) -> tuple[MeanSpec, ErrorModel]:
        if isinstance(self.model, str):
            return model_preset(self.model)
        mean, err = self.model
        return mean, err

    def model_name(self) -> str:
        return self.model if isinstance(self.model, str) else "custom"


@dataclass
class StudyReport:
    """Aggregated study outcome.

    ``coverage`` maps each lag to the fraction of successful replications
    whose band contained the truth everywhere; ``details`` keeps one record
    per replication. ``elapsed`` is wall-clock seconds and is deliberately
    left out of the serialized key=value form so reruns are byte-identical.
    """

    kind: str
    config: dict[str, Any]
    coverage: dict[int, float]
    mean_width: dict[int, float]
    covered: dict[int, np.ndarray]
    success: np.ndarray
    failures: list[tuple[int, str]]
    details: list[dict[str, Any]]
    elapsed: float

    @property
    def n_success(self) -> int:
        return int(np.sum(self.success))

    def to_kv(self) -> list[str]:
        """Flat, deterministic key=value lines (no timing)."""
        lines = [f"kind={self.kind}"]
        for key in sorted(self.config):
            lines.append(f"config.{key}={self.config[key]}")
        lines.append(f"replications_succeeded={self.n_success}")
        lines.append(f"replications_failed={len(self.failures)}")
        for lag in sorted(self.coverage):
            lines.append(f"coverage.lag{lag}={self.coverage[lag]!r}")
            lines.append(f"mean_width.lag{lag}={self.mean_width[lag]!r}")
        return lines

    def table(self) -> str:
        rows = [f"{self.kind} study: {self.config.get('model', '?')}, "
                f"n={self.config.get('n')}, R={self.config.get('replications')}"]
        rows.append(f"successful replications: {self.n_success} "
                    f"(failed: {len(self.failures)})")
        rows.append(f"{'lag':>5} {'coverage':>10} {'mean width':>12}")
        for lag in sorted(self.coverage):
            rows.append(
                f"{lag:>5} {self.coverage[lag]:>10.4f} "
                f"{self.mean_width[lag]:>12.5f}"
            )
        return "\n".join(rows)


def _config_echo(cfg: StudyConfig, kind: str) -> dict[str, Any]:
    grid = cfg.bandwidth_grid
    echo = {
        "model": cfg.model_name(),
        "n": cfg.n,
        "replications": cfg.replications,
        "lags": ",".join(str(k) for k in cfg.lags),
        "alpha": cfg.alpha,
        "draws": cfg.draws,
        "seed": cfg.seed,
        "method": cfg.method,
        "min_volatility": cfg.min_volatility,
        "share_bootstrap": cfg.share_bootstrap,
        "quantile_inflation": cfg.quantile_inflation,
        # threads is an execution detail, not a statistical parameter;
        # keeping it out of the echo keeps serialized reports identical
        # across thread counts
        "bandwidth_grid": "default" if grid is None else
        ",".join(repr(float(b)) for b in np.asarray(grid)),
        "kind": kind,
    }
    if kind != "naive":  # the residual-based estimator has no difference lag
        echo["h"] = "auto" if cfg.h is None else cfg.h
    for name in ("b_h", "b_k", "m", "tau"):
        v = getattr(cfg, name)
        echo[name] = "auto" if v is None else v
    return echo


class _QuantileStore:
    """Memoized bootstrap critical values, safe under threads.

    Values are functions of the key and a seed derived from the key, never
    of replication data, so concurrent recomputation is harmless.
    """

    def __init__(self, cfg: StudyConfig):
        self.cfg = cfg
        self._lock = Lock()
        self._store: dict[tuple, BootstrapQuantile] = {}

    def get(self, rep: int, est: AcovEstimate) -> BootstrapQuantile:
        cfg = self.cfg
        n, b, scale = est.working_n, est.bandwidth, est.proxy_scale
        bkey = int(round(b * 1e9))
        skey = int(round(scale * 1e6))
        if not cfg.share_bootstrap:
            seed = _child_seed(cfg.seed, _STREAM_BOOT_PRIVATE, rep, n, bkey, skey)
            return bootstrap_quantile(
                n, b, cfg.kernel, draws=cfg.draws, alpha=cfg.alpha,
                seed=seed, grid=est.curve.grid, weight_scale=scale,
            )
        key = (n, bkey, skey, cfg.draws)
        with self._lock:
            hit = self._store.get(key)
        if hit is not None:
            return hit
        seed = _child_seed(cfg.seed, _STREAM_BOOT, n, bkey, skey, cfg.draws)
        bq = bootstrap_quantile(
            n, b, cfg.kernel, draws=cfg.draws, alpha=cfg.alpha,
            seed=seed, grid=est.curve.grid, weight_scale=scale,
        )
        with self._lock:
            return self._store.setdefault(key, bq)


def _blocks(cfg: StudyConfig, n_work: int) -> tuple[int | None, float | None]:
    """The (m, tau) of a replication with working length ``n_work``. A None
    stays None for minimum volatility, or else takes its plain rule."""
    m, tau = cfg.m, cfg.tau
    if not cfg.min_volatility:
        m = max(1, math.ceil(n_work ** (1 / 3))) if m is None else m
        tau = 0.2 if tau is None else tau
    return m, tau


def _score(cfg: StudyConfig, store: _QuantileStore, rep: int,
           model: ErrorModel, h: int, fitted: list) -> dict[str, Any]:
    """Band each (estimate, scale, m, tau); record coverage, width, tuning."""
    out: dict[str, Any] = {"h": h, "covered": {}, "width": {}, "b": {},
                           "m": {}, "tau": {}}
    for est, sigma, m, tau in fitted:
        quantile = None
        if cfg.method == "bootstrap":
            bq = store.get(rep, est)
            quantile = dataclasses.replace(
                bq, quantile=bq.quantile * cfg.quantile_inflation)
        band = build_band(est, sigma, cfg.kernel, method=cfg.method,
                          alpha=cfg.alpha, quantile=quantile)
        lag = est.lag
        truth = CurveOnGrid(
            grid=band.grid,
            values=np.atleast_1d(true_gamma(model, lag, band.grid)),
        )
        out["covered"][lag] = coverage_check(band, truth)
        out["width"][lag] = band.mean_width
        out["b"][lag] = est.bandwidth
        out["m"][lag] = m
        out["tau"][lag] = tau
    return out


def _replicate_diff(cfg: StudyConfig, y: TimeSeries,
                    bandwidths: np.ndarray | None) -> tuple[int, list]:
    h, b_h = _truncation_lag(y, cfg.h, cfg.lags, cfg.kernel, cfg.b_h,
                             bandwidths)
    m, tau = _blocks(cfg, y.n - h)
    # each bandwidth goes only where a lag uses it
    fits = estimate_lags(y, h, cfg.lags, cfg.kernel,
                         b_h=b_h if cfg.lags[0] == 0 else None,
                         b_k=cfg.b_k if cfg.lags[-1] > 0 else None,
                         m=m, tau=tau, bandwidths=bandwidths)
    return h, [(f.estimate, f.scale, f.m, f.tau) for f in fits]


def _replicate_naive(cfg: StudyConfig, y: TimeSeries,
                     bandwidths: np.ndarray | None) -> tuple[int, list]:
    b_mean, products = _lag_products(y, cfg.lags, cfg.kernel, cfg.b_h,
                                     cfg.b_k, bandwidths)
    fitted = []
    for lag, (prods, b_var) in zip(cfg.lags, products):
        level, _ = _design_fit(prods, b_var, cfg.kernel)
        est = _naive_acov(lag, _interior(level, b_var), b_var, b_mean,
                          prods.size)
        eps = prods - level
        pair = ResidualPair(eps=np.column_stack([eps, eps]), lags=(1, 1))
        m, tau = _blocks(cfg, pair.n)
        sigma, m, tau = _band_scale(pair, m, tau, cfg.kernel, est.curve.grid)
        fitted.append((est, sigma.sigma_h, m, tau))
    return 0, fitted


def _check_lengths(cfg: StudyConfig, kind: str) -> None:
    """The checks that depend on the estimator's working length: n - h
    differences for the difference study, n - k products at lag k for the
    residual-based one, which has no difference lag."""
    top = max(cfg.lags)
    if kind == "naive":
        if top > cfg.n - 2:
            raise ConfigurationError(f"lag {top} out of range for n={cfg.n}")
        n_work = cfg.n - top
    else:
        _check_settings(cfg.n, cfg.h, cfg.lags)  # ranges: at construction
        # the largest h a replication can use leaves the fewest blocks
        h = max(default_start_lag(cfg.n), top + 1) if cfg.h is None else cfg.h
        n_work = cfg.n - h
    if cfg.m is not None:
        _check_block_width([cfg.m], n_work)


def _run(cfg: StudyConfig, kind: str) -> StudyReport:
    _check_lengths(cfg, kind)
    mean, model = cfg.resolve_model()
    replicate = _replicate_naive if kind == "naive" else _replicate_diff
    store = _QuantileStore(cfg)
    bandwidths = bandwidth_candidates(cfg.method, cfg.bandwidth_grid,
                                      (cfg.b_h, cfg.b_k))
    R = cfg.replications

    def worker(rep: int) -> dict[str, Any] | tuple[int, str]:
        seed = np.random.SeedSequence(cfg.seed, spawn_key=(_STREAM_SERIES, rep))
        try:
            y = generate(mean, model, cfg.n, seed)
            h, fitted = replicate(cfg, y, bandwidths)
            return _score(cfg, store, rep, model, h, fitted)
        except TvacovError as exc:
            return (rep, f"{type(exc).__name__}: {exc}")

    t0 = time.perf_counter()
    if cfg.threads == 1:
        raw = [worker(rep) for rep in range(R)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            raw = list(pool.map(worker, range(R)))
    elapsed = time.perf_counter() - t0

    success = np.array([not isinstance(r, tuple) for r in raw])
    failures = [r for r in raw if isinstance(r, tuple)]
    if len(failures) > cfg.max_failure_fraction * R:
        raise NumericError(
            f"{len(failures)} of {R} replications failed "
            f"(limit {cfg.max_failure_fraction:.0%}); first: {failures[0][1]}"
        )
    covered = {lag: np.zeros(R, dtype=bool) for lag in cfg.lags}
    widths = {lag: np.full(R, np.nan) for lag in cfg.lags}
    details: list[dict[str, Any]] = []
    for rep, r in enumerate(raw):
        if isinstance(r, tuple):
            details.append({"rep": rep, "error": r[1]})
            continue
        details.append({"rep": rep, **r})
        for lag in cfg.lags:
            covered[lag][rep] = r["covered"][lag]
            widths[lag][rep] = r["width"][lag]
    n_ok = int(success.sum())
    coverage = {
        lag: float(covered[lag][success].sum() / n_ok) if n_ok else math.nan
        for lag in cfg.lags
    }
    mean_width = {
        lag: float(np.nanmean(widths[lag][success])) if n_ok else math.nan
        for lag in cfg.lags
    }
    return StudyReport(
        kind=kind,
        config=_config_echo(cfg, kind),
        coverage=coverage,
        mean_width=mean_width,
        covered=covered,
        success=success,
        failures=failures,
        details=details,
        elapsed=elapsed,
    )


def run_study(cfg: StudyConfig) -> StudyReport:
    """Coverage study of the difference-based bands. See `StudyConfig`."""
    return _run(cfg, "difference")


def run_naive_study(cfg: StudyConfig) -> StudyReport:
    """Coverage study of the residual-based (detrend-then-smooth) bands.

    The same protocol as `run_study` with the estimator swapped, bands built
    with the proxy scale 1 of the same bootstrap. Under abrupt
    trend shifts its coverage collapses; that contrast is the point.
    """
    return _run(cfg, "naive")
