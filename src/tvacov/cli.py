"""Command-line front end.

Subcommands: estimate, study, naive-study, tune, lag-select. Options can
also come from a flat key=value config file (``--config``); explicit flags
win over config values, config values win over defaults. Every run that
writes output also writes ``manifest.txt`` holding the fully resolved
parameters; the manifest is itself a valid config file, so

    tvacov estimate --config out/manifest.txt --out other

reproduces the original output files byte for byte (floats are printed with
repr, which round-trips exactly).

Exit codes: 0 success, 2 configuration error, 3 input parse error,
4 numerical failure, 5 tuning failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acov import estimate_lags
from .diffseries import select_lag
from .errors import ConfigurationError, ParseError, TvacovError
from .kernels import epanechnikov
from .procgen import TimeSeries, generate, model_preset, PRESET_NAMES
from .scb import bandwidth_candidates, bootstrap_quantile, build_band
from .study import StudyConfig, _child_seed, run_naive_study, run_study

__all__ = ["main", "ingest_csv"]

_MIN_ROWS = 50


def _fmt(v: float) -> str:
    # repr round-trips float64 exactly; that is what makes reruns bytewise equal
    return repr(float(v))


def ingest_csv(path: str | Path) -> TimeSeries:
    """Read a one- or two-column CSV into a TimeSeries.

    With two columns the first (index or date) is ignored and the second is
    the value. A single header line is allowed. Any other non-numeric,
    missing, or non-finite value is an error naming the offending line.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    values: list[float] = []
    header_allowed = True
    for lineno, row in enumerate(csv.reader(text.splitlines()), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) > 2:
            raise ParseError(f"{path}: line {lineno}: expected 1 or 2 columns")
        cell = row[-1].strip()
        try:
            v = float(cell)
        except ValueError:
            if header_allowed:
                header_allowed = False
                continue
            raise ParseError(
                f"{path}: line {lineno}: non-numeric value {cell!r}"
            ) from None
        if not math.isfinite(v):
            raise ParseError(f"{path}: line {lineno}: non-finite value {cell!r}")
        header_allowed = False
        values.append(v)
    if len(values) < _MIN_ROWS:
        raise ParseError(
            f"{path}: {len(values)} usable rows; need at least {_MIN_ROWS}"
        )
    return TimeSeries(values=np.asarray(values))


# ---------------------------------------------------------------------------
# config file handling

def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"expected a boolean, got {s!r}")


def _parse_lags(s: str) -> tuple[int, ...]:
    try:
        lags = tuple(int(p) for p in str(s).split(",") if p.strip() != "")
    except ValueError:
        raise ConfigurationError(f"bad lag list {s!r}") from None
    if not lags:
        raise ConfigurationError("lag list is empty")
    return lags


def _parse_float_list(s: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in str(s).split(",") if p.strip() != "")
    except ValueError:
        raise ConfigurationError(f"bad number list {s!r}") from None


def _parse_int_list(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in str(s).split(",") if p.strip() != "")
    except ValueError:
        raise ConfigurationError(f"bad integer list {s!r}") from None


def _identity(s: str) -> str:
    return s


_OPTIONAL = object()

# key -> parser for values arriving via a config file. "command" and
# "version" are manifest bookkeeping and are accepted but ignored.
_CONFIG_PARSERS = {
    "command": _identity,
    "version": _identity,
    "input": _identity,
    "model": _identity,
    "n": int,
    "seed": int,
    "lags": _parse_lags,
    "alpha": float,
    "draws": int,
    "method": _identity,
    "kernel": _identity,
    "h": int,
    "h0": int,
    "threshold": float,
    "b_h": float,
    "b_k": _parse_float_list,
    "m": _parse_int_list,
    "tau": _parse_float_list,
    "min_volatility": _parse_bool,
    "grid_points": int,
    "threads": int,
    "reps": int,
    "full": _parse_bool,
    "bandwidth_grid": _parse_float_list,
}

_AUTO_KEYS = {"h", "h0", "b_h", "b_k", "m", "tau", "grid_points"}


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}: line {lineno}: expected key=value"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigurationError(f"{path}: line {lineno}: unknown key {key!r}")
        if value == "auto" and key in _AUTO_KEYS:
            out[key] = None
            continue
        try:
            out[key] = _CONFIG_PARSERS[key](value)
        except (ValueError, TypeError):
            raise ConfigurationError(
                f"{path}: line {lineno}: bad value for {key}: {value!r}"
            ) from None
    out.pop("command", None)
    out.pop("version", None)
    return out


def _resolve(args: argparse.Namespace, name: str, config: dict, default):
    cli_value = getattr(args, name, None)
    if cli_value is not None:
        return cli_value
    if name in config:
        return config[name]
    return default


# ---------------------------------------------------------------------------
# series loading

def _load_series(args, config) -> tuple[TimeSeries, dict]:
    src_input = _resolve(args, "input", config, None)
    model = _resolve(args, "model", config, None)
    if (src_input is None) == (model is None):
        raise ConfigurationError("give exactly one of --input or --model")
    seed = int(_resolve(args, "seed", config, 0))
    if src_input is not None:
        y = ingest_csv(src_input)
        meta = {"input": str(src_input), "n": y.n, "seed": seed}
        return y, meta
    n = _resolve(args, "n", config, None)
    if n is None:
        raise ConfigurationError("--model needs --n")
    mean, err = model_preset(str(model))
    y = generate(mean, err, int(n), seed)
    return y, {"model": str(model), "n": int(n), "seed": seed}


# ---------------------------------------------------------------------------
# output writers

def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(out: Path, command: str, entries: dict) -> None:
    lines = [f"command={command}", f"version={__version__}"]
    for key in entries:
        v = entries[key]
        if v is None:
            v = "auto"
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = _fmt(v)
        elif isinstance(v, (tuple, list)):
            v = ",".join(_fmt(x) if isinstance(x, float) else str(x) for x in v)
        lines.append(f"{key}={v}")
    _write_lines(out / "manifest.txt", lines)


def _write_band_csv(path: Path, band) -> None:
    lines = ["t,center,lower,upper"]
    for t, c, lo, up in zip(band.grid, band.center, band.lower, band.upper):
        lines.append(f"{_fmt(t)},{_fmt(c)},{_fmt(lo)},{_fmt(up)}")
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# subcommands

def _truncation_lag(args, config, y: TimeSeries, lags, kernel) -> int:
    h = _resolve(args, "h", config, None)
    if h is None:
        h = max(select_lag(y, kernel=kernel).h, max(lags) + 1)
    return int(h)


def _cmd_estimate(args) -> int:
    config = _load_config(args.config) if args.config else {}
    out = Path(args.out) if args.out else None
    if out is None:
        raise ConfigurationError("estimate needs --out")
    kernel = epanechnikov()
    y, meta = _load_series(args, config)
    lags = tuple(sorted(set(_resolve(args, "lags", config, (0, 1)))))
    if any(k < 0 for k in lags):
        raise ConfigurationError("lags must be nonnegative")
    alpha = float(_resolve(args, "alpha", config, 0.05))
    draws = int(_resolve(args, "draws", config, 10_000))
    method = str(_resolve(args, "method", config, "bootstrap"))
    threads = int(_resolve(args, "threads", config, 1))
    grid_points = _resolve(args, "grid_points", config, None)
    bw_grid = config.get("bandwidth_grid")

    b_h = _resolve(args, "b_h", config, None)
    b_k = _resolve(args, "b_k", config, None)
    candidates = bandwidth_candidates(method, bw_grid, (b_h, *(b_k or [None])))
    h = _truncation_lag(args, config, y, lags, kernel)

    fits = estimate_lags(
        y, h, lags, kernel, b_h=b_h, b_k=b_k,
        m=_resolve(args, "m", config, None),
        tau=_resolve(args, "tau", config, None),
        bandwidths=candidates, grid_points=grid_points,
    )
    # A critical value depends on its context (n, b, band grid), never on
    # the data: lags in one context reuse the first such lag's quantile,
    # drawn with that lag's seed.
    quantiles: dict = {}
    for fit in fits:
        est = fit.estimate
        lag = est.lag
        quantile, interval, shared = None, "", ""
        if method == "bootstrap":
            key = (est.bandwidth, est.curve.grid.tobytes())
            if key not in quantiles:
                quantiles[key] = lag, bootstrap_quantile(
                    est.working_n, est.bandwidth, kernel, draws=draws,
                    alpha=alpha, seed=_child_seed(meta["seed"], 10, lag),
                    grid=est.curve.grid, threads=threads,
                )
            first, quantile = quantiles[key]
            lo, hi = quantile.quantile_interval()
            interval = f" (95% Monte-Carlo interval [{lo:.4g}, {hi:.4g}])"
            if first != lag:
                shared = f" quantile=shared with lag {first}"
        band = build_band(est, fit.scale, kernel, method=method, alpha=alpha,
                          quantile=quantile)
        _write_band_csv(out / f"gamma{lag}_band.csv", band)
        print(f"lag {lag}: bandwidth={fit.b:.4g} m={fit.m} tau={fit.tau} "
              f"half-width factor={band.sigma_factor:.4g}{interval} "
              f"has_negative={est.has_negative} "
              f"clipped={fit.sigma.clipped}{shared}")

    entries = dict(meta)
    entries.update(
        lags=",".join(str(k) for k in lags),
        alpha=alpha,
        draws=draws,
        method=method,
        kernel=kernel.name,
        h=h,
        b_h=fits[0].b if lags[0] == 0 else None,
        b_k=tuple(fit.b for fit in fits if fit.estimate.lag > 0) or None,
        m=tuple(fit.m for fit in fits),
        tau=tuple(fit.tau for fit in fits),
        grid_points=grid_points,
    )
    if bw_grid is not None:
        entries["bandwidth_grid"] = bw_grid
    _write_manifest(out, "estimate", entries)
    print(f"wrote {len(lags)} band file(s) and manifest.txt to {out}")
    return 0


def _study_config(args, config, kind: str) -> StudyConfig:
    model = _resolve(args, "model", config, "model1")
    n = int(_resolve(args, "n", config, 400))
    full = bool(_resolve(args, "full", config, False))
    reps = _resolve(args, "reps", config, None)
    draws = _resolve(args, "draws", config, None)
    if reps is None:
        reps = 500 if full else 200
    if draws is None:
        draws = 10_000 if full else 2000
    lags = _resolve(args, "lags", config, (0, 1))
    # tuning knobs default to the StudyConfig values, not to "auto"; the
    # study takes the first value of a per-lag list from a config file
    dflt = {f.name: f.default for f in dataclasses.fields(StudyConfig)}
    h = _resolve(args, "h", config, dflt["h"])
    knob = {}
    for name in ("b_k", "m", "tau"):
        v = _resolve(args, name, config, dflt[name])
        knob[name] = (v[0] if v else None) if isinstance(v, tuple) else v
    bw_grid = config.get("bandwidth_grid")
    return StudyConfig(
        model=str(model),
        n=n,
        replications=int(reps),
        lags=tuple(lags),
        alpha=float(_resolve(args, "alpha", config, 0.05)),
        draws=int(draws),
        seed=int(_resolve(args, "seed", config, 0)),
        h=None if h in (None, "auto") else int(h),
        b_h=_resolve(args, "b_h", config, dflt["b_h"]),
        bandwidth_grid=np.asarray(bw_grid) if bw_grid is not None else None,
        **knob,
        min_volatility=bool(
            _resolve(args, "min_volatility", config, dflt["min_volatility"])
        ),
        method=str(_resolve(args, "method", config, "bootstrap")),
        threads=int(_resolve(args, "threads", config, 1)),
    )


def _manifest_from_study(cfg: StudyConfig, full: bool) -> dict:
    return dict(
        model=cfg.model,
        n=cfg.n,
        reps=cfg.replications,
        lags=",".join(str(k) for k in cfg.lags),
        alpha=cfg.alpha,
        draws=cfg.draws,
        seed=cfg.seed,
        method=cfg.method,
        kernel=cfg.kernel.name,
        h=cfg.h,
        b_h=cfg.b_h,
        b_k=cfg.b_k,
        m=cfg.m,
        tau=cfg.tau,
        min_volatility=cfg.min_volatility,
        full=full,
    )


def _cmd_study(args, kind: str) -> int:
    config = _load_config(args.config) if args.config else {}
    cfg = _study_config(args, config, kind)
    report = run_study(cfg) if kind == "difference" else run_naive_study(cfg)
    print(report.table())
    print(f"elapsed: {report.elapsed:.1f}s")
    if args.out:
        out = Path(args.out)
        _write_lines(out / "study_report.txt", report.to_kv())
        full = bool(_resolve(args, "full", config, False))
        command = "study" if kind == "difference" else "naive-study"
        _write_manifest(out, command, _manifest_from_study(cfg, full))
        print(f"wrote study_report.txt and manifest.txt to {out}")
    return 0


def _cmd_tune(args) -> int:
    config = _load_config(args.config) if args.config else {}
    kernel = epanechnikov()
    y, meta = _load_series(args, config)
    h = _truncation_lag(args, config, y, (0, 1), kernel)
    lag0, lag1 = estimate_lags(y, h, (0, 1), kernel,
                               bandwidths=config.get("bandwidth_grid"))
    lines = [
        f"h={h}",
        f"b_h={_fmt(lag0.b)}",
        f"b_k={_fmt(lag1.b)}",
        f"m={lag1.m}",
        f"tau={_fmt(lag1.tau)}",
    ]
    print("\n".join(lines))
    if args.out:
        out = Path(args.out)
        _write_lines(out / "tune.txt", lines)
        _write_manifest(out, "tune", dict(meta, h=h, b_h=lag0.b, b_k=(lag1.b,),
                                          m=(lag1.m,), tau=(lag1.tau,)))
    return 0


def _cmd_lag_select(args) -> int:
    config = _load_config(args.config) if args.config else {}
    kernel = epanechnikov()
    y, meta = _load_series(args, config)
    h0 = _resolve(args, "h0", config, None)
    threshold = float(_resolve(args, "threshold", config, 3.0))
    sel = select_lag(y, h0=h0 if h0 is None else int(h0),
                     threshold=threshold, kernel=kernel)
    print(f"h={sel.h}")
    print(f"h0={sel.h0}")
    if args.out:
        out = Path(args.out)
        lines = ["t,h_star"]
        for t, hs in zip(y.grid, sel.local):
            lines.append(f"{_fmt(t)},{int(hs)}")
        _write_lines(out / "lag_selection.csv", lines)
        _write_manifest(out, "lag-select",
                        dict(meta, h=sel.h, h0=sel.h0, threshold=threshold))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser, with_series: bool = True) -> None:
    p.add_argument("--config", help="key=value config file; flags win")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    if with_series:
        p.add_argument("--input", help="CSV input (1 or 2 columns)")
        p.add_argument("--model", help=f"preset: {', '.join(PRESET_NAMES)}")
        p.add_argument("--n", type=int, help="length for --model")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tvacov",
        description="Difference-based time-varying autocovariance estimation "
                    "with simultaneous confidence bands.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("estimate", help="fit curves and write band CSVs")
    _add_common(pe)
    pe.add_argument("--lags", type=_parse_lags, help="e.g. 0,1")
    pe.add_argument("--alpha", type=float)
    pe.add_argument("--draws", type=int)
    pe.add_argument("--method", choices=("bootstrap", "gumbel"))
    pe.add_argument("--h", type=int)
    pe.add_argument("--b-h", dest="b_h", type=float)
    pe.add_argument("--b-k", dest="b_k", type=_parse_float_list)
    pe.add_argument("--m", type=_parse_int_list)
    pe.add_argument("--tau", type=_parse_float_list)
    pe.add_argument("--grid-points", dest="grid_points", type=int)
    pe.set_defaults(func=_cmd_estimate)

    for name, kind in (("study", "difference"), ("naive-study", "naive")):
        ps = sub.add_parser(name, help=f"{kind} coverage study")
        _add_common(ps, with_series=False)
        ps.add_argument("--model")
        ps.add_argument("--n", type=int)
        ps.add_argument("--reps", type=int)
        ps.add_argument("--lags", type=_parse_lags)
        ps.add_argument("--alpha", type=float)
        ps.add_argument("--draws", type=int)
        ps.add_argument("--method", choices=("bootstrap", "gumbel"))
        ps.add_argument("--h", type=int)
        ps.add_argument("--b-h", dest="b_h", type=float)
        ps.add_argument("--b-k", dest="b_k", type=float)
        ps.add_argument("--m", type=int)
        ps.add_argument("--tau", type=float)
        ps.add_argument("--min-volatility", dest="min_volatility",
                        action=argparse.BooleanOptionalAction, default=None)
        ps.add_argument("--full", action=argparse.BooleanOptionalAction,
                        default=None, help="R=500, 10000 draws")
        ps.set_defaults(func=lambda a, k=kind: _cmd_study(a, k))

    pt = sub.add_parser("tune", help="report data-driven smoothing parameters")
    _add_common(pt)
    pt.add_argument("--h", type=int)
    pt.set_defaults(func=_cmd_tune)

    pl = sub.add_parser("lag-select", help="choose the truncation lag")
    _add_common(pl)
    pl.add_argument("--h0", type=int)
    pl.add_argument("--threshold", type=float)
    pl.set_defaults(func=_cmd_lag_select)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except TvacovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
