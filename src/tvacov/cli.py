"""Command-line front end.

Subcommands: estimate, study, naive-study, tune, lag-select. One option
table declares every key once: its parser (the same for a flag value and a
config value), which commands take it and in what manifest order, whether
only a config file sets it (``kernel``, ``bandwidth_grid``), and whether it
is a recorded result a command never reads back (tune's b_h, b_k, m, tau
and lag-select's h). Options can also come from a flat key=value config
file (``--config``); explicit flags win over config values, config values
win over defaults. ``auto`` (choose from the data) is a value of h, h0,
b_h, b_k, m, tau and grid_points; a study takes one value each of b_k, m
and tau. A key the command does not take, a flag not spelled out in full
or a value its parser rejects exits 2 before any series is loaded, as does
an n other than the row count of --input. `estimate` and `tune` pass an
auto h to `estimate_lags`, which runs every check before its lag scan.
Every run that writes output also writes ``manifest.txt`` holding the fully
resolved parameters; the manifest is itself a valid config file, so

    tvacov estimate --config out/manifest.txt --out other

reproduces the original output files byte for byte (floats are printed with
repr, which round-trips exactly).

Exit codes: 0 success, 2 configuration error, 3 input parse error,
4 numerical failure, 5 tuning failure.
"""

from __future__ import annotations

import argparse
import csv
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
from .scb import (
    bandwidth_candidates,
    bootstrap_quantile,
    build_band,
    check_band_settings,
)
from .study import StudyConfig, _child_seed, run_naive_study, run_study

__all__ = ["main", "ingest_csv"]

_MIN_ROWS = 50


def _fmt(v: float) -> str:
    # repr round-trips float64 exactly; that is what makes reruns bytewise equal
    return repr(float(v))


def ingest_csv(path: str | Path) -> TimeSeries:
    """Read a one- or two-column CSV into a TimeSeries.

    With two columns the first (index or date) is ignored and the second is
    the value. A single header line and a UTF-8 byte-order mark are
    allowed. Any other non-numeric, missing, or non-finite value is an
    error naming the offending line.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
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
# the option table: one parser per key, for a flag value and a config value

def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(s)


def _list(parse):
    def parse_list(s: str) -> tuple:
        values = tuple(parse(p) for p in s.split(",") if p.strip())
        if not values:
            raise ValueError(s)
        return values
    return parse_list


def _at_least(low: int):
    def parse_int(s: str) -> int:
        value = int(s)
        if value < low:
            raise ValueError(s)
        return value
    return parse_int


def _choice(*names: str):
    def parse_choice(s: str) -> str:
        if s not in names:
            raise ValueError(s)
        return s
    return parse_choice


_PARSERS = {
    "input": str,
    "model": str,
    "n": int,
    "seed": _at_least(0),  # numpy seeds are nonnegative
    "threads": _at_least(1),
    "reps": int,
    "lags": _list(int),
    "alpha": float,
    "draws": int,
    "method": _choice("bootstrap", "gumbel"),
    "kernel": _choice("epanechnikov"),
    "h": int,
    "h0": int,
    "threshold": float,
    "b_h": float,
    "b_k": _list(float),
    "m": _list(int),
    "tau": _list(float),
    "grid_points": int,
    "min_volatility": _parse_bool,
    "full": _parse_bool,
    "bandwidth_grid": _list(float),
}
# keys that also take "auto" (None): chosen from the data, or by StudyConfig
_AUTO = {"h", "h0", "b_h", "b_k", "m", "tau", "grid_points"}
_HELP = {
    "input": "CSV input (1 or 2 columns)",
    "model": f"preset: {', '.join(PRESET_NAMES)}",
    "n": "length for --model",
    "lags": "e.g. 0,1",
    "method": "bootstrap or gumbel",
    "full": "R=500, 10000 draws",
}

# Per command, the keys it takes, in manifest order; threads changes no
# output, so no manifest records it.
_SOURCE = ("input", "model", "n", "seed")
_STUDY_KEYS = ("model", "n", "reps", "lags", "alpha", "draws", "seed",
               "method", "kernel", "h", "b_h", "b_k", "m", "tau",
               "min_volatility", "full", "bandwidth_grid", "threads")
_KEYS = {
    "estimate": (*_SOURCE, "lags", "alpha", "draws", "method", "kernel", "h",
                 "b_h", "b_k", "m", "tau", "grid_points", "bandwidth_grid",
                 "threads"),
    "study": _STUDY_KEYS,
    "naive-study": tuple(k for k in _STUDY_KEYS if k != "h"),
    "tune": (*_SOURCE, "h", "b_h", "b_k", "m", "tau", "bandwidth_grid"),
    "lag-select": (*_SOURCE, "h", "h0", "threshold"),
}
# keys only a config file sets
_CONFIG_ONLY = {"kernel", "bandwidth_grid"}
# results a command records: a replayed manifest may carry them, but the
# command never reads them as inputs
_RECORDED = {"tune": {"b_h", "b_k", "m", "tau"}, "lag-select": {"h"}}
# a study's defaults are StudyConfig's
_DEFAULTS = {
    "estimate": dict(seed=0, threads=1, lags=(0, 1), alpha=0.05,
                     draws=10_000, method="bootstrap", kernel="epanechnikov"),
    "tune": dict(seed=0),
    "lag-select": dict(seed=0, threshold=3.0),
}


def _flag_keys(command: str) -> list[str]:
    skip = _CONFIG_ONLY | _RECORDED.get(command, set())
    return [k for k in _KEYS[command] if k not in skip]


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config(path: str, command: str) -> dict:
    """The raw values of a key=value file, each with the line it came from."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    taken = set(_KEYS[command])
    # "command" and "version" are manifest bookkeeping
    skip = {"command", "version", *_RECORDED.get(command, ())}
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}: line {lineno}"
        if "=" not in line:
            raise ConfigurationError(f"{where}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in skip:
            continue
        if key not in taken:
            raise ConfigurationError(f"{where}: {command} does not take {key!r}")
        out[key] = where, value.strip()
    return out


def _settings(args: argparse.Namespace) -> dict:
    """The command's values: defaults, then the config file, then the flags,
    every one converted by its key's parser."""
    raw = _load_config(args.config, args.command) if args.config else {}
    for key in _flag_keys(args.command):
        value = getattr(args, key)
        if value is not None:
            raw[key] = _flag(key), str(value)
    values = dict(_DEFAULTS.get(args.command, {}))
    for key, (where, text) in raw.items():
        try:
            values[key] = (None if key in _AUTO and text == "auto"
                           else _PARSERS[key](text))
        except ValueError:
            raise ConfigurationError(
                f"{where}: bad value for {key}: {text!r}"
            ) from None
    return values


# ---------------------------------------------------------------------------
# series loading

def _load_series(values: dict) -> TimeSeries:
    if (values.get("input") is None) == (values.get("model") is None):
        raise ConfigurationError("give exactly one of --input or --model")
    if values.get("input") is not None:
        y = ingest_csv(values["input"])
        # manifests record n as the row count, so an equal n replays
        if values.get("n") not in (None, y.n):
            raise ConfigurationError(
                f"--n {values['n']} differs from the {y.n} rows of "
                f"{values['input']}"
            )
        return y
    if values.get("n") is None:
        raise ConfigurationError("--model needs --n")
    mean, err = model_preset(values["model"])
    return generate(mean, err, values["n"], values["seed"])


# ---------------------------------------------------------------------------
# output writers

def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _format(v) -> str:
    if v is None:
        return "auto"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ",".join(_format(x) for x in v)
    return _fmt(v) if isinstance(v, float) else str(v)


def _write_manifest(out: Path, command: str, values: dict) -> None:
    """The command's keys in table order, as a config file that replays the
    run; a key without a value is written as auto where auto means
    something and is left out elsewhere."""
    lines = [f"command={command}", f"version={__version__}"]
    for key in _KEYS[command]:
        if key != "threads" and (values.get(key) is not None or key in _AUTO):
            lines.append(f"{key}={_format(values.get(key))}")
    _write_lines(out / "manifest.txt", lines)


def _write_band_csv(path: Path, band) -> None:
    lines = ["t,center,lower,upper"]
    for t, c, lo, up in zip(band.grid, band.center, band.lower, band.upper):
        lines.append(f"{_fmt(t)},{_fmt(c)},{_fmt(lo)},{_fmt(up)}")
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_estimate(args) -> int:
    v = _settings(args)
    if not args.out:
        raise ConfigurationError("estimate needs --out")
    out = Path(args.out)
    kernel = epanechnikov()
    lags = tuple(sorted(set(v["lags"])))
    method, alpha, draws = v["method"], v["alpha"], v["draws"]
    check_band_settings(method, alpha, draws)
    y = _load_series(v)
    candidates = bandwidth_candidates(method, v.get("bandwidth_grid"),
                                      (v.get("b_h"), *(v.get("b_k") or [None])))
    fits = estimate_lags(
        y, v.get("h"), lags, kernel, b_h=v.get("b_h"), b_k=v.get("b_k"),
        m=v.get("m"), tau=v.get("tau"), bandwidths=candidates,
        grid_points=v.get("grid_points"),
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
                    alpha=alpha, seed=_child_seed(v["seed"], 10, lag),
                    grid=est.curve.grid, weight_scale=est.proxy_scale,
                    threads=v["threads"],
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

    _write_manifest(out, "estimate", dict(
        v, n=y.n, lags=lags, h=fits[0].estimate.diff_lag,
        b_h=fits[0].b if lags[0] == 0 else None,
        b_k=tuple(fit.b for fit in fits if fit.estimate.lag > 0) or None,
        m=tuple(fit.m for fit in fits),
        tau=tuple(fit.tau for fit in fits),
    ))
    print(f"wrote {len(lags)} band file(s) and manifest.txt to {out}")
    return 0


def _cmd_study(args) -> int:
    v = _settings(args)
    full = v.pop("full", False)
    if full:
        v.setdefault("reps", 500)
        v.setdefault("draws", 10_000)
    for key in ("b_k", "m", "tau"):
        if v.get(key) is not None:
            if len(v[key]) != 1:
                raise ConfigurationError(f"a study takes one {key}, got "
                                         f"{_format(v[key])}")
            v[key] = v[key][0]
    fields = {("replications" if k == "reps" else k): x
              for k, x in v.items() if k != "kernel"}
    if "bandwidth_grid" in fields:
        fields["bandwidth_grid"] = np.asarray(fields["bandwidth_grid"])
    cfg = StudyConfig(**fields)
    kind = "difference" if args.command == "study" else "naive"
    report = run_study(cfg) if kind == "difference" else run_naive_study(cfg)
    print(report.table())
    print(f"elapsed: {report.elapsed:.1f}s")
    if args.out:
        out = Path(args.out)
        _write_lines(out / "study_report.txt", report.to_kv())
        _write_manifest(out, args.command, dict(
            vars(cfg), reps=cfg.replications, kernel=cfg.kernel.name,
            full=full, bandwidth_grid=v.get("bandwidth_grid"),
        ))
        print(f"wrote study_report.txt and manifest.txt to {out}")
    return 0


def _cmd_tune(args) -> int:
    v = _settings(args)
    y = _load_series(v)
    lag0, lag1 = estimate_lags(y, v.get("h"), (0, 1), epanechnikov(),
                               bandwidths=v.get("bandwidth_grid"))
    tuned = dict(h=lag0.estimate.diff_lag, b_h=lag0.b, b_k=lag1.b, m=lag1.m,
                 tau=lag1.tau)
    lines = [f"{key}={_format(x)}" for key, x in tuned.items()]
    print("\n".join(lines))
    if args.out:
        out = Path(args.out)
        _write_lines(out / "tune.txt", lines)
        _write_manifest(out, "tune", dict(v, n=y.n, **tuned))
    return 0


def _cmd_lag_select(args) -> int:
    v = _settings(args)
    y = _load_series(v)
    sel = select_lag(y, h0=v.get("h0"), threshold=v["threshold"],
                     kernel=epanechnikov())
    print(f"h={sel.h}")
    print(f"h0={sel.h0}")
    if args.out:
        out = Path(args.out)
        lines = ["t,h_star"]
        for t, hs in zip(y.grid, sel.local):
            lines.append(f"{_fmt(t)},{int(hs)}")
        _write_lines(out / "lag_selection.csv", lines)
        _write_manifest(out, "lag-select", dict(v, n=y.n, h=sel.h, h0=sel.h0))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

_COMMANDS = {
    "estimate": (_cmd_estimate, "fit curves and write band CSVs"),
    "study": (_cmd_study, "difference coverage study"),
    "naive-study": (_cmd_study, "naive coverage study"),
    "tune": (_cmd_tune, "report data-driven smoothing parameters"),
    "lag-select": (_cmd_lag_select, "choose the truncation lag"),
}


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand's flags from the option table; argparse only
    collects raw strings, which `_settings` converts."""
    ap = argparse.ArgumentParser(
        prog="tvacov",
        allow_abbrev=False,
        description="Difference-based time-varying autocovariance estimation "
                    "with simultaneous confidence bands.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (func, help_) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_, allow_abbrev=False)
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--out", help="output directory")
        for key in _flag_keys(command):
            action = (argparse.BooleanOptionalAction
                      if _PARSERS[key] is _parse_bool else None)
            p.add_argument(_flag(key), dest=key, action=action,
                           help=_HELP.get(key))
        p.set_defaults(func=func)
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
