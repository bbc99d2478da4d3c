"""Correctness checks for benchmark ops, run outside the timed region.

Nothing here calls into tvacov: the oracle, the candidate grids and the file
parsers are written from the method's definition so that a wrong program
cannot also make its own check pass. Each check returns a list of failure
messages; an empty list means the op is correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Centers must match the oracle to this relative tolerance. Reordering the
# smoother's sums moves them by ~1e-12, well inside it.
ORACLE_RTOL = 1e-9
ORACLE_POINTS = 9

# Simultaneous coverage of the model1, n=400, 2000-draw study with the
# calibrated StudyConfig tuning, pooled over 2400 replications (study seeds
# 100..111) of the commit that introduced this benchmark.
REFERENCE_COVERAGE = {0: 2255 / 2400, 1: 2308 / 2400}
# Allowed distance from the reference, in binomial standard errors of one
# study's coverage.
COVERAGE_Z = 4.0


def read_manifest(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path.name}: malformed line {line!r}")
        out[key] = value
    return out


def read_series(path: Path) -> np.ndarray:
    """The value column of a benchmark input CSV (one header line)."""
    rows = path.read_text().splitlines()[1:]
    return np.array([float(r.split(",")[-1]) for r in rows if r.strip()])


def read_band(path: Path) -> dict[str, np.ndarray]:
    """Parse a t,center,lower,upper band file; raises ValueError if malformed."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["t", "center", "lower", "upper"]:
        raise ValueError(f"{path.name}: bad header")
    body = np.array([[float(c) for c in r] for r in rows[1:]], dtype=float)
    if body.ndim != 2 or body.shape[0] == 0 or body.shape[1] != 4:
        raise ValueError(f"{path.name}: expected rows of 4 numbers")
    if not np.all(np.isfinite(body)):
        raise ValueError(f"{path.name}: non-finite values")
    return dict(zip(("t", "center", "lower", "upper"), body.T))


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def wls_level(v: np.ndarray, t: float, b: float) -> float:
    """Local-linear level at t: weighted least squares on (1, t_i - t) with
    Epanechnikov weights K((t_i - t)/b), design points t_i = i/n."""
    x = np.arange(1, v.size + 1) / v.size - t
    w = _epanechnikov(x / b)
    keep = w > 0
    sw = np.sqrt(w[keep])
    design = np.column_stack([sw, sw * x[keep]])
    coef, *_ = np.linalg.lstsq(design, sw * v[keep], rcond=None)
    return float(coef[0])


def sq_diff(y: np.ndarray, k: int) -> np.ndarray:
    d = y[k:] - y[:-k]
    return d * d


def bandwidth_grid() -> list[float]:
    """Default GCV candidates: 0.15 to 0.45 in steps of 0.01."""
    return [round(0.15 + 0.01 * i, 10) for i in range(31)]


def block_grid(n: int) -> list[int]:
    """Default min-volatility block half-widths for working length n."""
    root = n ** (1 / 3)
    lo = math.ceil(root / 2)
    hi = min(math.ceil(2 * root), n // 4)
    return sorted({int(round(x)) for x in np.linspace(lo, hi, 7)})


SPAN_GRID = (0.10, 0.15, 0.20, 0.25, 0.30)


def start_lag(n: int) -> int:
    """Top of the lag scan for a series of length n."""
    return min(20, max(3, math.ceil(n**0.25 * math.log(n) / 4.0)))


def _on_grid(value: float, grid) -> bool:
    return any(abs(value - g) <= 1e-12 for g in grid)


def _floats(s: str) -> list[float]:
    return [float(p) for p in s.split(",")]


def check_estimate_tuning(man: dict[str, str], n: int,
                          fixed: dict | None) -> list[str]:
    """Tuning in the manifest: fixed values echoed exactly, or auto-tuned
    values on their candidate grids."""
    errs = []
    h = int(man["h"])
    b = [float(man["b_h"])] + _floats(man["b_k"])
    m = [int(x) for x in man["m"].split(",")]
    tau = _floats(man["tau"])
    if fixed is not None:
        got = {"h": h, "b_h": b[0], "b_k": b[1], "m": m, "tau": tau}
        want = {"h": fixed["h"], "b_h": fixed["b_h"], "b_k": fixed["b_k"],
                "m": [fixed["m"]] * len(m), "tau": [fixed["tau"]] * len(tau)}
        if got != want:
            errs.append(f"manifest tuning {got} != requested {want}")
        return errs
    if not 2 <= h <= start_lag(n):
        errs.append(f"h={h} outside the lag scan [2, {start_lag(n)}]")
    bgrid = bandwidth_grid()
    errs += [f"bandwidth {x!r} not a GCV candidate" for x in b
             if not _on_grid(x, bgrid)]
    mgrid = block_grid(n - h)
    errs += [f"m={x} not in block grid {mgrid}" for x in m if x not in mgrid]
    errs += [f"tau={x!r} not in span grid" for x in tau
             if not _on_grid(x, SPAN_GRID)]
    return errs


def check_estimate(input_csv: Path, out: Path, fixed: dict | None) -> list[str]:
    """Band files parse and are ordered, centers match the WLS oracle, and
    the manifest's tuning is valid."""
    try:
        man = read_manifest(out / "manifest.txt")
        lags = [int(k) for k in man["lags"].split(",")]
        h = int(man["h"])
        b_by_lag = dict(zip(lags, [float(man["b_h"])] + _floats(man["b_k"])))
        bands = {k: read_band(out / f"gamma{k}_band.csv") for k in lags}
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    y = read_series(input_csv)
    errs = check_estimate_tuning(man, y.size, fixed)
    rho_h = sq_diff(y, h)
    for k, band in bands.items():
        if np.any(band["lower"] > band["center"]) or np.any(
                band["center"] > band["upper"]):
            errs.append(f"gamma{k}: lower <= center <= upper violated")
        b = b_by_lag[k]
        rho_k = sq_diff(y, k) if k > 0 else None
        g = band["t"].size
        for i in np.unique(np.linspace(0, g - 1, ORACLE_POINTS).round().astype(int)):
            t = float(band["t"][i])
            fh = wls_level(rho_h, t, b)
            fk = wls_level(rho_k, t, b) if rho_k is not None else 0.0
            want = 0.5 * (fh - fk)
            scale = max(abs(want), 0.5 * (abs(fh) + abs(fk)))
            got = float(band["center"][i])
            if not abs(got - want) <= ORACLE_RTOL * scale:
                errs.append(f"gamma{k} center at t={t!r}: {got!r} vs oracle "
                            f"{want!r} (rel {abs(got - want) / scale:.2e})")
    return errs


def check_study(out: Path, reps: int, fixed: dict) -> list[str]:
    """Every replication succeeded, coverage is near the reference, and the
    manifest echoes the study's tuning."""
    try:
        rep = read_manifest(out / "study_report.txt")
        man = read_manifest(out / "manifest.txt")
        ok = int(rep["replications_succeeded"])
        failed = int(rep["replications_failed"])
        cov = {k: float(rep[f"coverage.lag{k}"]) for k in REFERENCE_COVERAGE}
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    errs = []
    if ok != reps or failed != 0:
        errs.append(f"{ok} of {reps} replications succeeded, {failed} failed")
    for k, p in REFERENCE_COVERAGE.items():
        tol = COVERAGE_Z * math.sqrt(p * (1.0 - p) / reps)
        if abs(cov[k] - p) > tol:
            errs.append(f"lag {k} coverage {cov[k]!r} is more than {tol:.3f} "
                        f"from the reference {p!r}")
    got = {key: man.get(key) for key in fixed}
    want = {key: str(v) for key, v in fixed.items()}
    if got != want:
        errs.append(f"manifest tuning {got} != study defaults {want}")
    return errs


def same_bytes(a: Path, b: Path, names) -> list[str]:
    errs = []
    for name in names:
        try:
            if (a / name).read_bytes() != (b / name).read_bytes():
                errs.append(f"replay changed {name}")
        except OSError as exc:
            errs.append(f"replay: {exc}")
    return errs
