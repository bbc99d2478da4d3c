"""Span tracing and work counters for the traced benchmark run.

The tracer wraps public functions of the tvacov layers from outside the
package: each wrapper records a span (name, start, end, parent id) and feeds
a per-layer counter hook. A function is replaced in its defining module and
under every name another tvacov module bound with ``from .x import y``, so
calls between layers are seen too. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (module, function) pairs that get a span; module names are relative to tvacov.
TRACED = (
    ("cli", "main"),
    ("cli", "ingest_csv"),
    ("procgen", "generate"),
    ("diffseries", "difference"),
    ("diffseries", "select_lag"),
    ("locallinear", "fit_curve"),
    ("locallinear", "fit_at_data"),
    ("locallinear", "weight_matrix"),
    ("locallinear", "hat_trace"),
    ("tuning", "gcv_bandwidth"),
    ("tuning", "min_volatility"),
    ("acov", "estimate_gamma0"),
    ("acov", "estimate_gammak"),
    ("lrv", "residuals"),
    ("lrv", "lrv_curve"),
    ("lrv", "sigma_functionals"),
    ("scb", "bootstrap_quantile"),
    ("scb", "build_band"),
    ("study", "run_study"),
)


def _digest(a) -> bytes:
    arr = np.ascontiguousarray(np.asarray(a, dtype=float))
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


def _unit_grid(n: int) -> np.ndarray:
    return np.arange(1, n + 1) / n


class OpStats:
    """Everything the wrappers record while one op runs."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.fit_keys: set = set()
        self.wrapper_s = 0.0

    def exact_counts(self) -> dict:
        """The integer counters that must repeat for the same input."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        out["locallinear.distinct_fits"] = len(self.fit_keys)
        return dict(sorted(out.items()))


class Tracer:
    """Installs wrappers, records spans per op, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.ops: list[OpStats] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._patched: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "tvacov" or name.startswith("tvacov."))]
        for mod_name, fn_name in TRACED:
            owner = sys.modules[f"tvacov.{mod_name}"]
            orig = getattr(owner, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def start_op(self) -> None:
        self.ops.append(OpStats())

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            stats = tracer.ops[-1]
            parent = tracer._stack[-1][0] if tracer._stack else None
            span_id = len(tracer.spans)
            span = {"id": span_id, "parent": parent, "name": name,
                    "op": len(tracer.ops) - 1}
            tracer.spans.append(span)
            tracer._stack.append([span_id, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _, child = tracer._stack.pop()
                dur = t1 - t0
                span["start"] = t0 - tracer._t0
                span["end"] = t1 - tracer._t0
                stats.calls[name] += 1
                stats.total[name] += dur
                stats.self_[name] += dur - child
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            if hook is not None:
                hook(stats, sig.bind(*args, **kwargs).arguments, result)
            stats.wrapper_s += (t0 - t_in) + (time.perf_counter() - t1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- output -----------------------------------------------------------

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": self.spans}))


def _fit_curve_hook(stats: OpStats, a: dict, result) -> None:
    values = np.asarray(a["values"], dtype=float)
    stats.counts["locallinear.cells"] += result.grid.size * values.size
    stats.fit_keys.add((_digest(values), float(a["b"]), _digest(result.grid),
                        bool(a.get("with_slope", False))))


def _fit_at_data_hook(stats: OpStats, a: dict, result) -> None:
    values = np.asarray(a["values"], dtype=float)
    n = values.size
    stats.counts["locallinear.cells"] += n * n
    stats.fit_keys.add((_digest(values), float(a["b"]), _digest(_unit_grid(n)),
                        False))


def _gcv_hook(stats: OpStats, a: dict, result) -> None:
    grid = result.bandwidths
    stats.counts["tuning.gcv.candidates"] += int(grid.size)
    if result.bandwidth in (grid[0], grid[-1]):
        stats.counts["tuning.gcv.edge_hits"] += 1


def _select_lag_hook(stats: OpStats, a: dict, result) -> None:
    stats.counts["diffseries.select_lag.lags_scanned"] += int(result.h0)


def _bootstrap_hook(stats: OpStats, a: dict, result) -> None:
    stats.counts["scb.draws"] += int(result.draws)


_HOOKS = {
    "locallinear.fit_curve": _fit_curve_hook,
    "locallinear.fit_at_data": _fit_at_data_hook,
    "tuning.gcv_bandwidth": _gcv_hook,
    "diffseries.select_lag": _select_lag_hook,
    "scb.bootstrap_quantile": _bootstrap_hook,
}


def layer_metrics(ops: list[OpStats], op_seconds: list[float]) -> dict:
    """Per-op means of every per-layer metric over the given ops."""
    k = len(ops)
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        put(f"{name}.calls", sum(s.calls[name] for s in ops) / k, "count")
        put(f"{name}.total_s", sum(s.total[name] for s in ops) / k, "s")
        put(f"{name}.self_s", sum(s.self_[name] for s in ops) / k, "s")
    fit_calls = sum(s.calls["locallinear.fit_curve"]
                    + s.calls["locallinear.fit_at_data"] for s in ops)
    distinct = sum(len(s.fit_keys) for s in ops)
    boot_calls = sum(s.calls["scb.bootstrap_quantile"] for s in ops)
    boot_s = sum(s.total["scb.bootstrap_quantile"] for s in ops)
    bands = sum(s.calls["scb.build_band"] for s in ops)
    for name in ("locallinear.cells", "tuning.gcv.candidates",
                 "tuning.gcv.edge_hits", "diffseries.select_lag.lags_scanned",
                 "scb.draws"):
        put(name, sum(s.counts[name] for s in ops) / k, "count")
    put("locallinear.fit_distinct_ratio",
        distinct / fit_calls if fit_calls else 0.0, "ratio")
    draws = sum(s.counts["scb.draws"] for s in ops)
    put("scb.draws_per_s", draws / boot_s if boot_s > 0 else 0.0, "1/s")
    put("scb.quantile_reuse", bands / boot_calls if boot_calls else 0.0, "ratio")
    put("trace.op_p50_s", float(np.median(op_seconds)), "s")
    put("trace.wrapper_s", sum(s.wrapper_s for s in ops) / k, "s")
    return out
