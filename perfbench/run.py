"""Seeded end-to-end benchmark of the tvacov command line.

Run from the repository root:

    python3 perfbench/run.py --workload auto-n800 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One closed-loop client in this process calls ``tvacov.cli.main(argv)`` op
after op, cycling through the workload's seeded inputs, until ``--seconds``
have passed and the last cycle is complete. Inputs are written before timing
starts; every op is checked after timing ends, and the first op is replayed
from its manifest and must reproduce its files byte for byte.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions (see tracer.py), reports the per-layer metrics and
writes the spans to ``.perfbench_out/``. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Fresh interpreters started to time import + parser construction.
SETUP_SAMPLES = 7
SETUP_SNIPPET = "import tvacov.cli as c; c.build_parser()"

END_TO_END = {
    "op_p50_s": "s",
    "series_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _load_program():
    """Import tvacov from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import tvacov.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tvacov from {SRC}: {exc}")
    if SRC.resolve() not in Path(tvacov.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: tvacov imported from {tvacov.cli.__file__}, "
                 f"not from {SRC}")
    return tvacov.cli


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, if one can be found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def measure_setup() -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                       env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One op: returns (exit code, captured stdout or the traceback)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op that raises is a failed op, not a dead benchmark
        return 1, traceback.format_exc()
    return rc, buf.getvalue()


def time_ops(cli, wl, inputs, work: Path, seconds: float, tr) -> list[dict]:
    """The timed closed loop: whole cycles over the inputs until `seconds`."""
    ops: list[dict] = []
    t_start = time.perf_counter()
    while (not ops or time.perf_counter() - t_start < seconds
           or len(ops) % len(inputs)):
        j = len(ops) % len(inputs)
        out = work / f"op{len(ops)}"
        argv = wl.argv(inputs[j], out)
        if tr is not None:
            tr.start_op()
        t0 = time.perf_counter()
        rc, text = call_cli(cli, argv)
        ops.append({"input": j, "out": out, "seconds": time.perf_counter() - t0,
                    "rc": rc, "text": text})
    return ops


def check_ops(cli, wl, inputs, ops: list[dict], work: Path, tr) -> list[list[str]]:
    """Failure messages per op; an op is correct when its list is empty."""
    import checks

    errors = []
    for op in ops:
        if op["rc"] != 0:
            errors.append([f"exit code {op['rc']}: {op['text'].strip()[-2000:]}"])
        else:
            errors.append(wl.check(inputs[op["input"]], op["out"]))
    replay = work / "replay"
    rc, text = call_cli(cli, wl.replay(ops[0]["out"], replay))
    if rc != 0:
        errors[0].append(f"replay exit code {rc}: {text.strip()[-2000:]}")
    else:
        errors[0] += checks.same_bytes(ops[0]["out"], replay, wl.outputs)
    if tr is not None:
        # the same input must give the same work counters in every cycle
        first: dict[int, dict] = {}
        for i, op in enumerate(ops):
            counts = tr.ops[i].exact_counts()
            if first.setdefault(op["input"], counts) != counts:
                errors[i].append(f"work counters differ from op {op['input']}")
    return errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = _load_program()
    import tracer as tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    env = environment()
    setup = [] if trace else measure_setup()

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    tr = tracing.Tracer() if trace else None
    try:
        inputs = wl.make_inputs(seed, work)
        if tr is not None:
            tr.install()
        try:
            ops = time_ops(cli, wl, inputs, work, seconds, tr)
        finally:
            if tr is not None:
                tr.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors = check_ops(cli, wl, inputs, ops, work, tr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    op_seconds = [op["seconds"] for op in ops]
    failed = sum(1 for e in errors if e)
    for i, errs in enumerate(errors):
        for e in errs:
            print(f"op {i} FAILED: {e}", file=sys.stderr)

    if tr is not None:
        metrics = tracing.layer_metrics(tr.ops, op_seconds)
        tr.dump(OUT_DIR / f"trace-{name}-seed{seed}.json",
                {"workload": name, "seed": seed, "environment": env,
                 "op_seconds": op_seconds})
    else:
        values = {
            "op_p50_s": statistics.median(op_seconds),
            "series_per_s": wl.series_per_op * len(ops) / sum(op_seconds),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}

    print(f"workload {name}, seed {seed}, trace {int(trace)}: {len(ops)} ops "
          f"in {sum(op_seconds):.2f} s, {failed} failed")
    print("op seconds " + " ".join(f"{dt:.3f}" for dt in op_seconds))
    print("environment " + json.dumps(env))
    samples = {"op_p50_s": len(ops), "series_per_s": len(ops),
               "setup_s": len(setup)}
    for key, m in metrics.items():
        extra = f"  (n={samples[key]})" if key in samples else ""
        print(f"  {key} = {m['value']!r} {m['unit']}{extra}")
    print(f"  error_rate = {failed / len(ops)!r}  ({failed}/{len(ops)} ops)")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        sub = json.loads(lines[-1])
        result["correct"] = result["correct"] and sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        for key, m in sub["metrics"].items():
            result["metrics"][f"{name}.{key}"] = m
    return result


def main() -> None:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        _load_program()  # fail here, not once per workload
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
