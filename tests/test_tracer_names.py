"""The benchmark tracer's names must resolve to distinct tvacov functions.

`perfbench/tracer.py` finds each traced function by identity and rebinds
every name that holds it, so a deleted name breaks the traced run and an
alias (one function under two traced names) would count its calls twice.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # read-only: no bytecode cache is written next to the file
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_distinct_functions(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    found = {}
    for mod_name, fn_name in tracer.TRACED:
        fn = getattr(importlib.import_module(f"tvacov.{mod_name}"), fn_name)
        assert callable(fn), (mod_name, fn_name)
        found[f"{mod_name}.{fn_name}"] = fn
    assert len(found) == len(tracer.TRACED)
    assert len({id(fn) for fn in found.values()}) == len(found), (
        "two traced names are the same object")
    # every counter hook belongs to a traced name, and the fit hooks read
    # the arguments ``values`` and ``b``
    assert set(tracer._HOOKS) <= set(found)
    for name in ("locallinear.fit_curve", "locallinear.fit_at_data"):
        assert {"values", "b"} <= set(inspect.signature(found[name]).parameters)
