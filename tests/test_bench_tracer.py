"""The benchmark tracer's span list names functions that exist, and they fire."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
SEED = 1211


def _load(name: str, path: Path, monkeypatch=None):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        # dataclasses look their defining module up in sys.modules
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_are_callables_of_their_modules():
    # the tracer reports a renamed function as a missing span only when the
    # benchmark runs; a rename should fail here first
    tracer = _load("negfonts_bench_tracer", TRACER)
    targets = [(module, func) for module, funcs in tracer.TRACED.items() for func in funcs]
    targets.append(("classify", "minimize"))
    missing = [f"{module}.{func}" for module, func in targets
               if not callable(getattr(importlib.import_module(f"negfonts.{module}"), func, None))]
    assert not missing


def test_expected_spans_fire_on_the_in_process_workloads(monkeypatch):
    # a refactor that stops calling a listed function silences its span, which
    # the benchmark's self-check reports only under --trace 1; the cli plan is
    # left out because building it runs the check suites
    tracer_mod = _load("negfonts_bench_tracer", TRACER)
    workloads = _load("negfonts_bench_workloads", BENCH / "workloads.py", monkeypatch)
    plans = {name: getattr(workloads, name)(SEED) for name in ("fontmin", "invariants", "wide")}
    # one fontmin op, every invariants op, one wide op
    runs = {"fontmin": plans["fontmin"].cycle(0)[:1],
            "invariants": plans["invariants"].cycle(0),
            "wide": plans["wide"].cycle(0)[:1]}
    silent = []
    for name, ops in runs.items():
        tracer = tracer_mod.Tracer()
        try:
            tracer.install()
            tracer.active = True
            for op in ops:
                op.run()
        finally:
            tracer.active = False
            tracer.uninstall()
        assert not tracer.missing, name
        silent += [f"{name}: {span}" for span in plans[name].expected_spans
                   if not tracer.fired(span)]
    assert not silent
