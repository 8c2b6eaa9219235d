"""The benchmark tracer's span list names functions that exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_functions_are_callables_of_their_modules():
    # the tracer reports a renamed function as a missing span only when the
    # benchmark runs; a rename should fail here first
    spec = importlib.util.spec_from_file_location("negfonts_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, func) for module, funcs in tracer.TRACED.items() for func in funcs]
    targets.append(("classify", "minimize"))
    missing = [f"{module}.{func}" for module, func in targets
               if not callable(getattr(importlib.import_module(f"negfonts.{module}"), func, None))]
    assert not missing
