"""Import cost: scipy is loaded by the font search only, never by the import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import negfonts

SCRIPT = """
import importlib, json, sys
import negfonts
from negfonts.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

on_import = scipy_modules()
classify_module = importlib.import_module("negfonts.classify")
state, _trace = negfonts.font_minimize(negfonts.normalize(negfonts.catalog_state("GHZ4")),
                                       restarts=1, iters=5)
print(json.dumps({
    "on_import": on_import,
    "minimize_callable": callable(getattr(classify_module, "minimize", None)),
    "result": type(state).__name__,
    "optimize_after_search": "scipy.optimize" in sys.modules,
}))
"""


def test_import_leaves_scipy_unloaded():
    # a fresh interpreter: this test process may have loaded scipy already
    src = str(Path(negfonts.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    got = json.loads(done.stdout)
    assert got["on_import"] == []
    assert got["minimize_callable"]
    assert got["result"] == "PureState"
    assert got["optimize_after_search"]
