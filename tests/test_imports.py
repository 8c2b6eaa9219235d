"""Import cost: no scipy module is loaded, by the import or by the font search."""

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
    "after_search": scipy_modules(),
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
    assert got["after_search"] == []


CACHES = """
import json, sys
import negfonts
sizes = {f"{name}.{attr}": value.cache_info().currsize
         for name, module in sorted(sys.modules.items()) if name.startswith("negfonts.")
         for attr, value in vars(module).items() if hasattr(value, "cache_info")}
print(json.dumps(sizes))
"""


def test_import_fills_no_cache():
    # the font and transpose tables are built on first use, so import cost stays flat
    src = str(Path(negfonts.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", CACHES], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    sizes = json.loads(done.stdout)
    assert {"negfonts.fonts._enumerate_fonts", "negfonts.fonts._qubit_tables",
            "negfonts.ptrans._kway_mask"} <= set(sizes)
    assert all(size == 0 for size in sizes.values()), sizes
