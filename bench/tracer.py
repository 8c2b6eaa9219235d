"""Span tracer that wraps the public functions of each negfonts module.

The tracer never edits the package: it replaces module attributes in place and
puts the originals back on `uninstall`.  A function is found at its home
module and then wrapped at every `negfonts` module attribute bound to the same
object, so `from .x import f` copies, re-exports from the package and aliases
such as `cli.run_classify` are all traced.  Note that `negfonts.classify` is the
re-exported *function*; the module is reached through `importlib`.

Each span records calls and self time (its duration minus the time covered by
its child spans).  Spans are aggregated in memory per name, not kept one by one,
because a single `wide` op makes thousands of `font_det` calls.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# module -> public functions whose spans are reported as
# `<module>.<function>.calls_per_op` and `.self_ms_per_op`
TRACED = {
    "states": ("normalize", "permute_qubits", "apply_local_unitary", "make_state"),
    "ptrans": ("negativity", "negative_eigenvalues", "hermitian_eigenvalues",
               "kway_pt", "global_pt", "decomposition_residual"),
    "fonts": ("font_det", "font_counts", "count_nonzero_fonts", "all_font_dets",
              "enumerate_fonts"),
    "invariants": ("aggregate_invariants", "triple_invariants", "pair_det_sums",
                   "pair_det_sum", "i4", "i48", "i26", "i26_symmetric"),
    "classify": ("classify", "font_minimize", "family_expected"),
    "catalog": ("catalog_state",),
    "stateio": ("read_state_file", "write_state_file", "dump_report"),
    "cli": ("main",),
}
# scipy's minimize as bound in negfonts.classify, reported as classify.powell
POWELL = ("classify", "minimize", "classify.powell")


def _span_names(module: str, func: str) -> tuple[str, ...]:
    if (module, func) == ("ptrans", "negativity"):
        return ("ptrans.negativity.global", "ptrans.negativity.kway")
    if (module, func) == (POWELL[0], POWELL[1]):
        return (POWELL[2],)
    return (f"{module}.{func}",)


SPAN_NAMES = tuple(name for module, funcs in TRACED.items() for func in funcs
                   for name in _span_names(module, func)) + (POWELL[2],)


def _load_modules() -> dict:
    return {m: importlib.import_module(f"negfonts.{m}") for m in TRACED}


class Tracer:
    """Wraps the listed functions; counts calls and self time while `active`."""

    def __init__(self):
        self.active = False
        self.clock = time.perf_counter          # the runner may exclude its own time
        self.stats = {name: [0, 0.0] for name in SPAN_NAMES}   # calls, self seconds
        self.powell_nfev = 0
        self.restarts = 0
        self.restart_wins = 0
        self.clifford_rounds = 0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _load_modules()
        targets = [(m, f) for m, funcs in TRACED.items() for f in funcs]
        targets.append((POWELL[0], POWELL[1]))
        package_modules = [mod for name, mod in list(sys.modules.items())
                           if name == "negfonts" or name.startswith("negfonts.")]
        for module, func in targets:
            original = getattr(modules[module], func, None)
            if not callable(original):
                # renamed or removed: reported as missing, never as zero
                self.missing.extend(_span_names(module, func))
                continue
            wrapper = self._wrap(module, func, original)
            for mod in package_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, module: str, func: str, original):
        names = _span_names(module, func)
        if len(names) == 2:                      # negativity(state, p, kind="global")
            def name_of(args, kwargs):
                kind = args[2] if len(args) > 2 else kwargs.get("kind", "global")
                return names[0] if kind == "global" else names[1]
        else:
            def name_of(args, kwargs):
                return names[0]
        hook = None
        if names[0] == "classify.powell":
            hook = self._on_powell
        elif names[0] == "classify.font_minimize":
            hook = self._font_minimize_hook(original)

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += span
                stat = self.stats[name_of(args, kwargs)]
                stat[0] += 1
                stat[1] += span - frame[0]
            if hook is not None:
                hook(result, args, kwargs)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- search counters ----------------------------------------------------

    def _on_powell(self, result, args, kwargs) -> None:
        self.powell_nfev += int(result.nfev)

    def _font_minimize_hook(self, original):
        sig = inspect.signature(original)

        def hook(result, args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            restarts = int(bound.arguments["restarts"])
            trace = result[1]
            # rows: (step, *objective) for the accepted best; row 0 is the start,
            # rows 1..restarts follow the restarts, the rest are Clifford rounds
            objective = [tuple(row[1:]) for row in trace]
            self.restarts += restarts
            self.restart_wins += sum(objective[i] < objective[i - 1]
                                     for i in range(1, restarts + 1))
            self.clifford_rounds += len(trace) - 1 - restarts
        return hook

    # -- results ------------------------------------------------------------

    def fired(self, name: str) -> bool:
        return self.stats[name][0] > 0

    def per_op(self, ops: int, slowdown: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced op; times scaled to the reference speed."""
        out = {}
        for name in SPAN_NAMES:
            if name in self.missing:
                continue
            calls, self_s = self.stats[name]
            out[f"{name}.calls_per_op"] = (calls / ops, "count")
            out[f"{name}.self_ms_per_op"] = (1e3 * self_s / ops / slowdown, "ms")
        if POWELL[2] not in self.missing:
            out["classify.powell.nfev_per_op"] = (self.powell_nfev / ops, "count")
        if "classify.font_minimize" not in self.missing:
            out["classify.font_minimize.clifford_rounds_per_op"] = (
                self.clifford_rounds / ops, "count")
        return out

    def ratios(self, slowdown: float) -> dict[str, tuple[float, str]]:
        """Search ratios, only where their denominator is not zero."""
        out = {}
        if self.powell_nfev:
            out["classify.powell.us_per_eval"] = (
                1e6 * self.stats[POWELL[2]][1] / self.powell_nfev / slowdown, "us")
        if self.restarts:
            out["classify.font_minimize.restart_win_ratio"] = (
                self.restart_wins / self.restarts, "ratio")
        return out
