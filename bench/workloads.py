"""The four benchmark workloads: seeded inputs, one op each, and its oracle.

Every workload is a cycle of ops in a fixed mix.  The runner repeats the cycle
until the time is up; `cycle(pass_no)` may draw fresh inputs for each pass.
Inputs and oracle references are made before an op is timed, and each output
is checked between ops, outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

import negfonts as nf

SWEEP_FAMILIES = importlib.import_module("negfonts.classify").SWEEP_FAMILIES

# First element of every seed tuple.  The test suite seeds with 911, 2203,
# 2309 and 9xxx, so no benchmark input replays a trial the tests were tuned on.
SALT = 4321
# second element: which stream of inputs a seed tuple draws
FONTMIN, INVARIANTS, WIDE, CLI, WARMUP, CANONICAL, HAAR, HAAR_SCRAMBLE = range(1, 9)

TOL = 1e-9
CLI_ENTRY = "import sys; from negfonts.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]     # a miss message, or None when correct
    group: str = ""                           # input kind, for per-kind tallies


def no_misses(outcomes: list[tuple[str, bool]]) -> list[str]:
    missed = sum(m for _, m in outcomes)
    return [f"{missed} of {len(outcomes)} ops missed"] if missed else []


@dataclass
class Plan:
    cycle: Callable[[int], list[Op]]
    expected_spans: tuple[str, ...]
    warmup: list[Op] = field(default_factory=list)
    # (group, missed) of every op of a run -> why the run is incorrect, if it is
    verdict: Callable[[list[tuple[str, bool]]], list[str]] = no_misses
    min_passes: int = 1
    in_process: bool = True                   # False: each op waits on a child process
    # cli only: the same commands through `negfonts.cli.main` in this process
    inproc_cycle: Callable[[int], list[Op]] | None = None
    close: Callable[[], None] = lambda: None


def _rng(stream: int, seed: int) -> np.random.Generator:
    return np.random.default_rng((SALT, stream, seed))


def scramble(state: nf.PureState, seed: tuple) -> nf.PureState:
    """Independent random SU(2) on every qubit."""
    for q in range(1, state.n_qubits + 1):
        state = nf.apply_local_unitary(state, nf.random_special_unitary((*seed, q), q))
    return state


def _close(a, b, deg: int, norm: float = 1.0, tol: float = TOL) -> bool:
    """Degree-scaled agreement, as the acceptance tests use it."""
    return abs(a - b) <= tol * max(abs(a), abs(b), norm ** deg)


# ---------------------------------------------------------------------------
# fontmin: classify with the font search at the test budgets


# Each target twice per cycle and at least two passes per run, so that a run
# holds four ops of each.  The median op of the mix then averages two W4
# positions, not one scramble's search cost.
FONTMIN_TARGETS = (("GHZ4", "IV", 4), ("W4", "VII", 4), ("C1", "III", 16)) * 2
FONTMIN_ITERS = 60
FONTMIN_MIN_PASSES = 2
# Reference miss rate of each target.  The search is best-effort: criterion c11
# asks for >= 95 of 100 GHZ4 recoveries, and the C1 orbit holds an equal-count
# frame (class I) that 16 restarts settle in for about 1 op of 8 at the seed
# commit (11 of 91; GHZ4 missed 1 of 143 and W4 0 of 143).
MISS_RATE = {"GHZ4": 0.05, "W4": 0.05, "C1": 0.15}
MISS_ALPHA = 1e-3


def miss_allowance(ops: int, rate: float, alpha: float = MISS_ALPHA) -> int:
    """Most misses of `ops` trials that are still plausible (p >= alpha) at `rate`."""
    tail, allowed = 1.0, 0
    for k in range(1, ops + 1):
        tail -= math.comb(ops, k - 1) * rate ** (k - 1) * (1 - rate) ** (ops - k + 1)
        if tail < alpha:
            break
        allowed = k
    return allowed


def _fontmin_verdict(outcomes: list[tuple[str, bool]]) -> list[str]:
    """Each target on its own: its misses must be plausible at its reference rate.

    Of four ops of each target this allows two GHZ4, two W4 and three C1
    misses, so a search that never recovers one of them fails every run, while
    a run at the reference rates fails with p < 2e-3.
    """
    problems = []
    for name, rate in MISS_RATE.items():
        missed = [m for group, m in outcomes if group == name]
        allowed = miss_allowance(len(missed), rate)
        if sum(missed) > allowed:
            problems.append(f"{name} missed {sum(missed)} of {len(missed)}, "
                            f"{allowed} plausible at a miss rate of {rate:g}")
    return problems


def fontmin(seed: int) -> Plan:
    bases = {name: nf.normalize(nf.catalog_state(name)) for name, _, _ in FONTMIN_TARGETS}

    def op(state, name, expected, restarts, op_seed, label):
        def run():
            return nf.classify(state, use_font_min=True, seed=op_seed,
                               restarts=restarts, iters=FONTMIN_ITERS)

        def check(report):
            if report.major_class != expected:
                return f"class {report.major_class}, expected {expected}"
            return None
        return Op(label, run, check, group=name)

    def cycle(pass_no: int) -> list[Op]:
        ops = []
        for k, (name, expected, restarts) in enumerate(FONTMIN_TARGETS):
            scramble_seed = (SALT, FONTMIN, seed, pass_no, k)
            state = scramble(bases[name], scramble_seed)
            op_seed = int(np.random.default_rng((*scramble_seed, 0)).integers(2**31))
            ops.append(op(state, name, expected, restarts, op_seed,
                          f"{name} scramble seed {scramble_seed} classify seed={op_seed}"))
        return ops

    ghz = scramble(bases["GHZ4"], (SALT, WARMUP, seed))
    warmup = [Op("warmup", lambda: nf.classify(ghz, use_font_min=True, restarts=1,
                                               iters=FONTMIN_ITERS), lambda r: None)]
    spans = ("classify.classify", "classify.font_minimize", "classify.powell",
             "fonts.font_counts", "fonts.count_nonzero_fonts", "fonts.enumerate_fonts",
             "fonts.font_det", "invariants.aggregate_invariants",
             "invariants.triple_invariants", "invariants.i48", "invariants.i4",
             "states.normalize", "states.permute_qubits")
    return Plan(cycle, spans, warmup, verdict=_fontmin_verdict,
                min_passes=FONTMIN_MIN_PASSES)


# ---------------------------------------------------------------------------
# invariants: classify (no search) and the full invariant report


# published values (class table and acceptance criteria c01, c02, c04).  Dicke42
# carries the exact-arithmetic value tau48 = 1/3; the paper prints 5/9, which is
# the known discrepancy kept as a failing test.
NAMED = {
    "GHZ4": ("IV", {"tau48": 1.0}),
    "C1": ("III", {"tau48": 1.0}),
    "C2": ("III", {"tau48": 1.0}),
    "C3": ("III", {"tau48": 1.0}),
    "W4": ("VII", {"tau48": 0.0, "i26": 27 / 64}),
    "HS": ("VII", {"tau48": 0.0, "i26": 1.0}),
    "BrownPhi": ("II", {"i48": 1 / 256, "tau48": math.sqrt(0.75)}),
    "Dicke42": (None, {"tau48": 1 / 3}),
}

# worked examples of acceptance criterion c07 and test_classify
FAMILY_POINTS = (
    ("Psi_ab", {"a": 1.0, "b": 1.0}, "I"),
    ("Psi_a", {"a": 1.0}, "II"),
    ("G_abcd", {"a": 1.0, "b": 2.0, "c": 3.0, "d": 5.0}, "III"),
    ("G_abcd", {"a": 1.0 + 0.5j, "b": 2.0, "c": 3.0 - 1j, "d": 5.0}, "III"),
    ("G_abcd", {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0}, "IV"),
    ("G_abcd", {"a": 0.0, "b": 0.7, "c": 0.7, "d": 0.0}, "IV"),
    ("G_abcd", {"a": 0.8, "b": 0.8, "c": 0.8, "d": 0.8}, "VII"),
)
GRID_POINTS_PER_FAMILY = 4
HAAR_STATES = 8


def _lu_invariants(report) -> list[tuple[str, complex, int]]:
    """Polynomial SU(2)^4 invariants of a four-qubit report, with their degrees."""
    out = [("i4", report.i4, 2), ("n44_sq", report.n44_sq, 8)]
    for tr in report.triples:
        out += [(f"i48[{tr.singled}]", tr.i48, 8), (f"j12[{tr.singled}]", tr.j12, 12),
                (f"delta24[{tr.singled}]", tr.delta24, 24),
                (f"n_sq[{tr.singled}]", tr.n_sq, 8), (f"dres[{tr.singled}]", tr.dres, 8)]
    return out


def _check_invariance(reference):
    ref = _lu_invariants(reference)

    def check(report) -> str | None:
        for (name, want, deg), (_, got, _) in zip(ref, _lu_invariants(report)):
            if not _close(got, want, deg):
                return f"{name} = {got}, unscrambled {want}"
        return None
    return check


def _check_closed_form(family: str, raw: nf.PureState):
    scale = float(np.linalg.norm(raw.amps))

    def check(head, expected) -> str | None:
        for key, got, deg in (("i48", head.i48, 8), ("n_triple_sq", head.n_sq, 8),
                              ("dres", head.dres, 8), ("delta24", head.delta24, 24)):
            if not _close(got, expected[key], deg, scale):
                return f"{family} {key} = {got}, closed form {expected[key]}"
        return None
    return check


def invariants(seed: int) -> Plan:
    rng = _rng(INVARIANTS, seed)
    ops: list[Op] = []

    def report_op(label, state, check, family=None):
        """classify + aggregate_invariants; family points add the sweep path."""
        if family is None:
            def run():
                return nf.classify(state), nf.aggregate_invariants(state)
        else:
            name, params, raw = family

            def run():
                return (nf.classify(state), nf.aggregate_invariants(state),
                        nf.triple_invariants(raw, 4), nf.family_expected(name, params))
        ops.append(Op(label, run, check))

    def class_and_values(expected_class, values):
        def check(out) -> str | None:
            cls, report = out[0], out[1]
            if expected_class is not None and cls.major_class != expected_class:
                return f"class {cls.major_class}, expected {expected_class}"
            for key, want in values.items():
                got = getattr(report, key)
                if abs(got - want) > TOL:
                    return f"{key} = {got}, published {want}"
            return None
        return check

    canonical = []
    for name, (cls, values) in NAMED.items():
        state = nf.normalize(nf.catalog_state(name))
        canonical.append((name, state))
        report_op(f"named {name}", state, class_and_values(cls, values))

    for family, params, cls in FAMILY_POINTS:
        raw = nf.catalog_state(family, params)
        state = nf.normalize(raw)
        label = f"{family} {params}"
        canonical.append((label, state))
        if family in SWEEP_FAMILIES:
            closed = _check_closed_form(family, raw)
            base = class_and_values(cls, {})

            def check(out, base=base, closed=closed):
                return base(out) or closed(out[2], out[3])
            report_op(f"family {label}", state, check, (family, params, raw))
        else:
            report_op(f"family {label}", state, class_and_values(cls, {}))

    for k, (label, state) in enumerate(canonical):
        check = _check_invariance(nf.aggregate_invariants(state))
        scrambled = scramble(state, (SALT, CANONICAL, seed, k))
        report_op(f"scrambled {label}", scrambled, lambda out, c=check: c(out[1]))

    for family in SWEEP_FAMILIES:
        names = nf.CATALOG[family].params
        for _ in range(GRID_POINTS_PER_FAMILY):
            params = {p: complex(*np.round(rng.standard_normal(2), 6)) for p in names}
            raw = nf.catalog_state(family, params)
            closed = _check_closed_form(family, raw)
            report_op(f"grid {family} {params}", nf.normalize(raw),
                      lambda out, c=closed: c(out[2], out[3]), (family, params, raw))

    for j in range(HAAR_STATES):
        state = nf.random_state(4, (SALT, HAAR, seed, j))
        check = _check_invariance(nf.aggregate_invariants(
            scramble(state, (SALT, HAAR_SCRAMBLE, seed, j))))
        report_op(f"haar {j}", state, lambda out, c=check: c(out[1]))

    spans = ("classify.classify", "classify.family_expected",
             "invariants.aggregate_invariants", "invariants.triple_invariants",
             "invariants.pair_det_sums", "invariants.pair_det_sum", "invariants.i4",
             "invariants.i26", "invariants.i26_symmetric", "fonts.font_det",
             "fonts.font_counts", "fonts.count_nonzero_fonts", "fonts.enumerate_fonts",
             "states.normalize", "states.permute_qubits")
    return Plan(lambda pass_no: ops, spans, warmup=list(ops))


# ---------------------------------------------------------------------------
# wide: five- and six-qubit negativities and fonts


# per cycle: six n=6 states and three n=5 states, so the median op is an n=6 op
WIDE_MIX = ((6, "haar"), (6, "ghz"), (6, "w"), (6, "haar"), (6, "ghz"), (6, "w"),
            (5, "haar"), (5, "ghz"), (5, "w"))


def _wide_state(n: int, kind: str, seed: tuple) -> nf.PureState:
    if kind == "haar":
        return nf.random_state(n, seed)
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amps = np.zeros(1 << n, dtype=complex)
    if kind == "ghz":
        amps[0], amps[-1] = weights[:2]
    else:
        amps[[1 << (n - q) for q in range(1, n + 1)]] = weights
    return scramble(nf.normalize(nf.make_state(n, amps)), (*seed, 0))


def _wide_run(state: nf.PureState):
    n = state.n_qubits
    rows = []
    for p in range(1, n + 1):
        rows.append((nf.negativity(state, p),
                     [nf.negativity(state, p, k) for k in range(2, n + 1)],
                     nf.negative_eigenvalues(state, p),
                     nf.font_counts(state, p),
                     nf.decomposition_residual(state, p),
                     nf.all_font_dets(state, p)))
    return rows


def _wide_check(rows) -> str | None:
    for p, (n_glob, n_kway, neg_eigs, counts, residual, dets) in enumerate(rows, start=1):
        if not residual <= 1e-12:
            return f"qubit {p}: decomposition residual {residual:.3e}"
        # Cauchy-Binet: the global negativity of a pure state is 2*sqrt(det rho_p),
        # the sum of |2x2 minors|^2, and the canonical fonts are those minors
        moduli = np.abs(np.array([d for _, d in dets]))
        cauchy_binet = 2.0 * math.sqrt(float(np.sum(moduli ** 2)))
        if abs(n_glob - cauchy_binet) > 1e-9:
            return f"qubit {p}: global negativity {n_glob} vs 2*sqrt(sum|D|^2) {cauchy_binet}"
        if abs(n_glob + 2.0 * float(np.sum(neg_eigs))) > 1e-9:
            return f"qubit {p}: global negativity {n_glob} vs -2*sum(negative eigenvalues)"
        if not all(math.isfinite(v) and v >= -1e-12 for v in n_kway):
            return f"qubit {p}: K-way negativities {n_kway}"
        orders = np.array([spec.k for spec, _ in dets])
        recount = {k: int(np.sum(moduli[orders == k] > TOL)) for k in counts}
        if recount != counts:
            return f"qubit {p}: font_counts {counts} vs all_font_dets {recount}"
    return None


def wide(seed: int) -> Plan:
    def cycle(pass_no: int, stream: int = WIDE) -> list[Op]:
        ops = []
        for j, (n, kind) in enumerate(WIDE_MIX):
            state = _wide_state(n, kind, (SALT, stream, seed, pass_no, j))
            ops.append(Op(f"n={n} {kind} pass {pass_no}",
                          lambda s=state: _wide_run(s), _wide_check))
        return ops

    spans = ("ptrans.negativity.global", "ptrans.negativity.kway",
             "ptrans.negative_eigenvalues", "ptrans.hermitian_eigenvalues",
             "ptrans.kway_pt", "ptrans.global_pt", "ptrans.decomposition_residual",
             "fonts.font_counts", "fonts.count_nonzero_fonts", "fonts.all_font_dets",
             "fonts.enumerate_fonts", "fonts.font_det")
    return Plan(cycle, spans, warmup=cycle(0, WARMUP))


# ---------------------------------------------------------------------------
# cli: one `negfonts` process per command


CHECK_SUITES = ("decomposition", "invariance", "negativity-relation", "vanishing")
SWEEP_FAMILY = "L_abc2"


def _parse_state_file(path: str) -> np.ndarray:
    """Independent reader for the state file format (not negfonts.stateio)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].split() for ln in fh]
    lines = [ln for ln in lines if ln]
    n = int(lines[0][1])
    amps = np.zeros(1 << n, dtype=complex)
    for bits, re, *im in lines[1:]:
        amps[int(bits, 2)] = complex(float(re), float(im[0]) if im else 0.0)
    return amps


def cli(seed: int, workdir: str) -> Plan:
    rng = _rng(CLI, seed)
    os.makedirs(workdir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    params = {p: complex(*np.round(rng.uniform(-2, 2, 2), 6)) for p in "abcd"}
    state = nf.catalog_state("G_abcd", params)
    work = nf.normalize(state)
    ref_report = nf.aggregate_invariants(work)
    # start:stop:count ranges; the grid is np.linspace of each, as the CLI reads it
    sweep_ranges = {p: tuple(np.round(np.sort(rng.uniform(-2, 2, 2)), 6))
                    for p in nf.CATALOG[SWEEP_FAMILY].params}
    sweep_axes = {p: np.linspace(lo, hi, 3) for p, (lo, hi) in sweep_ranges.items()}
    check_seed = int(rng.integers(10_000, 2**31 - 1))
    cli_mod = importlib.import_module("negfonts.cli")

    def json_at(name):
        with open(path(name), encoding="utf-8") as fh:
            return json.load(fh)

    def check_catalog(_out):
        amps = _parse_state_file(path("state.txt"))
        if not np.allclose(amps, state.amps, rtol=0, atol=1e-15):
            return "state file differs from catalog_state"
        return None

    def check_invariants(_out):
        doc = json_at("inv.json")["four_qubit"]
        head = doc["headline"]
        pairs = (("i4", complex(doc["i4"]["re"], doc["i4"]["im"]), ref_report.i4),
                 ("i48", complex(head["i48"]["re"], head["i48"]["im"]), ref_report.i48),
                 ("j12", complex(head["j12"]["re"], head["j12"]["im"]), ref_report.j12),
                 ("n44_sq", doc["n44_sq"], ref_report.n44_sq),
                 ("i26", doc["i26"], ref_report.i26),
                 ("tau48", doc["tau48"], ref_report.tau48))
        for key, got, want in pairs:
            if abs(got - want) > 1e-12:
                return f"{key} = {got}, library {want}"
        return None

    ref_class = nf.classify(work).major_class

    def check_classify(_out):
        got = json_at("cls.json")["class_report"]["major_class"]
        return None if got == ref_class else f"class {got}, library {ref_class}"

    ref_counts = {str(p): {str(k): v for k, v in nf.font_counts(work, p).items()}
                  for p in range(1, 5)}

    def check_fonts(_out):
        doc = json_at("fonts.json")["fonts"]
        for p, want in ref_counts.items():
            if doc[p]["counts"] != want:
                return f"qubit {p} counts {doc[p]['counts']}, library {want}"
            if len(doc[p]["fonts"]) != len(nf.enumerate_fonts(4, int(p))):
                return f"qubit {p}: {len(doc[p]['fonts'])} fonts listed"
        return None

    ref_neg = {str(p): [nf.negativity(work, p)] + [nf.negativity(work, p, k)
                                                   for k in range(2, 5)]
               for p in range(1, 5)}

    def check_negativity(_out):
        doc = json_at("neg.json")["negativity"]
        for p, want in ref_neg.items():
            got = [doc[p]["global"]] + [doc[p][f"kway_{k}"] for k in range(2, 5)]
            if max(abs(g - w) for g, w in zip(got, want)) > 1e-12:
                return f"qubit {p} negativities {got}, library {want}"
        return None

    grid = [dict(zip(sweep_axes, map(complex, values)))
            for values in product(*sweep_axes.values())]
    ref_sweep = []
    for point in grid:
        raw = nf.catalog_state(SWEEP_FAMILY, point)
        ref_sweep.append((nf.triple_invariants(raw, 4).i48,
                          nf.family_expected(SWEEP_FAMILY, point)["i48"],
                          float(np.linalg.norm(raw.amps))))

    def check_sweep(_out):
        with open(path("sweep.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(grid):
            return f"{len(rows)} sweep rows, grid has {len(grid)}"
        for row, (num, exp, scale) in zip(rows, ref_sweep):
            got_num = complex(float(row["i48_num_re"]), float(row["i48_num_im"]))
            got_exp = complex(float(row["i48_exp_re"]), float(row["i48_exp_im"]))
            if not (_close(got_num, num, 8, scale) and _close(got_exp, exp, 8, scale)):
                return f"sweep row {row}: library i48 {num}, closed form {exp}"
        return None

    def check_line(suite):
        runner, trials, tol = cli_mod.CHECK_SUITES[suite]
        worst, label = runner(trials, check_seed, tol)
        want = (f"check {suite}: trials={trials} seed={check_seed} "
                f"{label}={worst:.3e} tol={tol:.1e} [ok]\n")
        return lambda out: None if out == want else f"printed {out!r}, library {want!r}"

    grid_args = [f"{p}={lo}:{hi}:3" for p, (lo, hi) in sweep_ranges.items()]
    commands = [
        (["catalog", "G_abcd", *(f"{k}={v}" for k, v in params.items()),
          "--out", path("state.txt")], check_catalog),
        (["invariants", "--in", path("state.txt"), "--out", path("inv.json")],
         check_invariants),
        (["classify", "--in", path("state.txt"), "--out", path("cls.json")], check_classify),
        (["fonts", "--in", path("state.txt"), "--out", path("fonts.json")], check_fonts),
        (["negativity", "--in", path("state.txt"), "--out", path("neg.json")],
         check_negativity),
        (["sweep", "--family", SWEEP_FAMILY,
          *(a for g in grid_args for a in ("--param", g)), "--out", path("sweep.csv")],
         check_sweep),
    ] + [(["check", "--suite", s, "--seed", str(check_seed)], check_line(s))
         for s in CHECK_SUITES]

    def child(argv):
        def run():
            proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv],
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
            return proc.stdout
        return run

    def in_process(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = importlib.import_module("negfonts.cli").main(argv)
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
            return out.getvalue()
        return run

    def label(argv):
        return "negfonts " + " ".join(a if not a.startswith(workdir) else
                                      os.path.basename(a) for a in argv)

    child_ops = [Op(label(a), child(a), c) for a, c in commands]
    inproc_ops = [Op(label(a), in_process(a), c) for a, c in commands]
    spans = ("cli.main", "stateio.read_state_file", "stateio.write_state_file",
             "stateio.dump_report", "catalog.catalog_state", "states.make_state",
             "states.normalize", "states.apply_local_unitary", "classify.classify",
             "classify.family_expected", "invariants.aggregate_invariants",
             "invariants.triple_invariants", "invariants.i48", "fonts.all_font_dets",
             "fonts.font_counts", "ptrans.negativity.global", "ptrans.negativity.kway",
             "ptrans.negative_eigenvalues", "ptrans.decomposition_residual")
    return Plan(lambda pass_no: child_ops, spans, in_process=False,
                inproc_cycle=lambda pass_no: inproc_ops,
                close=lambda: _remove(workdir))


def _remove(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(workdir))       # the shared parent, once empty


WORKLOADS = ("fontmin", "invariants", "wide", "cli")
