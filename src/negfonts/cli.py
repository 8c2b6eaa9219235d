"""Command-line interface.

Exit codes: 0 success, 2 parse/usage error, 3 property violation (a failed
check, a font search that drifted an invariant, or a NaN or infinite result),
4 unsupported qubit count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import sys
from itertools import product

import numpy as np

from . import __version__
from . import catalog as cat
from . import fonts as fonts_mod
from . import invariants as inv
from . import ptrans
from . import stateio
from .classify import SWEEP_FAMILIES, classify as run_classify, family_expected
from .errors import (
    BadBudget,
    BadGrid,
    BadK,
    NegfontsError,
    NonFiniteResult,
    SearchDrift,
    UnknownFamily,
    UnknownState,
    WrongArity,
    check_index,
    check_tolerance,
)
from .states import (
    PureState,
    apply_local_unitary,
    make_state,
    normalize,
    random_special_unitary,
    random_state,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_ARITY = 4

SCHEMA = "negfonts/report-v1"
_MAX_GRID_POINTS = 100_000  # a sweep keeps its rows until the CSV is written


def _write(out: str | None, text: str) -> None:
    """Put finished text in the --out file, or on stdout without one."""
    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, state: PureState, payload: dict, normalized: bool = True,
            seed: int | None = None) -> int:
    """Write payload in the report envelope.  The report is serialized before
    --out is opened, so one that cannot be written leaves no file."""
    doc = {"schema": SCHEMA, "version": __version__, "tolerance": args.tol,
           "input": {"path": args.infile, "n_qubits": state.n_qubits,
                     "normalized": normalized}}
    if seed is not None:
        doc["seed"] = seed
    text = io.StringIO()
    stateio.dump_report({**doc, **payload}, text)
    _write(args.out, text.getvalue())
    return EXIT_OK


def cmd_invariants(args) -> int:
    state = stateio.read_state_file(args.infile)
    n = state.n_qubits
    work = state if args.no_normalize else normalize(state)
    if n == 2:
        payload = {"i2": inv.i2_pair(work)}
    elif n == 3:
        payload = {"three_qubit": stateio.three_report_dict(
            inv.three_qubit_report(work, args.tol))}
    else:                   # raises WrongArity unless n = 4
        payload = {"four_qubit": stateio.four_report_dict(
            inv.aggregate_invariants(work), triple=args.triple)}
    return _report(args, work, payload, normalized=not args.no_normalize)


def cmd_classify(args) -> int:
    state = stateio.read_state_file(args.infile)
    report = run_classify(state, tol=args.tol, use_font_min=args.font_min,
                          seed=args.seed, restarts=args.restarts, iters=args.iters)
    return _report(args, state, {"class_report": dataclasses.asdict(report)},
                   seed=args.seed if args.font_min else None)


def _qubits(qubit: int | None, n: int) -> list[int]:
    """The --qubit option, or every qubit when it is not given."""
    if qubit is None:
        return list(range(1, n + 1))
    check_index(qubit, 1, n, "--qubit")
    return [qubit]


def cmd_negativity(args) -> int:
    state = normalize(stateio.read_state_file(args.infile))
    n = state.n_qubits
    qubits = _qubits(args.qubit, n)
    rows = {}
    for p in qubits:
        entry = {"global": ptrans.negativity(state, p)}
        for k in range(2, n + 1):
            entry[f"kway_{k}"] = ptrans.negativity(state, p, k)
        entry["negative_eigenvalues"] = list(ptrans.negative_eigenvalues(state, p))
        rows[str(p)] = entry
    return _report(args, state, {"negativity": rows})


def cmd_fonts(args) -> int:
    state = normalize(stateio.read_state_file(args.infile))
    n = state.n_qubits
    qubits = _qubits(args.qubit, n)
    if args.k is not None:
        check_index(args.k, 2, n, "--k", BadK)
    payload = {}
    for p in qubits:
        listing = []
        for spec, det in fonts_mod.all_font_dets(state, p):
            if args.k is not None and spec.k != args.k:
                continue
            listing.append({"label": spec.label(), "k": spec.k,
                            "det": stateio.cnum(det)})
        payload[str(p)] = {
            "counts": {str(k): v
                       for k, v in fonts_mod.font_counts(state, p, args.tol).items()},
            "fonts": listing,
        }
    return _report(args, state, {"fonts": payload})


def _named(texts: list[str], form: str) -> dict[str, str]:
    """Each NAME=VALUE argument, split at its first '=', as {stripped name: value
    text}; all are checked for '=', an empty name and repeats before a name or
    value is read."""
    named = {}
    for text in texts:
        if "=" not in text:
            raise BadGrid(f"parameter {text!r} is not of the form {form}")
        name, value = text.split("=", 1)
        name = name.strip()
        if not name:
            raise BadGrid(f"parameter {text!r} has no name before '='")
        if name in named:
            raise BadGrid(f"parameter {name!r} given twice")
        named[name] = value
    return named


def _number(text: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise BadGrid(f"cannot parse {text!r} as a number") from None


def cmd_catalog(args) -> int:
    if args.list:
        for name in cat.catalog_names():
            entry = cat.CATALOG[name]
            params = ", ".join(entry.params) if entry.params else "-"
            print(f"{name:14s} n={entry.n_qubits}  params: {params:12s} {entry.note}")
        return EXIT_OK
    if not args.name:
        raise UnknownState("no state name given (use --list to see the catalog)")
    named = _named([*args.params, *args.param], "name=value")
    state = cat.catalog_state(args.name, {p: _number(v) for p, v in named.items()})
    if args.normalize:
        state = normalize(state)
    if args.out:
        stateio.write_state_file(args.out, state, comment=f"catalog {args.name}")
    else:
        stateio.write_state(sys.stdout, state, comment=f"catalog {args.name}")
    return EXIT_OK


def _parse_grid_values(text: str) -> list[complex]:
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise BadGrid(f"range {text!r} must be start:stop:count")
        try:
            start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise BadGrid(f"bad range {text!r}") from None
        if count < 1:
            raise BadGrid(f"range {text!r} has no points")
        if count > _MAX_GRID_POINTS:
            raise BadGrid(f"range {text!r} has more than {_MAX_GRID_POINTS} points")
        return [complex(v) for v in np.linspace(start, stop, count)]
    values = [_number(piece.strip()) for piece in text.split(",") if piece.strip()]
    if not values:
        raise BadGrid(f"no values in {text!r}")
    return values


# (CSV column, TripleInvariants field, degree in the amplitudes)
_SWEEP_QUANTITIES = (("i48", "i48", 8), ("n_triple_sq", "n_sq", 8),
                     ("dres", "dres", 8), ("delta24", "delta24", 24))


def cmd_sweep(args) -> int:
    family = args.family
    if family not in SWEEP_FAMILIES:
        raise UnknownFamily(
            f"unknown family {family!r}; known: {', '.join(SWEEP_FAMILIES)}")
    param_names = cat.CATALOG[family].params
    named = _named(args.param, "name=values")
    for name in named:
        if name not in param_names:
            raise BadGrid(f"{family} has no parameter {name!r}")
    missing = [p for p in param_names if p not in named]
    if missing:
        raise BadGrid(f"missing grid for parameter(s): {', '.join(missing)}")
    grid_axes = {name: _parse_grid_values(text) for name, text in named.items()}
    if (points := math.prod(map(len, grid_axes.values()))) > _MAX_GRID_POINTS:
        raise BadGrid(f"grid of {points} points is larger than {_MAX_GRID_POINTS}")

    header = [*param_names, *(f"{q}_{part}" for q, _, _ in _SWEEP_QUANTITIES for part in
                              ("num_re", "num_im", "exp_re", "exp_im", "abs_dev", "rel_dev"))]
    worst = 0.0
    rows = []
    for values in product(*(grid_axes[p] for p in param_names)):
        params = dict(zip(param_names, values))
        state = cat.catalog_state(family, params)
        head = inv.triple_invariants(state, singled=4)
        expected = family_expected(family, params)
        norm = state.norm
        row = [stateio.fmt(v.real) + (f"{v.imag:+.17g}j" if v.imag else "") for v in values]
        for q, field, degree in _SWEEP_QUANTITIES:
            # numpy scalars: a modulus too large for a float saturates to inf
            num = np.complex128(getattr(head, field))
            exp = np.complex128(expected[q])
            abs_dev = abs(num - exp)
            # deviations are measured relative to the state's homogeneity scale
            floor = max(abs(num), abs(exp), 1e-12 * norm ** degree)
            if q == "dres":
                # dres = n_sq - 2|i48| cancels, so its rounding is that of n_sq
                floor = max(floor, head.n_sq, expected["n_triple_sq"])
            rel = abs_dev / floor if abs_dev else 0.0
            # checked before --out is opened: max() would pass a NaN over
            if not np.all(np.isfinite([num, exp, rel])):
                point = ", ".join(f"{p}={params[p]:g}" for p in param_names)
                raise NonFiniteResult(f"sweep {family}: {q} is not finite at {point}")
            worst = max(worst, rel)
            row += [stateio.fmt(num.real), stateio.fmt(num.imag),
                    stateio.fmt(exp.real), stateio.fmt(exp.imag),
                    stateio.fmt(abs_dev), stateio.fmt(rel)]
        rows.append(row)

    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    _write(args.out, text.getvalue())
    print(f"sweep {family}: {len(rows)} points, worst relative deviation {worst:.3e}",
          file=sys.stderr)
    return EXIT_OK if worst <= args.max_rel else EXIT_VIOLATION


def _suite(defects, label: str):
    """The runner of a check suite: the largest of `defects(seed, trial)` over
    the trials, and its label.  tol goes unread, since cmd_check compares the
    result with it, but bench/workloads.py calls runner(trials, seed, tol)."""
    def run(trials: int, seed: int, tol: float) -> tuple[float, str]:
        worst = 0.0
        for trial in range(trials):
            worst = max(worst, *defects(seed, trial))
        return worst, label
    return run


def _decomposition_residuals(seed: int, trial: int) -> list[float]:
    n = 3 + (trial % 2)
    state = random_state(n, (seed, trial))
    return [ptrans.decomposition_residual(state, p) for p in range(1, n + 1)]


def _scrambled(state: PureState, key: tuple) -> PureState:
    """An independent random SU(2) on every qubit q, seeded by (*key, q)."""
    for q in range(1, state.n_qubits + 1):
        state = apply_local_unitary(state, random_special_unitary((*key, q), q))
    return state


def _invariant_drifts(seed: int, trial: int) -> list[float]:
    state = random_state(4, (seed, trial))
    rotated = _scrambled(state, (seed, trial))
    before = inv.triple_invariants(state)
    after = inv.triple_invariants(rotated)
    s3 = random_state(3, (seed, trial, 33))
    r3 = _scrambled(s3, (seed, trial, 3))
    return [abs(inv.i4(state) - inv.i4(rotated)), abs(before.i48 - after.i48),
            abs(before.j12 - after.j12), abs(before.delta24 - after.delta24),
            abs(inv.three_way_invariant(s3) - inv.three_way_invariant(r3))]


def _relation_defects(seed: int, trial: int) -> list[float]:
    lhs, rhs = inv.n_global_sq_relation(random_state(3, (seed, trial)))
    return [abs(lhs - rhs)]


def _product_i48s(seed: int, trial: int) -> list[float]:
    """|i48| of a random (123)(4) and then a random (12)(34) product state."""
    rng = np.random.default_rng((seed, trial))
    kets = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (8, 2, 4, 4)]
    kets = [v / np.linalg.norm(v) for v in kets]
    return [abs(inv.i48(make_state(4, np.kron(kets[i], kets[i + 1])))) for i in (0, 2)]


_check_decomposition = _suite(_decomposition_residuals, "max decomposition residual")
_check_invariance = _suite(_invariant_drifts,
                           "max invariant drift under special local unitaries")
_check_negativity_relation = _suite(_relation_defects,
                                    "max |squared-negativity relation defect|")
_check_vanishing = _suite(_product_i48s, "max |i48| on product states")


CHECK_SUITES = {
    "decomposition": (_check_decomposition, 500, 1e-12),
    "invariance": (_check_invariance, 500, 1e-9),
    "negativity-relation": (_check_negativity_relation, 300, 1e-9),
    "vanishing": (_check_vanishing, 100, 1e-9),
}


def cmd_check(args) -> int:
    runner, default_trials, default_tol = CHECK_SUITES[args.suite]
    trials = args.trials if args.trials is not None else default_trials
    check_index(trials, 1, None, "--trials", BadBudget)
    check_index(args.seed, 0, None, "--seed", BadBudget)
    tol = args.tol if args.tol is not None else default_tol
    worst, label = runner(trials, args.seed, tol)
    status = "ok" if worst <= tol else "VIOLATION"
    print(f"check {args.suite}: trials={trials} seed={args.seed} "
          f"{label}={worst:.3e} tol={tol:.1e} [{status}]")
    return EXIT_OK if worst <= tol else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negfonts",
        description="Negativity fonts, K-way partial transposes, and polynomial "
                    "invariants for 2-4 qubit pure states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol_help="degree-aware zero tolerance (default 1e-9)"):
        p.add_argument("--in", dest="infile", required=True, help="state file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=fonts_mod.DEFAULT_TOL, help=tol_help)

    p_inv = sub.add_parser("invariants", help="invariant report for a state file")
    add_common(p_inv, "degree-aware zero tolerance of the 3-qubit report; on 2- and "
                      "4-qubit files it is only recorded in the report's tolerance "
                      "field (default 1e-9)")
    p_inv.add_argument("--triple", type=int, default=4, choices=(1, 2, 3, 4),
                       help="singled-out qubit for the headline triple")
    p_inv.add_argument("--no-normalize", action="store_true",
                       help="evaluate on the raw coefficients")
    p_inv.set_defaults(func=cmd_invariants)

    p_cls = sub.add_parser("classify", help="assign a 4-qubit state to a major class")
    add_common(p_cls)
    p_cls.add_argument("--font-min", action="store_true",
                       help="count in a font-minimal frame: on G_abcd orbits the "
                            "magic-basis normal form, elsewhere the best frame a "
                            "Powell search finds")
    budget = "; validated always, used only by the search off the G_abcd orbits"
    p_cls.add_argument("--seed", type=int, default=0,
                       help="seed of the search's random restarts (default 0)" + budget)
    p_cls.add_argument("--restarts", type=int, default=32,
                       help="lock-step Powell starts (default 32)" + budget)
    p_cls.add_argument("--iters", type=int, default=400,
                       help="Powell iterations per start (default 400)" + budget)
    p_cls.set_defaults(func=cmd_classify)

    p_neg = sub.add_parser("negativity", help="trace-norm negativities per qubit")
    add_common(p_neg, "only recorded in the report's tolerance field; the negativities "
                      "do not depend on it (default 1e-9)")
    p_neg.add_argument("--qubit", type=int, default=None)
    p_neg.set_defaults(func=cmd_negativity)

    p_fonts = sub.add_parser("fonts", help="list canonical fonts and their dets")
    add_common(p_fonts)
    p_fonts.add_argument("--qubit", type=int, default=None)
    p_fonts.add_argument("--k", type=int, default=None)
    p_fonts.set_defaults(func=cmd_fonts)

    p_cat = sub.add_parser("catalog", help="write a cataloged state to a file")
    p_cat.add_argument("name", nargs="?", default=None)
    p_cat.add_argument("params", nargs="*", default=[], metavar="NAME=VALUE",
                       help="family parameters, e.g. a=1 b=2")
    p_cat.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE", help="family parameter (repeatable)")
    p_cat.add_argument("--out", default=None)
    p_cat.add_argument("--normalize", action="store_true",
                       help="normalize instead of keeping raw coefficients")
    p_cat.add_argument("--list", action="store_true", help="list catalog names")
    p_cat.set_defaults(func=cmd_catalog)

    p_sweep = sub.add_parser("sweep", help="family grid sweep against closed forms")
    p_sweep.add_argument("--family", required=True)
    p_sweep.add_argument("--param", action="append", default=[],
                         metavar="NAME=VALUES",
                         help="grid values: start:stop:count or v1,v2,... (repeatable)")
    p_sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sweep.add_argument("--max-rel", type=float, default=1e-7,
                         help="fail threshold on relative deviation")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run a property suite on random states")
    p_check.add_argument("--suite", required=True, choices=sorted(CHECK_SUITES))
    p_check.add_argument("--trials", type=int, default=None)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tol", type=float, default=None,
                         help="violation threshold (default per suite)")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, value in (("--tol", getattr(args, "tol", None)),
                            ("--max-rel", getattr(args, "max_rel", None))):
            if value is not None:
                check_tolerance(value, flag)
        # overflowed or undefined intermediates surface as NonFiniteResult
        # (exit 3), so numpy's own RuntimeWarnings would only add noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (NegfontsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, WrongArity):
            return EXIT_ARITY
        return EXIT_VIOLATION if isinstance(exc, (SearchDrift, NonFiniteResult)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
