"""Command-line interface.

Exit codes: 0 success, 2 parse/usage error, 3 property violation (a failed
check, a font search that drifted an invariant, or a NaN or infinite result),
4 unsupported qubit count.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from itertools import product

import numpy as np

from . import catalog as cat
from . import fonts as fonts_mod
from . import invariants as inv
from . import ptrans
from . import stateio
from .classify import SWEEP_FAMILIES, classify as run_classify, family_expected
from .errors import (
    BadGrid,
    NegfontsError,
    NonFiniteResult,
    ParseError,
    SearchDrift,
    UnknownFamily,
    UnknownState,
    UnsupportedArity,
    WrongArity,
)
from .states import (
    PureState,
    apply_local_unitary,
    normalize,
    random_special_unitary,
    random_state,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_ARITY = 4


def _load(path: str) -> PureState:
    return stateio.read_state_file(path)


def _emit(doc: dict, out: str | None) -> None:
    if out:
        # serialize first: a report that cannot be written leaves no file
        text = io.StringIO()
        stateio.dump_report(doc, text)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text.getvalue())
    else:
        stateio.dump_report(doc, sys.stdout)


def _input_desc(path: str, state: PureState, normalized: bool) -> dict:
    return {"path": path, "n_qubits": state.n_qubits, "normalized": normalized}


def cmd_invariants(args) -> int:
    state = _load(args.infile)
    n = state.n_qubits
    if n not in (2, 3, 4):
        raise UnsupportedArity(f"invariants supports n in 2..4, got n={n}")
    work = state if args.no_normalize else normalize(state)
    if n == 2:
        payload = {"i2": inv.i2_pair(work)}
    elif n == 3:
        payload = {"three_qubit": stateio.three_report_dict(
            inv.three_qubit_report(work, args.tol))}
    else:
        report = inv.aggregate_invariants(work, args.tol)
        payload = {"four_qubit": stateio.four_report_dict(report, triple=args.triple)}
    doc = stateio.wrap_report(payload,
                              input_desc=_input_desc(args.infile, work,
                                                     not args.no_normalize),
                              tol=args.tol)
    _emit(doc, args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    state = _load(args.infile)
    if state.n_qubits != 4:
        raise UnsupportedArity(f"classify supports n=4, got n={state.n_qubits}")
    report = run_classify(state, tol=args.tol, use_font_min=args.font_min,
                          seed=args.seed, restarts=args.restarts, iters=args.iters)
    doc = stateio.wrap_report({"class_report": stateio.class_report_dict(report)},
                              input_desc=_input_desc(args.infile, state, True),
                              tol=args.tol, seed=args.seed if args.font_min else None)
    _emit(doc, args.out)
    return EXIT_OK


def cmd_negativity(args) -> int:
    state = normalize(_load(args.infile))
    n = state.n_qubits
    qubits = [args.qubit] if args.qubit else list(range(1, n + 1))
    rows = {}
    for p in qubits:
        entry = {"global": ptrans.negativity(state, p)}
        for k in range(2, n + 1):
            entry[f"kway_{k}"] = ptrans.negativity(state, p, k)
        entry["negative_eigenvalues"] = list(ptrans.negative_eigenvalues(state, p))
        rows[str(p)] = entry
    doc = stateio.wrap_report({"negativity": rows},
                              input_desc=_input_desc(args.infile, state, True),
                              tol=args.tol)
    _emit(doc, args.out)
    return EXIT_OK


def cmd_fonts(args) -> int:
    state = normalize(_load(args.infile))
    n = state.n_qubits
    qubits = [args.qubit] if args.qubit else list(range(1, n + 1))
    payload = {}
    for p in qubits:
        listing = []
        for spec, det in fonts_mod.all_font_dets(state, p):
            if args.k and spec.k != args.k:
                continue
            listing.append({"label": spec.label(), "k": spec.k,
                            "det": stateio.cnum(det)})
        payload[str(p)] = {
            "counts": {str(k): v
                       for k, v in fonts_mod.font_counts(state, p, args.tol).items()},
            "fonts": listing,
        }
    doc = stateio.wrap_report({"fonts": payload},
                              input_desc=_input_desc(args.infile, state, True),
                              tol=args.tol)
    _emit(doc, args.out)
    return EXIT_OK


def _parse_param(text: str) -> tuple[str, complex]:
    if "=" not in text:
        raise BadGrid(f"parameter {text!r} is not of the form name=value")
    name, value = text.split("=", 1)
    try:
        return name.strip(), complex(value)
    except ValueError:
        raise BadGrid(f"cannot parse {value!r} as a number") from None


def cmd_catalog(args) -> int:
    if args.list:
        for name in cat.catalog_names():
            entry = cat.CATALOG[name]
            params = ", ".join(entry.params) if entry.params else "-"
            print(f"{name:14s} n={entry.n_qubits}  params: {params:12s} {entry.note}")
        return EXIT_OK
    if not args.name:
        raise UnknownState("no state name given (use --list to see the catalog)")
    params = dict(_parse_param(p) for p in list(args.params) + args.param)
    state = cat.catalog_state(args.name, params)
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
        return [complex(v) for v in np.linspace(start, stop, count)]
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(complex(piece))
        except ValueError:
            raise BadGrid(f"cannot parse {piece!r} as a number") from None
    if not values:
        raise BadGrid(f"no values in {text!r}")
    return values


def _rel_dev(num, exp) -> float:
    scale = max(abs(num), abs(exp))
    if scale == 0.0:
        return 0.0
    return abs(num - exp) / scale


def cmd_sweep(args) -> int:
    family = args.family
    if family not in SWEEP_FAMILIES:
        raise UnknownFamily(
            f"unknown family {family!r}; known: {', '.join(SWEEP_FAMILIES)}")
    param_names = cat.CATALOG[family].params
    grid_axes: dict[str, list[complex]] = {}
    for spec in args.param:
        if "=" not in spec:
            raise BadGrid(f"parameter {spec!r} is not of the form name=values")
        name, text = spec.split("=", 1)
        name = name.strip()
        if name not in param_names:
            raise BadGrid(f"{family} has no parameter {name!r}")
        grid_axes[name] = _parse_grid_values(text)
    missing = [p for p in param_names if p not in grid_axes]
    if missing:
        raise BadGrid(f"missing grid for parameter(s): {', '.join(missing)}")
    if not param_names:
        raise BadGrid(f"{family} takes no parameters; nothing to sweep")

    quantities = ("i48", "n_triple_sq", "dres", "delta24")
    header = list(param_names)
    for q in quantities:
        header += [f"{q}_num_re", f"{q}_num_im", f"{q}_exp_re", f"{q}_exp_im",
                   f"{q}_abs_dev", f"{q}_rel_dev"]
    worst = 0.0
    rows = []
    for values in product(*(grid_axes[p] for p in param_names)):
        params = dict(zip(param_names, values))
        state = cat.catalog_state(family, params)
        head = inv.triple_invariants(state, singled=4)
        expected = family_expected(family, params)
        numeric = {"i48": head.i48, "n_triple_sq": head.n_sq,
                   "dres": head.dres, "delta24": head.delta24}
        # deviations are measured relative to the state's homogeneity scale
        norm = state.norm
        scale = {"i48": norm ** 8, "n_triple_sq": norm ** 8,
                 "dres": norm ** 8, "delta24": norm ** 24}
        row = []
        for p in param_names:
            row.append(stateio.fmt(params[p].real)
                       + (f"{params[p].imag:+.17g}j" if params[p].imag else ""))
        for q in quantities:
            num = complex(numeric[q])
            exp = complex(expected[q if q != "delta24" else "delta24"])
            abs_dev = abs(num - exp)
            rel = abs_dev / max(abs(num), abs(exp), 1e-12 * scale[q])
            worst = max(worst, rel)
            row += [stateio.fmt(num.real), stateio.fmt(num.imag),
                    stateio.fmt(exp.real), stateio.fmt(exp.imag),
                    stateio.fmt(abs_dev), stateio.fmt(rel)]
        rows.append(row)

    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    print(f"sweep {family}: {len(rows)} points, worst relative deviation {worst:.3e}",
          file=sys.stderr)
    return EXIT_OK if worst <= args.max_rel else EXIT_VIOLATION


def _check_decomposition(trials: int, seed: int, tol: float) -> tuple[float, str]:
    worst = 0.0
    for trial in range(trials):
        n = 3 + (trial % 2)
        state = random_state(n, (seed, trial))
        for p in range(1, n + 1):
            worst = max(worst, ptrans.decomposition_residual(state, p))
    return worst, "max decomposition residual"


def _check_invariance(trials: int, seed: int, tol: float) -> tuple[float, str]:
    worst = 0.0
    for trial in range(trials):
        state = random_state(4, (seed, trial))
        rotated = state
        for q in (1, 2, 3, 4):
            rotated = apply_local_unitary(
                rotated, random_special_unitary((seed, trial, q), q))
        before = inv.triple_invariants(state)
        after = inv.triple_invariants(rotated)
        worst = max(worst,
                    abs(inv.i4(state) - inv.i4(rotated)),
                    abs(before.i48 - after.i48),
                    abs(before.j12 - after.j12),
                    abs(before.delta24 - after.delta24))
        s3 = random_state(3, (seed, trial, 33))
        r3 = s3
        for q in (1, 2, 3):
            r3 = apply_local_unitary(r3, random_special_unitary((seed, trial, 3, q), q))
        worst = max(worst, abs(inv.three_way_invariant(s3)
                               - inv.three_way_invariant(r3)))
    return worst, "max invariant drift under special local unitaries"


def _check_negativity_relation(trials: int, seed: int, tol: float) -> tuple[float, str]:
    worst = 0.0
    for trial in range(trials):
        lhs, rhs = inv.n_global_sq_relation(random_state(3, (seed, trial)))
        worst = max(worst, abs(lhs - rhs))
    return worst, "max |squared-negativity relation defect|"


def _random_product(rng, split: str) -> PureState:
    def ket(dim):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    if split == "triple":
        vec = np.kron(ket(8), ket(2))
    else:
        vec = np.kron(ket(4), ket(4))
    from .states import make_state

    return make_state(4, vec)


def _check_vanishing(trials: int, seed: int, tol: float) -> tuple[float, str]:
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        for split in ("triple", "pair"):
            worst = max(worst, abs(inv.i48(_random_product(rng, split))))
    return worst, "max |i48| on product states"


CHECK_SUITES = {
    "decomposition": (_check_decomposition, 500, 1e-12),
    "invariance": (_check_invariance, 500, 1e-9),
    "negativity-relation": (_check_negativity_relation, 300, 1e-9),
    "vanishing": (_check_vanishing, 100, 1e-9),
}


def cmd_check(args) -> int:
    runner, default_trials, default_tol = CHECK_SUITES[args.suite]
    trials = args.trials if args.trials else default_trials
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

    def add_common(p):
        p.add_argument("--in", dest="infile", required=True, help="state file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="degree-aware zero tolerance (default 1e-9)")

    p_inv = sub.add_parser("invariants", help="invariant report for a state file")
    add_common(p_inv)
    p_inv.add_argument("--triple", type=int, default=4, choices=(1, 2, 3, 4),
                       help="singled-out qubit for the headline triple")
    p_inv.add_argument("--no-normalize", action="store_true",
                       help="evaluate on the raw coefficients")
    p_inv.set_defaults(func=cmd_invariants)

    p_cls = sub.add_parser("classify", help="assign a 4-qubit state to a major class")
    add_common(p_cls)
    p_cls.add_argument("--font-min", action="store_true",
                       help="search for a font-minimal frame before counting")
    p_cls.add_argument("--seed", type=int, default=0)
    p_cls.add_argument("--restarts", type=int, default=32)
    p_cls.add_argument("--iters", type=int, default=400)
    p_cls.set_defaults(func=cmd_classify)

    p_neg = sub.add_parser("negativity", help="trace-norm negativities per qubit")
    add_common(p_neg)
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
        return args.func(args)
    except (UnsupportedArity, WrongArity) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARITY
    except (SearchDrift, NonFiniteResult) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ParseError, UnknownState, UnknownFamily, BadGrid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NegfontsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
