"""Text state files and JSON report serialization.

State file format (diffable, one amplitude per line, omitted indices are zero):

    # optional comments
    n 4
    0000 0.70710678118654757 0
    1111 0.70710678118654757 0

Each amplitude line is "<bitstring> <re> [<im>]"; numbers carry 17 significant
digits so files round-trip exactly.
"""

from __future__ import annotations

import json
from typing import IO

import numpy as np

from .errors import NonFiniteResult, ParseError, ZeroVector
from .states import PureState, bits_of_index, index_of_bits, make_state

SCHEMA = "negfonts/report-v1"
VERSION = "0.1.0"


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_state(stream: IO[str], state: PureState, comment: str | None = None) -> None:
    if comment:
        for line in comment.splitlines():
            stream.write(f"# {line}\n")
    stream.write(f"n {state.n_qubits}\n")
    for idx, amp in enumerate(state.amps):
        if amp != 0:
            bits = "".join(map(str, bits_of_index(idx, state.n_qubits)))
            stream.write(f"{bits} {fmt(amp.real)} {fmt(amp.imag)}\n")


def write_state_file(path: str, state: PureState, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_state(fh, state, comment)


def read_state(stream: IO[str]) -> PureState:
    n = None
    amps = None
    seen: set[int] = set()
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise ParseError("expected header 'n <qubits>'", lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"bad qubit count {parts[1]!r}", lineno) from None
            if not 2 <= n <= 6:
                raise ParseError(f"qubit count {n} outside 2..6", lineno)
            amps = np.zeros(1 << n, dtype=np.complex128)
            continue
        if len(parts) not in (2, 3):
            raise ParseError("expected '<bits> <re> [<im>]'", lineno)
        bits = parts[0]
        if len(bits) != n or any(ch not in "01" for ch in bits):
            raise ParseError(f"bad bitstring {bits!r} for n={n}", lineno)
        idx = index_of_bits([int(ch) for ch in bits])
        if idx in seen:
            raise ParseError(f"duplicate index {bits}", lineno)
        seen.add(idx)
        try:
            re = float(parts[1])
            im = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError:
            raise ParseError(f"bad number in {line!r}", lineno) from None
        if not np.isfinite(re) or not np.isfinite(im):
            raise ParseError("amplitudes must be finite", lineno)
        amps[idx] = complex(re, im)
    if n is None:
        raise ParseError("empty state file")
    if not seen or np.max(np.abs(amps)) == 0.0:
        raise ZeroVector("state file holds no nonzero amplitude")
    return make_state(n, amps)


def read_state_file(path: str) -> PureState:
    with open(path, encoding="utf-8") as fh:
        return read_state(fh)


# ---------------------------------------------------------------------------
# report serialization


def cnum(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag, "abs": abs(z)}


def _pair_key(pair) -> str:
    return "".join(map(str, pair))


def three_report_dict(report) -> dict:
    return {
        "pair_dets": {_pair_key(p): [cnum(d[0]), cnum(d[1])]
                      for p, d in sorted(report.pair_dets.items())},
        "d3": [cnum(report.d3_canonical[0]), cnum(report.d3_canonical[1])],
        "n_pair_sq": {_pair_key(p): v for p, v in sorted(report.n_pair_sq.items())},
        "n_global_sq": report.n_global_sq,
        "i3": cnum(report.i3),
        "tau3": report.tau3,
        "i3_is_zero": report.i3_is_zero,
        "w_sums": {_pair_key(p): v for p, v in sorted(report.w_sums.items())},
        "i2_w": report.i2_w,
    }


def _triple_dict(tr) -> dict:
    return {
        "singled": tr.singled,
        "i3_cond": [cnum(tr.i3_0), cnum(tr.i3_1)],
        "t": cnum(tr.t),
        "p": [cnum(tr.p0), cnum(tr.p1)],
        "i48": cnum(tr.i48),
        "j12": cnum(tr.j12),
        "delta24": cnum(tr.delta24),
        "n_triple_sq": tr.n_sq,
        "dres": tr.dres,
    }


def four_report_dict(report, triple: int = 4) -> dict:
    head = report.triples[triple - 1]
    return {
        "i4": cnum(report.i4),
        "tau4": report.tau4,
        "triple": triple,
        "headline": _triple_dict(head),
        "triples": [_triple_dict(tr) for tr in report.triples],
        "pair_sums": {_pair_key(p): v for p, v in sorted(report.pair_sums.items())},
        "n44_sq": report.n44_sq,
        "n48": report.n48,
        "i26": report.i26,
        "i26_sym": report.i26_sym,
        "tau48": tau48_of(report, triple),
        "cross_triple_i48_dev": report.cross_triple_i48_dev,
    }


def tau48_of(report, triple: int) -> float:
    from .invariants import tau48_from_i48

    return tau48_from_i48(report.triples[triple - 1].i48)


def class_report_dict(report) -> dict:
    sig = report.signature
    return {
        "major_class": report.major_class,
        "signature": {
            "i48_zero": sig.i48_zero, "dres_zero": sig.dres_zero,
            "delta_zero": sig.delta_zero,
            "n2": sig.n2, "n3": sig.n3, "n4": sig.n4,
            "i48_max": sig.i48_max, "dres_max": sig.dres_max,
            "delta_max": sig.delta_max,
        },
        "minimized_state_used": report.minimized_state_used,
        "notes": list(report.notes),
        "tolerance": report.tolerance,
        "tau48": report.tau48,
    }


def wrap_report(payload: dict, *, input_desc: dict, tol: float,
                seed: int | None = None) -> dict:
    doc = {
        "schema": SCHEMA,
        "version": VERSION,
        "input": input_desc,
        "tolerance": tol,
    }
    if seed is not None:
        doc["seed"] = seed
    doc.update(payload)
    return doc


def dump_report(doc: dict, stream: IO[str]) -> None:
    """Write the report as JSON; nothing is written if a value is NaN or infinite."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(f"report holds a NaN or infinite value ({exc})") from None
    stream.write(text + "\n")
