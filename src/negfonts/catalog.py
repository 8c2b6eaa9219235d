"""Catalog of named states and parametric families.

Each entry's `terms` gives its {basis label: amplitude} table, and
`catalog_state` lays the table out on the entry's qubits.  Amplitudes are
stored raw, exactly as conventionally written (unnormalized for the parametric
families); callers opt into normalization.  Family parameters may be complex;
real inputs are promoted.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import MissingParameter, NonFinite, UnknownState
from .states import PureState, make_state

_S2 = 1 / float(np.sqrt(2.0))
_SQRT6 = float(np.sqrt(6.0))
_SQRT8 = float(np.sqrt(8.0))


def _w3() -> dict[str, complex]:
    v = 1 / np.sqrt(3.0)
    return {"001": v, "010": v, "100": v}


def _w4() -> dict[str, complex]:
    return {"0000": 0.5, "1100": 0.5, "1010": 0.5, "1001": 0.5}


def _cluster(kind: int) -> dict[str, complex]:
    middle = {1: ("1100", "0011"), 2: ("0110", "1001"), 3: ("1010", "0101")}[kind]
    return {"0000": 0.5, middle[0]: 0.5, middle[1]: 0.5, "1111": -0.5}


def _dicke42() -> dict[str, complex]:
    v = 1 / _SQRT6
    return {b: v for b in ("0011", "1100", "0101", "1010", "1001", "0110")}


def _hs() -> dict[str, complex]:
    v = 1 / _SQRT6
    w = np.exp(2j * np.pi / 3)
    return {"0011": v, "1100": v, "1010": w * v, "0101": w * v,
            "1001": w ** 2 * v, "0110": w ** 2 * v}


def _brown_phi() -> dict[str, complex]:
    v = 1 / _SQRT8
    return {"0000": 0.5, "1101": 0.5, "1011": v, "0011": v, "0110": v, "1110": -v}


def _psi_ab(a: complex, b: complex) -> dict[str, complex]:
    return {"0000": a, "1111": a, "1101": b, "1110": b, "0011": b}


def _psi_a(a: complex) -> dict[str, complex]:
    return {"0000": a, "1111": a, "1110": 1.0}


def _g_abcd(a: complex, b: complex, c: complex, d: complex) -> dict[str, complex]:
    return {"0000": (a + d) / 2, "1111": (a + d) / 2,
            "1100": (a - d) / 2, "0011": (a - d) / 2,
            "1010": (b + c) / 2, "0101": (b + c) / 2,
            "0110": (b - c) / 2, "1001": (b - c) / 2}


def _l_abc2(a: complex, b: complex, c: complex) -> dict[str, complex]:
    return {"0000": (a + b) / 2, "1111": (a + b) / 2,
            "1100": (a - b) / 2, "0011": (a - b) / 2,
            "1010": c, "0101": c, "0110": 1.0}


def _l_a2b2(a: complex, b: complex) -> dict[str, complex]:
    return {"0000": a, "1111": a, "0101": b, "1010": b, "0110": 1.0, "0011": 1.0}


def _l_a2_0_3p1t(a: complex) -> dict[str, complex]:
    return {"0000": a, "1111": a, "0101": 1.0, "0110": 1.0, "0011": 1.0}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    n_qubits: int
    params: tuple[str, ...]
    terms: Callable[..., dict[str, complex]]   # params -> {basis label: amplitude}
    note: str


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in (
    CatalogEntry("Bell", 2, (), lambda: dict.fromkeys(("00", "11"), _S2),
                 "maximally entangled pair"),
    CatalogEntry("GHZ3", 3, (), lambda: dict.fromkeys(("000", "111"), _S2), "three-qubit GHZ"),
    CatalogEntry("GHZ4", 4, (), lambda: dict.fromkeys(("0000", "1111"), _S2), "four-qubit GHZ"),
    CatalogEntry("W3", 3, (), _w3, "three-qubit W"),
    CatalogEntry("W4", 4, (), _w4, "four-qubit W-type"),
    CatalogEntry("C1", 4, (), lambda: _cluster(1), "cluster state, pairing 1100/0011"),
    CatalogEntry("C2", 4, (), lambda: _cluster(2), "cluster state, pairing 0110/1001"),
    CatalogEntry("C3", 4, (), lambda: _cluster(3), "cluster state, pairing 1010/0101"),
    CatalogEntry("Dicke42", 4, (), _dicke42, "two-excitation Dicke state"),
    CatalogEntry("HS", 4, (), _hs, "highly entangled six-term state with cube-root phases"),
    CatalogEntry("BrownPhi", 4, (), _brown_phi, "numerically found highly entangled state"),
    CatalogEntry("Psi_ab", 4, ("a", "b"), _psi_ab, "single 4-way font plus three-term tail"),
    CatalogEntry("Psi_a", 4, ("a",), _psi_a, "GHZ-like with one extra product term"),
    CatalogEntry("G_abcd", 4, ("a", "b", "c", "d"), _g_abcd, "generic even-parity family"),
    CatalogEntry("L_abc2", 4, ("a", "b", "c"), _l_abc2, "even-parity family, three parameters"),
    CatalogEntry("L_a2b2", 4, ("a", "b"), _l_a2b2, "even-parity family, two parameters"),
    CatalogEntry("L_a2_0_3p1t", 4, ("a",), _l_a2_0_3p1t, "even-parity family, one parameter"),
)}


def catalog_names() -> tuple[str, ...]:
    return tuple(CATALOG)


def catalog_state(name: str, params: Mapping[str, complex] | None = None) -> PureState:
    """Build a cataloged state from its raw published amplitudes."""
    if name not in CATALOG:
        raise UnknownState(f"unknown state {name!r}; known: {', '.join(CATALOG)}")
    entry = CATALOG[name]
    amps = np.zeros(1 << entry.n_qubits, dtype=np.complex128)
    for bits, value in entry.terms(*catalog_args(name, params)).items():
        amps[int(bits, 2)] = value
    return make_state(entry.n_qubits, amps)


def catalog_args(name: str, params: Mapping[str, complex] | None) -> list[complex]:
    """The parameters of the cataloged `name` as complex numbers, in the order
    of its `params`; MissingParameter if one is missing, unknown or not a number,
    NonFinite if one is infinite, NaN or too large for a float."""
    names = CATALOG[name].params
    params = dict(params or {})
    missing = [p for p in names if p not in params]
    if missing:
        raise MissingParameter(f"{name} needs parameter(s): {', '.join(missing)}")
    extra = [p for p in params if p not in names]
    if extra:
        raise MissingParameter(f"{name} does not take parameter(s): {', '.join(extra)}")
    bad = [f"{p}={params[p]!r}" for p in names if not isinstance(params[p], numbers.Number)]
    if bad:
        raise MissingParameter(f"{name} needs numeric parameter(s), got {', '.join(bad)}")
    try:
        args = [complex(params[p]) for p in names]
        if all(map(cmath.isfinite, args)):
            return args
    except OverflowError:               # an int or Fraction beyond the float range
        pass
    raise NonFinite(f"{name} needs parameters that are finite as complex floats")
