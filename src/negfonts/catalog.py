"""Catalog of named states and parametric families.

Amplitudes are stored raw, exactly as conventionally written (unnormalized for
the parametric families); callers opt into normalization.  Family parameters
may be complex; real inputs are promoted.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import MissingParameter, UnknownState
from .states import PureState, index_of_bits, make_state

_SQRT2 = float(np.sqrt(2.0))
_SQRT6 = float(np.sqrt(6.0))
_SQRT8 = float(np.sqrt(8.0))


def _from_terms(n: int, terms: dict[str, complex]) -> PureState:
    amps = np.zeros(1 << n, dtype=np.complex128)
    for bits, value in terms.items():
        amps[index_of_bits([int(b) for b in bits])] = value
    return make_state(n, amps)


def _bell() -> PureState:
    return _from_terms(2, {"00": 1 / _SQRT2, "11": 1 / _SQRT2})


def _ghz(n: int) -> PureState:
    return _from_terms(n, {"0" * n: 1 / _SQRT2, "1" * n: 1 / _SQRT2})


def _w3() -> PureState:
    v = 1 / np.sqrt(3.0)
    return _from_terms(3, {"001": v, "010": v, "100": v})


def _w4() -> PureState:
    return _from_terms(4, {"0000": 0.5, "1100": 0.5, "1010": 0.5, "1001": 0.5})


def _cluster(kind: int) -> PureState:
    middle = {1: ("1100", "0011"), 2: ("0110", "1001"), 3: ("1010", "0101")}[kind]
    terms = {"0000": 0.5, middle[0]: 0.5, middle[1]: 0.5, "1111": -0.5}
    return _from_terms(4, terms)


def _dicke42() -> PureState:
    v = 1 / _SQRT6
    return _from_terms(4, {b: v for b in ("0011", "1100", "0101", "1010", "1001", "0110")})


def _hs() -> PureState:
    v = 1 / _SQRT6
    w = np.exp(2j * np.pi / 3)
    return _from_terms(4, {"0011": v, "1100": v,
                           "1010": w * v, "0101": w * v,
                           "1001": w ** 2 * v, "0110": w ** 2 * v})


def _brown_phi() -> PureState:
    v = 1 / _SQRT8
    return _from_terms(4, {"0000": 0.5, "1101": 0.5,
                           "1011": v, "0011": v, "0110": v, "1110": -v})


def _psi_ab(a: complex, b: complex) -> PureState:
    return _from_terms(4, {"0000": a, "1111": a, "1101": b, "1110": b, "0011": b})


def _psi_a(a: complex) -> PureState:
    return _from_terms(4, {"0000": a, "1111": a, "1110": 1.0})


def _g_abcd(a: complex, b: complex, c: complex, d: complex) -> PureState:
    return _from_terms(4, {
        "0000": (a + d) / 2, "1111": (a + d) / 2,
        "1100": (a - d) / 2, "0011": (a - d) / 2,
        "1010": (b + c) / 2, "0101": (b + c) / 2,
        "0110": (b - c) / 2, "1001": (b - c) / 2,
    })


def _l_abc2(a: complex, b: complex, c: complex) -> PureState:
    return _from_terms(4, {
        "0000": (a + b) / 2, "1111": (a + b) / 2,
        "1100": (a - b) / 2, "0011": (a - b) / 2,
        "1010": c, "0101": c,
        "0110": 1.0,
    })


def _l_a2b2(a: complex, b: complex) -> PureState:
    return _from_terms(4, {"0000": a, "1111": a, "0101": b, "1010": b,
                           "0110": 1.0, "0011": 1.0})


def _l_a2_0_3p1t(a: complex) -> PureState:
    return _from_terms(4, {"0000": a, "1111": a,
                           "0101": 1.0, "0110": 1.0, "0011": 1.0})


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    n_qubits: int
    params: tuple[str, ...]
    builder: Callable[..., PureState]
    note: str


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in (
    CatalogEntry("Bell", 2, (), _bell, "maximally entangled pair"),
    CatalogEntry("GHZ3", 3, (), lambda: _ghz(3), "three-qubit GHZ"),
    CatalogEntry("GHZ4", 4, (), lambda: _ghz(4), "four-qubit GHZ"),
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
    return CATALOG[name].builder(*catalog_args(name, params))


def catalog_args(name: str, params: Mapping[str, complex] | None) -> list[complex]:
    """The parameters of the cataloged `name` as complex numbers, in the order
    of its `params`; MissingParameter if one is missing, unknown or not a number."""
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
    return [complex(params[p]) for p in names]
