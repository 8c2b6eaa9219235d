"""Print one SHA-256 over the bits of every invariant the library reports.

Two commits that print the same digest return the same bits from each call
below, and raise the same error types.  The digest covers the `float.hex` of
every field (real and imaginary parts apart) of:

- `triple_invariants` (singled 1..4), `aggregate_invariants`, `i4`,
  `i3_conditional` (bits 0 and 1) and `t_p_invariants` of each four-qubit state;
- `three_qubit_report`, `n_pair_sq` (every pair) and `three_way_invariant` of
  each three-qubit state;
- `family_expected` at fixed grid points of the sweep families.

The states are fixed Haar states with n = 3 and 4 at scales 1, 3.7, 1e±30,
1e±40, 1e±100 and 1e±200, and every catalog state (families at one fixed
complex point).  Where a call raises, its error type enters the digest.

    PYTHONPATH=src python3 tests/invariant_digest.py

Point PYTHONPATH at another checkout's `src` to digest that commit.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from itertools import product

import numpy as np

from negfonts import (
    CATALOG,
    aggregate_invariants,
    catalog_names,
    catalog_state,
    family_expected,
    i3_conditional,
    i4,
    make_state,
    n_pair_sq,
    random_state,
    t_p_invariants,
    three_qubit_report,
    three_way_invariant,
    triple_invariants,
)
from negfonts.classify import SWEEP_FAMILIES

HAAR_STATES = 24
SCALES = (1.0, 3.7, 1e30, 1e-30, 1e40, 1e-40, 1e100, 1e-100, 1e200, 1e-200)
FAMILY_GRID = (0j, 0.6 + 0j, 1 - 0.5j, -0.3 + 1.1j, 1e80j)


def _words(value):
    """The hex of every float in `value`, walking reports, dicts and sequences."""
    if isinstance(value, (bool, np.bool_)):
        yield repr(bool(value))
    elif isinstance(value, complex):
        yield value.real.hex()
        yield value.imag.hex()
    elif isinstance(value, (float, int)):
        yield float(value).hex()
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield field.name
            yield from _words(getattr(value, field.name))
    elif isinstance(value, dict):
        for key in sorted(value):
            yield repr(key)
            yield from _words(value[key])
    else:
        for item in value:
            yield from _words(item)


def _calls(state):
    """(label, thunk) for every call this digest covers on `state`."""
    if state.n_qubits == 4:
        yield from ((f"triple{q}", lambda q=q: triple_invariants(state, q)) for q in (1, 2, 3, 4))
        yield "aggregate", lambda: aggregate_invariants(state)
        yield "i4", lambda: i4(state)
        yield from ((f"i3_{b}", lambda b=b: i3_conditional(state, b)) for b in (0, 1))
        yield "t_p", lambda: t_p_invariants(state)
    elif state.n_qubits == 3:
        yield "report3", lambda: three_qubit_report(state)
        yield from ((f"n{pair}", lambda pair=pair: n_pair_sq(state, pair))
                    for pair in ((1, 2), (1, 3), (2, 3)))
        yield "i3", lambda: three_way_invariant(state)


def _states():
    for n in (3, 4):
        for trial in range(HAAR_STATES):
            base = random_state(n, (2020, n, trial))
            for scale in SCALES:
                yield f"haar{n}.{trial}x{scale!r}", make_state(n, base.amps * scale)
    for name in catalog_names():
        params = {p: 0.7 - 0.3j for p in CATALOG[name].params}
        yield name, catalog_state(name, params)


def _record(digest, label: str, thunk) -> None:
    try:
        words = list(_words(thunk()))
    except Exception as err:        # the error type is part of the digest
        words = [type(err).__name__]
    digest.update(" ".join([label, *words]).encode())
    digest.update(b"\n")


def invariant_digest() -> str:
    digest = hashlib.sha256()
    with np.errstate(all="ignore"):
        for name, state in _states():
            for label, thunk in _calls(state):
                _record(digest, f"{name} {label}", thunk)
        for family in SWEEP_FAMILIES:
            names = CATALOG[family].params
            for point in product(FAMILY_GRID, repeat=len(names)):
                params = dict(zip(names, point))
                _record(digest, f"{family} {point!r}", lambda: family_expected(family, params))
    return digest.hexdigest()


if __name__ == "__main__":
    print(invariant_digest())
