"""Print one SHA-256 over the bits of every invariant the library reports.

Two commits that print the same digest return the same bits from each call
below, and raise the same error types.  The digest covers the `float.hex` of
every field (real and imaginary parts apart) of:

- `triple_invariants` (singled 1..4), `aggregate_invariants`, `i4`,
  `i3_conditional` (bits 0 and 1), `t_p_invariants`, `pair_det_sum` (all 12
  ordered pairs), `font_counts` (qubits 1..4), `classify(...).signature`
  (no search) and `d2`, `d3` and `d4` (every valid choice of bits) of each
  four-qubit state;
- `three_qubit_report`, `n_pair_sq` (every pair) and `three_way_invariant` of
  each three-qubit state;
- `i2_pair` of each two-qubit state;
- `family_expected` at fixed grid points of the sweep families.

The states are fixed Haar states with n = 2, 3 and 4 at scales 1, 3.7, 1e±30,
1e±40, 1e±100 and 1e±200, and every catalog state (families at one fixed
complex point).  Where a call raises, its error type enters the digest.

    PYTHONPATH=src python3 tests/invariant_digest.py

Point PYTHONPATH at another checkout's `src` to digest that commit.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
from itertools import permutations, product

import numpy as np

from helpers import record
from negfonts import (
    CATALOG,
    aggregate_invariants,
    catalog_names,
    catalog_state,
    classify,
    d2,
    d3,
    d4,
    family_expected,
    font_counts,
    i2_pair,
    i3_conditional,
    i4,
    make_state,
    n_pair_sq,
    pair_det_sum,
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


def _calls(state):
    """(label, thunk) for every call this digest covers on `state`."""
    if state.n_qubits == 4:
        yield from ((f"triple{q}", lambda q=q: triple_invariants(state, q)) for q in (1, 2, 3, 4))
        yield "aggregate", lambda: aggregate_invariants(state)
        yield "i4", lambda: i4(state)
        yield from ((f"i3_{b}", lambda b=b: i3_conditional(state, b)) for b in (0, 1))
        yield "t_p", lambda: t_p_invariants(state)
        yield from ((f"pair{pair}", lambda pair=pair: pair_det_sum(state, pair))
                    for pair in permutations((1, 2, 3, 4), 2))
        yield from ((f"counts{p}", lambda p=p: font_counts(state, p)) for p in (1, 2, 3, 4))
        yield "class", lambda: classify(state).signature
        for b, c in product((0, 1), repeat=2):
            yield f"d2{b}{c}", lambda b=b, c=c: d2(state, b, c)
            yield f"d4{b}{c}", lambda b=b, c=c: d4(state, b, c)
            for triple in ((1, 2, 3), (1, 2, 4)):
                yield (f"d3{triple}{b}{c}",
                       lambda triple=triple, b=b, c=c: d3(state, triple, b, c))
    elif state.n_qubits == 3:
        yield "report3", lambda: three_qubit_report(state)
        yield from ((f"n{pair}", lambda pair=pair: n_pair_sq(state, pair))
                    for pair in ((1, 2), (1, 3), (2, 3)))
        yield "i3", lambda: three_way_invariant(state)
    elif state.n_qubits == 2:
        yield "i2", lambda: i2_pair(state)


def _states():
    for n in (2, 3, 4):
        for trial in range(HAAR_STATES):
            base = random_state(n, (2020, n, trial))
            for scale in SCALES:
                yield f"haar{n}.{trial}x{scale!r}", make_state(n, base.amps * scale)
    for name in catalog_names():
        params = {p: 0.7 - 0.3j for p in CATALOG[name].params}
        yield name, catalog_state(name, params)


def invariant_digest() -> str:
    digest = hashlib.sha256()
    with np.errstate(all="ignore"):
        for name, state in _states():
            for label, thunk in _calls(state):
                record(digest, f"{name} {label}", thunk)
        for family in SWEEP_FAMILIES:
            names = CATALOG[family].params
            for point in product(FAMILY_GRID, repeat=len(names)):
                params = dict(zip(names, point))
                record(digest, f"{family} {point!r}", lambda: family_expected(family, params))
    return digest.hexdigest()


if __name__ == "__main__":
    print(invariant_digest())
