"""Print one SHA-256 over the bits of every transpose, negativity and font.

Two commits that print the same digest return the same bits from each call
below, and raise the same error types.  The digest covers the `float.hex` of
every entry (real and imaginary parts apart) of, for each qubit p:

- `global_pt` and `kway_pt` (every K) of the state's density matrix;
- `negativity` and `negative_eigenvalues`, global and for every K;
- `decomposition_residual`, `font_counts` and `all_font_dets`.

The states are fixed Haar states and scrambled GHZ- and W-type states (an
independent random SU(2) on every qubit) with n = 2..6, at scales 1, 3.7 and
1e±30.  Where a call raises, its error type enters the digest.

    PYTHONPATH=src python3 tests/transpose_digest.py

Point PYTHONPATH at another checkout's `src` to digest that commit.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from helpers import record, scramble_special
from negfonts import (
    all_font_dets,
    decomposition_residual,
    density_from_pure,
    font_counts,
    global_pt,
    kway_pt,
    make_state,
    negative_eigenvalues,
    negativity,
    normalize,
    random_state,
)

HAAR_STATES = 3
SCRAMBLES = 2
SCALES = (1.0, 3.7, 1e30, 1e-30)


def _ghz(n: int):
    amps = np.zeros(1 << n, complex)
    amps[0] = amps[-1] = 1.0
    return normalize(make_state(n, amps))


def _w(n: int):
    amps = np.zeros(1 << n, complex)
    amps[[1 << q for q in range(n)]] = 1.0
    return normalize(make_state(n, amps))


def _states():
    for n in range(2, 7):
        bases = [(f"haar{n}.{trial}", random_state(n, (2022, n, trial)))
                 for trial in range(HAAR_STATES)]
        for tag, (kind, build) in enumerate((("ghz", _ghz), ("w", _w))):
            bases += [(f"{kind}{n}.{trial}", scramble_special(build(n), (2022, tag, n, trial)))
                      for trial in range(SCRAMBLES)]
        for name, base in bases:
            for scale in SCALES:
                yield f"{name}x{scale!r}", make_state(n, base.amps * scale)


def _calls(state):
    """(label, thunk) for every call this digest covers on `state`."""
    n = state.n_qubits
    rho = density_from_pure(state)
    kinds = ("global", *range(2, n + 1))
    for p in range(1, n + 1):
        yield f"global_pt{p}", lambda p=p: global_pt(rho, p, n)
        for k in range(2, n + 1):
            yield f"kway_pt{p},{k}", lambda p=p, k=k: kway_pt(rho, p, k, n)
        for kind in kinds:
            yield f"negativity{p},{kind}", lambda p=p, kind=kind: negativity(state, p, kind)
            yield f"negative_eigenvalues{p},{kind}", \
                lambda p=p, kind=kind: negative_eigenvalues(state, p, kind)
        yield f"residual{p}", lambda p=p: decomposition_residual(state, p)
        yield f"font_counts{p}", lambda p=p: font_counts(state, p)
        yield f"font_dets{p}", lambda p=p: all_font_dets(state, p)


def transpose_digest() -> str:
    digest = hashlib.sha256()
    with np.errstate(all="ignore"):
        for name, state in _states():
            for label, thunk in _calls(state):
                record(digest, f"{name} {label}", thunk)
    return digest.hexdigest()


if __name__ == "__main__":
    print(transpose_digest())
