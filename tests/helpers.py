"""Shared test utilities: independent oracles, random-state factories, and
the bit-level harness of the digest scripts (`hex_words`, `record`).

The oracles here deliberately avoid the code paths they are used to check:
negativity is cross-checked through reduced-density determinants, and the
degree-24 discriminant through the resolvent cubic of the quartic.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from negfonts import PureState, apply_local_unitary, make_state, random_special_unitary


def hex_words(value):
    """The hex of every float in `value` (real and imaginary parts apart),
    walking arrays, dataclasses, dicts and sequences; a bool reads True or False."""
    if isinstance(value, (bool, np.bool_)):
        yield repr(bool(value))
    elif isinstance(value, complex):
        yield value.real.hex()
        yield value.imag.hex()
    elif isinstance(value, (float, int)):
        yield float(value).hex()
    elif isinstance(value, np.ndarray):
        yield repr(value.shape)
        yield from hex_words(value.ravel().tolist())
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield field.name
            yield from hex_words(getattr(value, field.name))
    elif isinstance(value, dict):
        for key in sorted(value):
            yield repr(key)
            yield from hex_words(value[key])
    else:
        for item in value:
            yield from hex_words(item)


def record(digest, label: str, thunk) -> None:
    """Feed one line to `digest`: the label, then the words of thunk()'s value,
    or the type of the error it raises."""
    try:
        words = list(hex_words(thunk()))
    except Exception as err:        # the error type is part of the digest
        words = [type(err).__name__]
    digest.update(" ".join([label, *words]).encode())
    digest.update(b"\n")


def random_ket(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_product4(rng, split: str) -> PureState:
    """Random 4-qubit product state: split "triple" = (123)x(4), "pair" = (12)x(34)."""
    if split == "triple":
        vec = np.kron(random_ket(rng, 8), random_ket(rng, 2))
    elif split == "pair":
        vec = np.kron(random_ket(rng, 4), random_ket(rng, 4))
    else:
        raise ValueError(split)
    return make_state(4, vec)


def random_biseparable3(rng, position: int) -> PureState:
    """Random 3-qubit state with a random pair entangled and one factored qubit.

    `position` is the factored qubit (1, 2, or 3); the order of tensor factors
    is arranged so qubit labels match.
    """
    pair = random_ket(rng, 4)
    single = random_ket(rng, 2)
    if position == 3:
        vec = np.kron(pair, single)
    elif position == 1:
        vec = np.kron(single, pair)
    else:  # qubit 2 factored: build (q1) x (q2) x (q3) with q1,q3 entangled
        t = pair.reshape(2, 2)
        vec = np.einsum("ac,b->abc", t, single).reshape(-1)
    return make_state(3, vec)


def random_w_class3(rng) -> PureState:
    """Random member of the 3-qubit family spanned by |000>,|001>,|010>,|100>."""
    amps = np.zeros(8, complex)
    coeffs = random_ket(rng, 4)
    for idx, val in zip((0, 1, 2, 4), coeffs):
        amps[idx] = val
    return make_state(3, amps)


def haar_u2(rng) -> np.ndarray:
    """Haar-random U(2): random SU(2) times a random phase."""
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    r = np.hypot(abs(a), abs(b))
    a, b = a / r, b / r
    su = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
    return np.exp(1j * rng.uniform(0, 2 * np.pi)) * su


def scramble_special(state: PureState, seed) -> PureState:
    """Apply an independent random SU(2) to every qubit."""
    out = state
    for q in range(1, state.n_qubits + 1):
        out = apply_local_unitary(out, random_special_unitary((seed, q), q))
    return out


def reduced_density(state: PureState, qubit: int) -> np.ndarray:
    """Single-qubit reduced density matrix by direct partial trace."""
    n = state.n_qubits
    psi = state.tensor()
    psi = np.moveaxis(psi, qubit - 1, 0).reshape(2, -1)
    return psi @ psi.conj().T


def schmidt_negativity(state: PureState, qubit: int) -> float:
    """Independent oracle: global negativity of a pure state is 2*sqrt(det rho_p)."""
    det = np.linalg.det(reduced_density(state, qubit))
    return float(2.0 * np.sqrt(max(det.real, 0.0)))


def numpy_dets3(amps):
    """The pair dets, keyed by pair, and the canonical 3-way dets (g000, g001)
    of a three-qubit state, on numpy complex128 scalars: the reference for the
    Python-complex kernels of `negfonts.invariants`."""
    t = amps.reshape(2, 2, 2)
    pair_dets = {}
    for pair, axes in {(1, 2): (0, 1, 2), (1, 3): (0, 2, 1), (2, 3): (1, 2, 0)}.items():
        v = t.transpose(axes)
        pair_dets[pair] = tuple(v[0, 0, b] * v[1, 1, b] - v[0, 1, b] * v[1, 0, b] for b in (0, 1))
    g000 = t[0, 0, 0] * t[1, 1, 1] - t[1, 0, 0] * t[0, 1, 1]
    g001 = t[0, 0, 1] * t[1, 1, 0] - t[1, 0, 1] * t[0, 1, 0]
    return pair_dets, g000, g001


def quartic_discriminant_resolvent(a, b, c, d, e) -> complex:
    """Discriminant of a*y^4 + b*y^3 + c*y^2 + d*y + e via the resolvent cubic."""
    bb, cc, dd, ee = b / a, c / a, d / a, e / a
    p2 = -cc
    p1 = bb * dd - 4.0 * ee
    p0 = -(bb * bb * ee - 4.0 * cc * ee + dd * dd)
    disc3 = (18.0 * p2 * p1 * p0 - 4.0 * p2 ** 3 * p0 + p2 ** 2 * p1 ** 2
             - 4.0 * p1 ** 3 - 27.0 * p0 ** 2)
    return a ** 6 * disc3


def quartic_discriminant_roots(a, b, c, d, e) -> complex:
    """Same discriminant from the root product; used to self-check the oracle."""
    roots = np.roots([a, b, c, d, e])
    prod = 1.0 + 0j
    for i in range(4):
        for j in range(i + 1, 4):
            prod *= (roots[i] - roots[j]) ** 2
    return a ** 6 * prod
