"""Enumeration and evaluation of K-way negativity fonts.

A font is a 2x2 block of amplitudes attached to a transposed qubit p.  Pick a
flip set S1 containing p (|S1| = K), a fixed bit assignment t on the spectator
qubits S2, and a row pattern s on S1 minus {p}.  The block pairs the basis
label (p=0, s, t) with its S1-complement (p=1, s-bar, t):

    det = a(p=0, s, t) * a(p=1, s-bar, t) - a(p=1, s, t) * a(p=0, s-bar, t)

A nonzero determinant certifies a negative eigenvalue of the K-way partial
transpose over p.  Flipping the whole pattern s negates the determinant, so
enumeration keeps one canonical representative per pair: the lowest qubit of
S1 minus {p} carries bit 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import QubitOutOfRange, SpecMismatch, WrongArity
from .states import PureState, index_of_bits

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class FontSpec:
    """One K-way font: transposed qubit, flip set, row pattern, spectators."""

    p: int
    flip_set: tuple[int, ...]            # sorted, contains p
    pattern: tuple[int, ...]             # bits for flip_set minus {p}, qubit order
    spectators: tuple[tuple[int, int], ...]  # sorted (qubit, bit) pairs

    @property
    def k(self) -> int:
        return len(self.flip_set)

    @property
    def canonical(self) -> bool:
        return not self.pattern or self.pattern[0] == 0

    def flipped(self) -> "FontSpec":
        """Same font with the complementary row pattern (negated determinant)."""
        return FontSpec(self.p, self.flip_set,
                        tuple(1 - b for b in self.pattern), self.spectators)

    def label(self) -> str:
        sup_bits = []
        others = iter(self.pattern)
        for q in self.flip_set:
            sup_bits.append("0" if q == self.p else str(next(others)))
        sub = ",".join(f"{q}={b}" for q, b in self.spectators)
        body = f"D[{''.join(sup_bits)} on {','.join(map(str, self.flip_set))}"
        return body + (f" | {sub}]" if sub else "]")


def enumerate_fonts(n: int, p: int, k: int | None = None) -> tuple[FontSpec, ...]:
    """All canonical fonts for transposed qubit p, optionally of one order K."""
    if not 1 <= p <= n:
        raise QubitOutOfRange(f"qubit {p} outside 1..{n}")
    orders = (k,) if k is not None else tuple(range(2, n + 1))
    specs = []
    for order in orders:
        if not 2 <= order <= n:
            raise QubitOutOfRange(f"font order {order} outside 2..{n}")
        others = [q for q in range(1, n + 1) if q != p]
        for rest in combinations(others, order - 1):
            flip_set = tuple(sorted((p,) + rest))
            spect = [q for q in range(1, n + 1) if q not in flip_set]
            # first qubit of rest is pinned to 0 by the canonical rule
            for tail in product((0, 1), repeat=order - 2):
                pattern = (0,) + tail
                for bits in product((0, 1), repeat=len(spect)):
                    specs.append(FontSpec(p, flip_set, pattern,
                                          tuple(zip(spect, bits))))
    return tuple(specs)


def font_det(state: PureState, spec: FontSpec) -> complex:
    """Determinant of the font's 2x2 amplitude block."""
    n = state.n_qubits
    qubits = set(spec.flip_set) | {q for q, _ in spec.spectators}
    if qubits != set(range(1, n + 1)) or spec.p not in spec.flip_set:
        raise SpecMismatch(f"spec {spec} does not cover qubits 1..{n}")
    if len(spec.pattern) != spec.k - 1:
        raise SpecMismatch("row pattern must cover the flip set minus the transposed qubit")
    bits_i = [0] * n
    for q, b in spec.spectators:
        bits_i[q - 1] = b
    others = iter(spec.pattern)
    for q in spec.flip_set:
        bits_i[q - 1] = 0 if q == spec.p else next(others)
    bits_j = list(bits_i)
    for q in spec.flip_set:
        bits_j[q - 1] ^= 1
    i = index_of_bits(bits_i)
    j = index_of_bits(bits_j)
    pbit = 1 << (n - spec.p)
    a = state.amps
    return complex(a[i] * a[j] - a[i ^ pbit] * a[j ^ pbit])


def _require_four(state: PureState, op: str) -> None:
    if state.n_qubits != 4:
        raise WrongArity(f"{op} requires a 4-qubit state, got n={state.n_qubits}")


def d2(state: PureState, i3: int, i4: int) -> complex:
    """Two-way det for the pair (1,2) with spectators 3 and 4 fixed at (i3, i4)."""
    _require_four(state, "d2")
    return font_det(state, FontSpec(1, (1, 2), (0,), ((3, i3), (4, i4))))


def d3(state: PureState, triple: tuple[int, int, int], i2: int, spectator_bit: int) -> complex:
    """Three-way det with row pattern (0, i2, 0) on the triple.

    `triple` is (1,2,3) (spectator qubit 4) or (1,2,4) (spectator qubit 3).
    """
    _require_four(state, "d3")
    triple = tuple(triple)
    if triple not in ((1, 2, 3), (1, 2, 4)):
        raise SpecMismatch(f"triple must be (1,2,3) or (1,2,4), got {triple}")
    spectator = 4 if triple == (1, 2, 3) else 3
    return font_det(state, FontSpec(1, triple, (i2, 0), ((spectator, spectator_bit),)))


def d4(state: PureState, i3: int, i4: int) -> complex:
    """Four-way det with row pattern (0, 0, i3, i4); the four are independent."""
    _require_four(state, "d4")
    return font_det(state, FontSpec(1, (1, 2, 3, 4), (0, i3, i4), ()))


def count_nonzero_fonts(state: PureState, p: int, k: int, tol: float = DEFAULT_TOL) -> int:
    """Canonical order-K fonts whose |det| exceeds tol * ||amps||^2.

    Unless the state is already normalized, the test runs on the amplitudes
    divided by their largest modulus, so dets neither overflow nor underflow
    at any finite scale.
    """
    if not state.normalized:
        state = PureState(state.n_qubits, state.amps / np.max(np.abs(state.amps)))
    threshold = tol * state.norm ** 2
    return sum(1 for spec in enumerate_fonts(state.n_qubits, p, k)
               if abs(font_det(state, spec)) > threshold)


def font_counts(state: PureState, p: int, tol: float = DEFAULT_TOL) -> dict[int, int]:
    """Nonzero-font counts keyed by order K = 2..n."""
    return {k: count_nonzero_fonts(state, p, k, tol)
            for k in range(2, state.n_qubits + 1)}


def all_font_dets(state: PureState, p: int) -> list[tuple[FontSpec, complex]]:
    """Every canonical font for qubit p with its determinant."""
    return [(spec, font_det(state, spec)) for spec in enumerate_fonts(state.n_qubits, p)]
