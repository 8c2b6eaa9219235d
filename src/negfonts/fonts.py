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

Seen as a 2 x 2^(n-1) matrix (rows: the bit of p, columns: the other qubits
in order), the amplitudes have one 2x2 minor per column pair c1 < c2, and the
canonical fonts of qubit p are exactly these minors: the font's two labels sit
in columns c1 and c2, and its order K is popcount(c1 ^ c2) + 1.  `_minors`
evaluates all of them in one gather, in `triu` column-pair order, and
`_font_minors` gathers qubit p's straight from the amplitudes; the font
counts, the global negativity and the classifier read them from there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import QubitOutOfRange, SpecMismatch, WrongArity, check_tolerance
from .states import PureState, _amplitude_scale, index_of_bits

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

    @functools.cached_property
    def _positions(self) -> tuple[int, int, int, int, int]:
        """(n, i, j, i', j'): the number of qubits the spec names and its
        amplitude positions.  Not a field, so equality, hashing and repr do
        not see it; a malformed spec raises `SpecMismatch` on every use."""
        n = len({*self.flip_set, *(q for q, _ in self.spectators)})
        return (n, *_font_indices(n, self))

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


@functools.cache
def enumerate_fonts(n: int, p: int, k: int | None = None) -> tuple[FontSpec, ...]:
    """All canonical fonts for transposed qubit p, optionally of one order K."""
    if not 1 <= p <= n:
        raise QubitOutOfRange(f"qubit {p} outside 1..{n}")
    if k is not None:
        if not 2 <= k <= n:
            raise QubitOutOfRange(f"font order {k} outside 2..{n}")
        # the cached specs of the full enumeration, so each is built once
        return tuple(spec for spec in enumerate_fonts(n, p) if spec.k == k)
    specs = []
    others = [q for q in range(1, n + 1) if q != p]
    for order in range(2, n + 1):
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


def _font_indices(n: int, spec: FontSpec) -> tuple[int, int, int, int]:
    """Amplitude positions (i, j, i', j') with det = a[i] a[j] - a[i'] a[j']."""
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
    return i, j, i ^ pbit, j ^ pbit


def font_det(state: PureState, spec: FontSpec) -> complex:
    """Determinant of the font's 2x2 amplitude block.

    The products are taken on Python complex numbers, which round as numpy's
    complex128 scalars do.
    """
    n, i, j, i_flip, j_flip = spec._positions
    if n != state.n_qubits:
        raise SpecMismatch(f"spec {spec} covers {n} qubits, the state has {state.n_qubits}")
    a = state.amps
    return a.item(i) * a.item(j) - a.item(i_flip) * a.item(j_flip)


@functools.cache
def _column_pairs(cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Factor positions and coherence order of every minor of a 2 x cols matrix.

    Minor (c1, c2) of m is m[0,c1] m[1,c2] - m[0,c2] m[1,c1]; the first array
    holds its four factors as positions in m flattened, one column per pair.
    """
    c1, c2 = np.triu_indices(cols, k=1)
    # flips among the non-transposed qubits, plus the transposed one
    orders = np.array([bin(int(a) ^ int(b)).count("1") + 1 for a, b in zip(c1, c2)])
    factors = np.stack([c1, c2 + cols, c2, c1 + cols])
    factors.setflags(write=False)
    orders.setflags(write=False)
    return factors, orders


def _minors(amps: np.ndarray) -> np.ndarray:
    """Signed 2x2 minors of each amplitude vector on the last axis.

    (..., 2^n) -> (..., C(2^(n-1), 2)): the vector is read as a 2 x 2^(n-1)
    matrix whose rows are its leading bit, so the minors are the canonical
    fonts of the qubit in front, in `triu` pair order.
    """
    f = amps[..., _column_pairs(amps.shape[-1] // 2)[0]]
    return f[..., 0, :] * f[..., 1, :] - f[..., 2, :] * f[..., 3, :]


def _det_moduli(amps: np.ndarray) -> np.ndarray:
    """|det| of every canonical font for the qubit of the leading bit."""
    return np.abs(_minors(amps))


def _det_orders(n: int) -> np.ndarray:
    """Font order K of each of the n-qubit minors, in `_minors` order."""
    return _column_pairs(1 << (n - 1))[1]


@functools.cache
def _qubit_tables(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, factors): the positions in the flat n-qubit amplitudes of the
    vector with qubit p moved to the leading bit, the others keeping their
    order, and of the factors that `_minors` reads from that vector."""
    order = np.moveaxis(np.arange(1 << n).reshape((2,) * n), p - 1, 0).reshape(-1)
    factors = order[_column_pairs(1 << (n - 1))[0]]
    order.setflags(write=False)
    factors.setflags(write=False)
    return order, factors


def _font_minors(state: PureState, p: int) -> np.ndarray:
    """`_minors` of the amplitudes with qubit p in front, in one gather: the
    canonical font dets of qubit p."""
    f = state.amps[_qubit_tables(state.n_qubits, p)[1]]
    return f[0] * f[1] - f[2] * f[3]


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

    The count depends on the state's direction only.  The amplitudes are read
    as given where 1e-100 < norm < 1e100, so that the dets neither overflow
    nor underflow, and a positive threshold stays above 1e-300; elsewhere the
    test runs on the amplitudes divided by `_amplitude_scale`.
    """
    check_tolerance(tol)
    n = state.n_qubits
    enumerate_fonts(n, p, k)                # cached; checks p and k
    norm = state.norm
    if not 1e-100 < norm < 1e100 or (tol and tol * norm ** 2 < 1e-300):
        state = PureState(n, state.amps / _amplitude_scale(state.amps))
        norm = state.norm
    threshold = tol * norm ** 2
    moduli = np.abs(_font_minors(state, p))
    return int(np.count_nonzero(moduli[_det_orders(n) == k] > threshold))


def font_counts(state: PureState, p: int, tol: float = DEFAULT_TOL) -> dict[int, int]:
    """Nonzero-font counts keyed by order K = 2..n."""
    return {k: count_nonzero_fonts(state, p, k, tol)
            for k in range(2, state.n_qubits + 1)}


def all_font_dets(state: PureState, p: int) -> list[tuple[FontSpec, complex]]:
    """Every canonical font for qubit p with its determinant."""
    return [(spec, font_det(state, spec)) for spec in enumerate_fonts(state.n_qubits, p)]
