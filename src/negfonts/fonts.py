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
in columns c1 and c2, and its order K is popcount(c1 ^ c2) + 1.  Only
`_minor_factors` says which four amplitudes form a minor.  A `FontSpec` reads
its four through it (its pattern and spectator bits give c1, the rest of its
flip set c1 ^ c2); `_minors` gathers all of qubit p's, for one vector or a
batch; and the invariants read theirs through fixed readers built on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import SpecMismatch, check_arity, check_index, check_tolerance
from .states import MAX_QUBITS, MIN_QUBITS, PureState, _amplitude_scale, index_of_bits

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


def enumerate_fonts(n: int, p: int, k: int | None = None) -> tuple[FontSpec, ...]:
    """All canonical fonts for transposed qubit p, optionally of one order K."""
    # checked before the cache, where 3.0 and True would find the entries of 3 and 1
    check_index(n, MIN_QUBITS, MAX_QUBITS, "n_qubits")
    check_index(p, 1, n, "qubit")
    if k is not None:
        check_index(k, 2, n, "font order")
    return _enumerate_fonts(n, p, k)


@functools.cache
def _enumerate_fonts(n: int, p: int, k: int | None) -> tuple[FontSpec, ...]:
    if k is not None:
        # the cached specs of the full enumeration, so each is built once
        return tuple(spec for spec in _enumerate_fonts(n, p, None) if spec.k == k)
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
    """Amplitude positions (i, j, i', j') with det = a[i] a[j] - a[i'] a[j']:
    the factors of qubit p's minor (c, c ^ flips), c the column of the pattern
    and spectator bits and flips that of the rest of the flip set."""
    p, labels = spec.p, (*spec.flip_set, *(q for q, _ in spec.spectators))
    # before the sort and the set test: 3.0 == 3, and "3" does not sort
    for q in (p, *labels):
        check_index(q, 1, n, "a font's qubit", SpecMismatch)
    if sorted(labels) != list(range(1, n + 1)) or p not in spec.flip_set:
        raise SpecMismatch(f"spec {spec} does not name each of the qubits 1..{n} once")
    if len(spec.pattern) != spec.k - 1:
        raise SpecMismatch("row pattern must cover the flip set minus the transposed qubit")
    bits = dict([*zip([q for q in spec.flip_set if q != p], spec.pattern), *spec.spectators])
    others = [q for q in range(1, n + 1) if q != p]
    c = index_of_bits([bits[q] for q in others])    # checks every bit
    flips = index_of_bits([int(q in spec.flip_set) for q in others])
    i, j, j_flip, i_flip = _qubit_tables(n, p)[0][
        _minor_factors(1 << (n - 1), c, c ^ flips)].tolist()
    return i, j, i_flip, j_flip


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


def _minor_factors(cols: int, c1, c2) -> np.ndarray:
    """Positions of the factors of minor (c1, c2) of a 2 x cols matrix m,
    m flattened: the minor is m[0,c1] m[1,c2] - m[0,c2] m[1,c1].  c1 and c2
    may be arrays; the four factors stack on the first axis."""
    return np.stack([c1, c2 + cols, c2, c1 + cols])


@functools.cache
def _qubit_tables(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, factors, orders) for the canonical fonts of qubit p.

    `order` holds the positions in the flat n-qubit amplitudes of the vector
    with qubit p moved to the leading bit, the others keeping their order.
    Read as a 2 x 2^(n-1) matrix, that vector has one minor per column pair
    c1 < c2, in `triu` order: `factors` holds the flat positions of their
    factors, and `orders` their font orders K.
    """
    cols = 1 << (n - 1)
    order = np.moveaxis(np.arange(1 << n).reshape((2,) * n), p - 1, 0).reshape(-1)
    c1, c2 = np.triu_indices(cols, k=1)
    factors = order[_minor_factors(cols, c1, c2)]
    # flips among the non-transposed qubits, plus the transposed one
    orders = np.array([bin(int(a) ^ int(b)).count("1") + 1 for a, b in zip(c1, c2)])
    for table in (order, factors, orders):
        table.setflags(write=False)
    return order, factors, orders


def _minors(amps: np.ndarray, p: int = 1) -> np.ndarray:
    """Signed canonical font dets of qubit p for each amplitude vector on the
    last axis: (..., 2^n) -> (..., C(2^(n-1), 2)), in `_qubit_tables` order."""
    factors = _qubit_tables(amps.shape[-1].bit_length() - 1, p)[1]
    # the same gather; a single vector skips numpy's slower `...` index path
    f = amps[factors] if amps.ndim == 1 else amps[..., factors]
    return f[..., 0, :] * f[..., 1, :] - f[..., 2, :] * f[..., 3, :]


def _det_orders(n: int) -> np.ndarray:
    """Font order K of each of the n-qubit minors, in `_minors` order."""
    return _qubit_tables(n, 1)[2]


@functools.cache
def _order_mask(n: int, k: int) -> np.ndarray:
    """Which of the n-qubit minors, in `_minors` order, have font order K."""
    mask = _det_orders(n) == k
    mask.setflags(write=False)
    return mask


def d2(state: PureState, i3: int, i4: int) -> complex:
    """Two-way det for the pair (1,2) with spectators 3 and 4 fixed at (i3, i4)."""
    check_arity(state, 4, "d2")
    return font_det(state, FontSpec(1, (1, 2), (0,), ((3, i3), (4, i4))))


def d3(state: PureState, triple: tuple[int, int, int], i2: int, spectator_bit: int) -> complex:
    """Three-way det with row pattern (0, i2, 0) on the triple.

    `triple` is (1,2,3) (spectator qubit 4) or (1,2,4) (spectator qubit 3).
    """
    check_arity(state, 4, "d3")
    triple = tuple(triple)
    if triple not in ((1, 2, 3), (1, 2, 4)):
        raise SpecMismatch(f"triple must be (1,2,3) or (1,2,4), got {triple}")
    spectator = 4 if triple == (1, 2, 3) else 3
    return font_det(state, FontSpec(1, triple, (i2, 0), ((spectator, spectator_bit),)))


def d4(state: PureState, i3: int, i4: int) -> complex:
    """Four-way det with row pattern (0, 0, i3, i4); the four are independent."""
    check_arity(state, 4, "d4")
    return font_det(state, FontSpec(1, (1, 2, 3, 4), (0, i3, i4), ()))


# by degree d, the norms 10^(-200/d)..10^(200/d) at which degree-d values stay in range
_NORM_WINDOW = {d: (10.0 ** (-200 / d), 10.0 ** (200 / d)) for d in (2, 4)}


def _zero_test(state: PureState, tol: float, degree: int) -> tuple[PureState, float]:
    """The state a degree-d zero test reads, and its threshold tol * ||amps||^d.

    The amplitudes are read as given inside the `_NORM_WINDOW` of d, while a
    positive threshold stays above 1e-300; elsewhere they are divided by
    `_amplitude_scale` first.  So the test depends on the direction only."""
    norm = state.norm
    low, high = _NORM_WINDOW[degree]
    if not low < norm < high or (tol and tol * norm ** degree < 1e-300):
        state = PureState(state.n_qubits, state.amps / _amplitude_scale(state.amps))
        norm = state.norm
    return state, tol * norm ** degree


def count_nonzero_fonts(state: PureState, p: int, k: int, tol: float = DEFAULT_TOL) -> int:
    """Canonical order-K fonts whose |det| exceeds tol * ||amps||^2 (`_zero_test`)."""
    check_tolerance(tol)
    n = state.n_qubits
    enumerate_fonts(n, p, k)                # cached; checks p and k
    state, threshold = _zero_test(state, tol, 2)
    moduli = np.abs(_minors(state.amps, p))
    return int(np.count_nonzero(moduli[_order_mask(n, k)] > threshold))


def font_counts(state: PureState, p: int, tol: float = DEFAULT_TOL) -> dict[int, int]:
    """Nonzero-font counts keyed by order K = 2..n."""
    return {k: count_nonzero_fonts(state, p, k, tol)
            for k in range(2, state.n_qubits + 1)}


def all_font_dets(state: PureState, p: int) -> list[tuple[FontSpec, complex]]:
    """Every canonical font for qubit p with its determinant."""
    return [(spec, font_det(state, spec)) for spec in enumerate_fonts(state.n_qubits, p)]
