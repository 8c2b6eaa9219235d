"""Polynomial local-unitary invariants for 2-, 3-, and 4-qubit pure states.

All quantities are homogeneous polynomials (or moduli of polynomials) in the
amplitudes; `degree` below refers to that homogeneity degree.  Zero tests are
therefore scaled by ||amps||**degree rather than applied raw.

Every det read here is a font of qubit 1 whose flip set holds qubit 2: of
the amplitudes as a 2 x 2^(n-1) matrix, M[c][x] = minor (c, c ^ (2^(n-2) | x))
(`fonts._minor_factors`), c the bits of qubits 3..n and x the flips on them.
Two qubits read i2 = M[0][0]; three read the pair dets M[c][0] and the 3-way
dets M[c][1], the pairs (1,3) and (2,3) through the view with their
spectator moved last; four build the transposition quartic from all 16.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, fields
from itertools import combinations
from operator import itemgetter

import numpy as np

from .errors import QubitOutOfRange, check_arity, check_index, check_tolerance
from .fonts import DEFAULT_TOL, FontSpec, _minor_factors, _zero_test, font_det
from .ptrans import negativity
from .states import PureState, _power, inverse_permutation, permute_qubits

PAIRS4 = tuple(combinations((1, 2, 3, 4), 2))

# The kernels below read the amplitudes once, as Python complex numbers
# (`amps.tolist()`), and give the bits numpy's complex128 and float64 scalars
# gave: products, sums and differences round alike, and the helpers write out
# numpy's forms where Python's differ (powers, moduli, division by a real).


def _modulus(value) -> float:
    """|value| as numpy's abs gives it: inf where abs() of a Python complex with
    finite parts raises OverflowError.  CPython 3.11 also raises it for a NaN
    part when a C library call before it left errno at ERANGE; that is NaN."""
    try:
        return abs(value)
    except OverflowError:
        return math.nan if cmath.isnan(value) else math.inf


def _square(z: complex) -> complex:
    """z ** 2 as numpy's complex128 computes it: z * z, but +0j for any zero."""
    return z * z if z else 0j


def _cube(z: complex) -> complex:
    """z ** 3 as numpy's complex128 computes it: z * (z * z), but +0j for any zero."""
    return z * (z * z) if z else 0j


def _over(z: complex, d: float) -> complex:
    """z / d as numpy's complex128 computes it: the divisor d + 0j leaves
    zero cross terms, and the sum is scaled by 1 / d."""
    r = 1.0 / d
    return complex((z.real + z.imag * 0.0) * r, (z.imag - z.real * 0.0) * r)


def _move_last(state: PureState, q: int) -> PureState:
    """Relabel so that qubit q, checked to be one of 1..n, comes last and the
    others keep their order."""
    n = state.n_qubits
    if q == n:
        return state
    return permute_qubits(state, _last_permutation(n, q))


@functools.cache
def _last_permutation(n: int, q: int) -> tuple[int, ...]:
    """The permutation of 1..n that moves qubit q last, the others keeping their order."""
    order = [x for x in range(1, n + 1) if x != q] + [q]    # old qubit at each position
    return inverse_permutation(order)


def _font_reader(n: int, fonts, view=None) -> itemgetter:
    """Reads the four factors of each font M[c][x], (c, x) in `fonts`, from
    the flat n-qubit amplitudes, or from their `view`: the amplitudes at the
    positions it lists."""
    cols = 1 << (n - 1)
    c, x = np.array(fonts).T
    positions = _minor_factors(cols, c, c ^ (cols >> 1 | x)).T
    if view is not None:
        positions = view[positions]
    return itemgetter(*positions.ravel().tolist())


def _dets(u, read: itemgetter) -> list[complex]:
    """The dets of the fonts that `read` reads from the flat amplitudes u."""
    f = iter(read(u))
    return [a * b - c * d for a, b, c, d in zip(f, f, f, f)]


# ---------------------------------------------------------------------------
# two qubits

_I2 = _font_reader(2, [(0, 0)])


def i2_pair(state: PureState) -> float:
    """|a00*a11 - a01*a10|: the single two-qubit correlation invariant."""
    check_arity(state, 2, "i2_pair")
    (det,) = _dets(state.amps.tolist(), _I2)
    return _modulus(det)


# ---------------------------------------------------------------------------
# three qubits

_PAIRS3 = ((1, 2), (1, 3), (2, 3))

# the fonts D0, D1, g000, g001 = M[0][0], M[1][0], M[0][1], M[1][1] of each
# pair, in either order, read from the view of the flat amplitudes with its
# spectator moved last, the pair keeping its order
_PAIR_FONTS3 = {key: _font_reader(3, ((0, 0), (1, 0), (0, 1), (1, 1)),
                                  np.arange(8).reshape(2, 2, 2).transpose(
                                      [q - 1 for q in (*pair, *{1, 2, 3} - {*pair})]).ravel())
                for pair in _PAIRS3 for key in (pair, pair[::-1])}


def _pair_entry(table: dict, pair, n: int, op: str):
    """table[pair] for two distinct qubits of 1..n, keyed in either order."""
    try:
        p, q = key = tuple(pair)
        entry = table[key]
        check_index(p, 1, n, "qubit")   # 1.0 and True find the entries of 1
        check_index(q, 1, n, "qubit")
    except (KeyError, TypeError, ValueError, QubitOutOfRange):
        raise QubitOutOfRange(f"{op} needs two distinct qubits of 1..{n}, got {pair!r}") from None
    return entry


def _three_way(d0, d1, g) -> complex:
    """g^2 - 4 D0 D1 from the pair dets D0, D1 and g = g000 + g001."""
    return _square(g) - 4 * d0 * d1


def three_way_invariant(state: PureState) -> complex:
    """Degree-4 invariant detecting GHZ-type three-body correlations."""
    check_arity(state, 3, "three_way_invariant")
    d0, d1, g000, g001 = _dets(state.amps.tolist(), _PAIR_FONTS3[(1, 2)])
    return _three_way(d0, d1, g000 + g001)


def three_tangle(state: PureState) -> float:
    """Entanglement monotone 4 * |three-way invariant|."""
    return 4.0 * _modulus(three_way_invariant(state))


def n_pair_sq(state: PureState, pair: tuple[int, int]) -> float:
    """Squared residual-pair invariant for one qubit pair.

    For the pair (1,2): |D0|^2 + |D1|^2 + 2*|(g000+g001)/2|^2, where D_b are
    the pair dets with the spectator fixed at b; other pairs are reduced to
    this form by relabeling.
    """
    check_arity(state, 3, "n_pair_sq")
    read = _pair_entry(_PAIR_FONTS3, pair, 3, "n_pair_sq")
    d0, d1, g000, g001 = _dets(state.amps.tolist(), read)
    return _pair_sq(d0, d1, g000 + g001)


def _pair_sq(d0, d1, g) -> float:
    """|D0|^2 + |D1|^2 + 2*|g/2|^2 from one pair's dets and g = g000 + g001."""
    return (_power(_modulus(d0), 2) + _power(_modulus(d1), 2)
            + 2 * _power(_modulus(_over(g, 2)), 2))


@dataclass(frozen=True)
class ThreeQubitReport:
    """Every three-qubit invariant for one state."""

    pair_dets: dict            # pair -> (det at spectator 0, det at spectator 1)
    d3_canonical: tuple        # (g000, g001)
    n_pair_sq: dict            # pair -> squared pair invariant
    n_global_sq: float         # squared trace-norm negativity of qubit 1
    i3: complex
    tau3: float
    i3_is_zero: bool           # branch flag: w_sums are invariants only here
    w_sums: dict               # pair -> |D0| + |D1|
    i2_w: float                # W-type detector built from the w_sums


def three_qubit_report(state: PureState, tol: float = DEFAULT_TOL) -> ThreeQubitReport:
    check_arity(state, 3, "three_qubit_report")
    check_tolerance(tol)
    u = state.amps.tolist()
    dets = {pair: _dets(u, _PAIR_FONTS3[pair]) for pair in _PAIRS3}
    # pair -> (D0, D1, g000 + g001)
    terms = {pair: (d0, d1, g000 + g001) for pair, (d0, d1, g000, g001) in dets.items()}
    i3 = _three_way(*terms[(1, 2)])
    w_sums = {pair: _modulus(d0) + _modulus(d1) for pair, (d0, d1, _) in terms.items()}
    w12, w13, w23 = w_sums[(1, 2)], w_sums[(1, 3)], w_sums[(2, 3)]
    n_g = negativity(state, 1)
    work, threshold = _zero_test(state, tol, 4)     # i3 is of degree 4
    return ThreeQubitReport(
        pair_dets={pair: t[:2] for pair, t in terms.items()},
        d3_canonical=tuple(dets[(1, 2)][2:]),
        n_pair_sq={pair: _pair_sq(*t) for pair, t in terms.items()},
        n_global_sq=_power(n_g, 2),
        i3=i3,
        tau3=4.0 * _modulus(i3),
        i3_is_zero=bool(_modulus(i3 if work is state else three_way_invariant(work))
                        <= threshold),
        w_sums=w_sums,
        i2_w=3.0 * (w12 * w13 + w12 * w23 + w13 * w23),
    )


def n_global_sq_relation(state: PureState) -> tuple[float, float]:
    """(lhs, rhs) of: squared global negativity of qubit 1 equals
    4*(pair 1,2 invariant) + 4*(pair 1,3 invariant)."""
    check_arity(state, 3, "n_global_sq_relation")
    lhs = _power(negativity(state, 1), 2)
    rhs = 4.0 * n_pair_sq(state, (1, 2)) + 4.0 * n_pair_sq(state, (1, 3))
    return lhs, rhs


# ---------------------------------------------------------------------------
# four qubits


# all 16 fonts M[c][x], x-major, and the 4-way dets M[c][3] alone
_QUARTIC_FONTS = _font_reader(4, [(c, x) for x in range(4) for c in range(4)])
_FOUR_WAY_FONTS = _font_reader(4, [(c, 3) for c in range(4)])


def i4(state: PureState) -> complex:
    """Degree-2 invariant: alternating sum of the four 4-way dets."""
    check_arity(state, 4, "i4")
    d00, d01, d10, d11 = _dets(state.amps.tolist(), _FOUR_WAY_FONTS)
    return d00 + d11 - d10 - d01


def tau4(state: PureState) -> float:
    """Degree-2 monotone 4*|i4|; nonzero also on pair-product states."""
    return 4.0 * _modulus(i4(state))


def _quartic_coefficients(state: PureState) -> tuple[complex, ...]:
    """(i3_0, i3_1, T, P0, P1): the transposition quartic of a four-qubit state.

    Acting on qubit 4 with a one-parameter unitary turns the three-way
    invariant of the slice t[..., b] (qubit 4 fixed at b) into a quartic in
    the parameter; its binomially weighted coefficients are
    (i3_0, P0, T, P1, i3_1).  The outer ones are the slices' three-way
    invariants.  T and P_b combine the slices' pair (1,2) dets d[b] and
    canonical 3-way sums e[b] with the canonical 3-way sums f[b] of the slices
    t[:, :, b, :] (qubit 3 fixed at b) and the four 4-way dets.
    """
    m = _dets(state.amps.tolist(), _QUARTIC_FONTS)     # M[c][x] = m[4x + c]
    d = ((m[0], m[2]), (m[1], m[3]))                    # d[b][i] = M[2i + b][0]
    e = [m[8 + b] + m[10 + b] for b in (0, 1)]          # M[b][2] + M[2 + b][2]
    f = [m[4 + 2 * b] + m[5 + 2 * b] for b in (0, 1)]   # M[2b][1] + M[2b + 1][1]
    s4 = m[12] + m[13] + m[14] + m[15]
    t_val = (_over(_square(s4), 6.0)
             - (2.0 / 3.0) * f[0] * f[1]
             + (1.0 / 3.0) * e[0] * e[1]
             - (2.0 / 3.0) * (d[0][0] * d[1][1] + d[1][0] * d[0][1]))
    p0, p1 = (0.5 * e[b] * s4 - (d[b][1] * f[0] + d[b][0] * f[1]) for b in (0, 1))
    return _three_way(*d[0], e[0]), _three_way(*d[1], e[1]), t_val, p0, p1


def _quartic_invariants(i3_0: complex, i3_1: complex, t: complex,
                        p0: complex, p1: complex) -> tuple:
    """Coefficients and invariants of the quartic with weighted coefficients
    (i3_0, 4 P0, 6 T, 4 P1, i3_1): the fields of `TripleInvariants` after
    `singled`, in their order.

    The algebra runs on Python complex numbers and gives numpy complex128's
    bits: powers are the products numpy forms, moduli and squared moduli
    saturate to inf where Python would raise OverflowError."""
    val48 = 3 * _square(t) - 4 * p0 * p1 + i3_0 * i3_1
    # |i3_1 p1 t; p1 t p0; t p0 i3_0| by cofactors along the first row: LU
    # would divide by a subnormal pivot when the coefficients underflow
    val_j = (i3_1 * (t * i3_0 - p0 * p0) - p1 * (p1 * i3_0 - p0 * t)
             + t * (p1 * p0 - t * t))
    n_sq = (_power(_modulus(i3_0), 2) + _power(_modulus(i3_1), 2)
            + 6 * _power(_modulus(t), 2)
            + 4 * _power(_modulus(p0), 2) + 4 * _power(_modulus(p1), 2))
    return (i3_0, i3_1, t, p0, p1, val48, val_j, _cube(val48) - 27 * _square(val_j),
            n_sq, n_sq - 2 * _modulus(val48))


def i3_conditional(state: PureState, i4bit: int) -> complex:
    """Three-way invariant of the triple (1,2,3) with qubit 4 fixed at i4bit."""
    check_arity(state, 4, "i3_conditional")
    check_index(i4bit, 0, 1, "the bit of qubit 4")
    return _quartic_coefficients(state)[i4bit]


def t_p_invariants(state: PureState) -> tuple[complex, complex, complex]:
    """(T, P0, P1): the middle coefficients of the transposition quartic."""
    check_arity(state, 4, "t_p_invariants")
    return _quartic_coefficients(state)[2:]


def i48(state: PureState) -> complex:
    """Degree-8 invariant; nonzero exactly on states with four-body correlations."""
    return triple_invariants(state).i48


def j12(state: PureState) -> complex:
    """Degree-12 cubic invariant of the transposition quartic."""
    return triple_invariants(state).j12


def delta24(state: PureState) -> complex:
    """Degree-24 discriminant: i48**3 - 27 * j12**2."""
    return triple_invariants(state).delta24


def n_triple_sq(state: PureState, singled: int = 4) -> float:
    """Squared triple invariant for the three qubits other than `singled`."""
    return triple_invariants(state, singled).n_sq


@dataclass(frozen=True)
class TripleInvariants:
    """Invariant set built on the triple excluding `singled`."""

    singled: int
    i3_0: complex
    i3_1: complex
    t: complex
    p0: complex
    p1: complex
    i48: complex
    j12: complex
    delta24: complex
    n_sq: float
    dres: float                 # n_sq - 2*|i48|: residual three-way correlations


# the names of the values `_quartic_invariants` returns: the fields after singled
_QUARTIC_FIELDS = tuple(field.name for field in fields(TripleInvariants))[1:]


def triple_invariants(state: PureState, singled: int = 4) -> TripleInvariants:
    check_arity(state, 4, "triple_invariants")
    check_index(singled, 1, 4, "singled")
    coeffs = _quartic_coefficients(_move_last(state, singled))
    return TripleInvariants(singled, *_quartic_invariants(*coeffs))


def _pair_fonts(p: int, q: int) -> tuple:
    """The four 2-way fonts of the pair p < q, spectator bits 00, 01, 10, 11."""
    r, s = (x for x in (1, 2, 3, 4) if x not in (p, q))
    return tuple(FontSpec(p, (p, q), (0,), ((r, br), (s, bs)))
                 for br in (0, 1) for bs in (0, 1))


# the fonts of each pair, under the pair in either order
_PAIR_FONTS = {key: _pair_fonts(*pair) for pair in PAIRS4 for key in (pair, pair[::-1])}


def pair_det_sum(state: PureState, pair: tuple[int, int]) -> float:
    """Sum of |det| over the four 2-way fonts of one pair (both spectators swept)."""
    check_arity(state, 4, "pair_det_sum")
    total = 0.0
    for spec in _pair_entry(_PAIR_FONTS, pair, 4, "pair_det_sum"):
        total += _modulus(font_det(state, spec))
    return float(total)


def pair_det_sums(state: PureState) -> dict[tuple[int, int], float]:
    return {pair: pair_det_sum(state, pair) for pair in PAIRS4}


# i26_symmetric's four terms, one per singled-out qubit 1..4: the three pairs
# of the other qubits, then the three pairs through the singled-out one
_SYMMETRIC_TERMS = tuple((tuple(pair for pair in PAIRS4 if q not in pair),
                          tuple(pair for pair in PAIRS4 if q in pair)) for q in (1, 2, 3, 4))


def i26(state: PureState) -> float:
    """Degree-6 detector of W-type four-qubit entanglement.

    Triangular form: each of the three triples containing qubit 1 multiplies a
    shrinking set of pair sums of pairs through the excluded qubit.
    """
    check_arity(state, 4, "i26")
    s = pair_det_sums(state)
    return float(1.5 * (3.0 * s[(1, 2)] * s[(1, 3)] * (s[(1, 4)] + s[(2, 4)] + s[(3, 4)])
                        + 3.0 * s[(1, 2)] * s[(1, 4)] * (s[(2, 3)] + s[(3, 4)])
                        + 3.0 * s[(1, 3)] * s[(1, 4)] * s[(2, 4)]))


def i26_symmetric(state: PureState) -> float:
    """Permutation-symmetric variant of i26; agrees with it on symmetric states."""
    check_arity(state, 4, "i26_symmetric")
    s = pair_det_sums(state)
    total = 0.0
    for (ab, ac, bc), (ta, tb, tc) in _SYMMETRIC_TERMS:
        a, b, c = s[ab], s[ac], s[bc]
        total += (a * b + a * c + b * c) * (s[ta] + s[tb] + s[tc])
    return float(0.75 * total)


def tau48_from_i48(value: complex) -> float:
    """Monotone 4*sqrt(12*|i48|), normalized to 1 on maximal four-body correlation."""
    return 4.0 * math.sqrt(12.0 * _modulus(value))


@dataclass(frozen=True)
class FourQubitReport:
    """Every four-qubit invariant for one state; headline triple excludes qubit 4."""

    i4: complex
    tau4: float
    triples: tuple               # TripleInvariants for singled = 1..4
    pair_sums: dict              # pair -> sum of |2-way dets|
    n44_sq: float                # bipartite detector for qubit 1
    n48: float                   # pair-of-triples detector
    i26: float
    i26_sym: float
    tau48: float
    cross_triple_i48_dev: float  # max |i48(singled) - i48(4)| over singled

    @property
    def headline(self) -> TripleInvariants:
        return self.triples[3]

    @property
    def i48(self) -> complex:
        return self.headline.i48

    @property
    def j12(self) -> complex:
        return self.headline.j12

    @property
    def delta24(self) -> complex:
        return self.headline.delta24

    @property
    def dres(self) -> float:
        return self.headline.dres

    def n_triple_sq(self, singled: int) -> float:
        return self.triples[singled - 1].n_sq


def aggregate_invariants(state: PureState) -> FourQubitReport:
    """Assemble the full four-qubit invariant report."""
    check_arity(state, 4, "aggregate_invariants")
    triples = tuple(triple_invariants(state, singled) for singled in (1, 2, 3, 4))
    n_vals = [math.sqrt(tr.n_sq) for tr in triples]     # indexed by singled-1
    n44_sq = 16.0 * (triples[3].n_sq + triples[2].n_sq + triples[1].n_sq)
    n1, n2, n3, n4 = n_vals
    n48 = 16.0 * (n1 * n2 + (n1 + n2) * n3 + (n1 + n2 + n3) * n4)
    val_i4 = i4(state)
    head = triples[3]
    return FourQubitReport(
        i4=val_i4,
        tau4=4.0 * _modulus(val_i4),
        triples=triples,
        pair_sums=pair_det_sums(state),
        n44_sq=n44_sq,
        n48=n48,
        i26=i26(state),
        i26_sym=i26_symmetric(state),
        tau48=tau48_from_i48(head.i48),
        cross_triple_i48_dev=float(max(_modulus(tr.i48 - head.i48) for tr in triples)),
    )
