"""Polynomial local-unitary invariants for 2-, 3-, and 4-qubit pure states.

All quantities are homogeneous polynomials (or moduli of polynomials) in the
amplitudes; `degree` below refers to that homogeneity degree.  Zero tests are
therefore scaled by ||amps||**degree rather than applied raw.  The four-qubit
invariants come from the transposition quartic, built from the 2x2 dets of the
three-qubit slices with qubit 3 or qubit 4 fixed plus the four 4-way dets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter

import numpy as np

from .errors import QubitOutOfRange, WrongArity, check_tolerance
from .fonts import DEFAULT_TOL, FontSpec, font_det
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


def _require(state: PureState, n: int, op: str) -> None:
    if state.n_qubits != n:
        raise WrongArity(f"{op} requires n={n}, got n={state.n_qubits}")


def _move_last(state: PureState, q: int) -> PureState:
    """Relabel so that qubit q comes last and the others keep their order."""
    n = state.n_qubits
    if q == n:
        return state
    order = [x for x in range(1, n + 1) if x != q] + [q]    # old qubit at each position
    return permute_qubits(state, inverse_permutation(order))


# ---------------------------------------------------------------------------
# two qubits


def i2_pair(state: PureState) -> float:
    """|a00*a11 - a01*a10|: the single two-qubit correlation invariant."""
    _require(state, 2, "i2_pair")
    a = state.amps
    return float(abs(a[0] * a[3] - a[1] * a[2]))


# ---------------------------------------------------------------------------
# three qubits


def _gather(positions: np.ndarray) -> itemgetter:
    """Reads the flat amplitudes at `positions`, in their C order."""
    return itemgetter(*positions.ravel().tolist())


# for each three-qubit pair, the view of the flat amplitudes with its
# spectator moved last, the pair keeping its order: `_pair_dets` of the view
# are that pair's dets
_SPECTATOR_LAST = {pair: _gather(np.arange(8).reshape(2, 2, 2).transpose(axes))
                   for pair, axes in {(1, 2): (0, 1, 2), (1, 3): (0, 2, 1),
                                      (2, 3): (1, 2, 0)}.items()}


def _pair_dets(u) -> tuple[complex, complex]:
    """(D0, D1): the pair (1,2) dets of the flat three-qubit amplitudes u,
    qubit 3 at 0 and 1."""
    return u[0] * u[6] - u[2] * u[4], u[1] * u[7] - u[3] * u[5]


def _canonical_dets(u) -> tuple[complex, complex]:
    """(g000, g001): the canonical 3-way dets of the flat three-qubit amplitudes u."""
    return u[0] * u[7] - u[4] * u[3], u[1] * u[6] - u[5] * u[2]


def _canonical_sum(u) -> complex:
    """g000 + g001 of the flat three-qubit amplitudes u."""
    g000, g001 = _canonical_dets(u)
    return g000 + g001


def _three_way_terms(u):
    """(`_pair_dets(u)`, g000 + g001) of the flat three-qubit amplitudes u:
    the only dets that the three-way invariant reads."""
    return _pair_dets(u), _canonical_sum(u)


def _three_way(d, g) -> complex:
    """g^2 - 4 D0 D1 from the pair dets d = (D0, D1) and g = g000 + g001."""
    return _square(g) - 4 * d[0] * d[1]


def three_way_invariant(state: PureState) -> complex:
    """Degree-4 invariant detecting GHZ-type three-body correlations."""
    _require(state, 3, "three_way_invariant")
    return _three_way(*_three_way_terms(state.amps.tolist()))


def three_tangle(state: PureState) -> float:
    """Entanglement monotone 4 * |three-way invariant|."""
    return 4.0 * _modulus(three_way_invariant(state))


def n_pair_sq(state: PureState, pair: tuple[int, int]) -> float:
    """Squared residual-pair invariant for one qubit pair.

    For the pair (1,2): |D0|^2 + |D1|^2 + 2*|(g000+g001)/2|^2, where D_b are
    the pair dets with the spectator fixed at b; other pairs are reduced to
    this form by relabeling.
    """
    _require(state, 3, "n_pair_sq")
    view = _SPECTATOR_LAST.get(tuple(sorted(pair)))
    if view is None:
        raise QubitOutOfRange(f"n_pair_sq needs two distinct qubits of 1..3, got {pair}")
    return _pair_sq(*_three_way_terms(view(state.amps.tolist())))


def _pair_sq(d, g) -> float:
    """|D0|^2 + |D1|^2 + 2*|g/2|^2 from `_three_way_terms` of a spectator-last view."""
    return (_power(_modulus(d[0]), 2) + _power(_modulus(d[1]), 2)
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
    _require(state, 3, "three_qubit_report")
    check_tolerance(tol)
    u = state.amps.tolist()
    terms = {pair: _three_way_terms(view(u)) for pair, view in _SPECTATOR_LAST.items()}
    i3 = _three_way(*terms[(1, 2)])
    w_sums = {pair: _modulus(d[0]) + _modulus(d[1]) for pair, (d, _) in terms.items()}
    w12, w13, w23 = w_sums[(1, 2)], w_sums[(1, 3)], w_sums[(2, 3)]
    n_g = negativity(state, 1)
    return ThreeQubitReport(
        pair_dets={pair: d for pair, (d, _) in terms.items()},
        d3_canonical=_canonical_dets(u),
        n_pair_sq={pair: _pair_sq(*t) for pair, t in terms.items()},
        n_global_sq=_power(n_g, 2),
        i3=i3,
        tau3=4.0 * _modulus(i3),
        i3_is_zero=bool(_modulus(i3) <= tol * _power(float(state.norm), 4)),  # degree 4
        w_sums=w_sums,
        i2_w=3.0 * (w12 * w13 + w12 * w23 + w13 * w23),
    )


def n_global_sq_relation(state: PureState) -> tuple[float, float]:
    """(lhs, rhs) of: squared global negativity of qubit 1 equals
    4*(pair 1,2 invariant) + 4*(pair 1,3 invariant)."""
    _require(state, 3, "n_global_sq_relation")
    lhs = _power(negativity(state, 1), 2)
    rhs = 4.0 * n_pair_sq(state, (1, 2)) + 4.0 * n_pair_sq(state, (1, 3))
    return lhs, rhs


# ---------------------------------------------------------------------------
# four qubits


def _four_way_dets(a) -> list[complex]:
    """The four independent 4-way dets of the flat four-qubit amplitudes a, for
    the spectator bits (i3, i4) = 00, 01, 10, 11: with t = a as (2, 2, 2, 2),
    t[0, 0, i3, i4] t[1, 1, 1-i3, 1-i4] - t[1, 0, i3, i4] t[0, 1, 1-i3, 1-i4]."""
    return [a[c] * a[15 - c] - a[8 + c] * a[7 - c] for c in range(4)]


def i4(state: PureState) -> complex:
    """Degree-2 invariant: alternating sum of the four 4-way dets."""
    _require(state, 4, "i4")
    d00, d01, d10, d11 = _four_way_dets(state.amps.tolist())
    return d00 + d11 - d10 - d01


def tau4(state: PureState) -> float:
    """Degree-2 monotone 4*|i4|; nonzero also on pair-product states."""
    return 4.0 * _modulus(i4(state))


# the flat three-qubit slices of the flat four-qubit amplitudes with qubit 3
# fixed at 0 and at 1; a[b::2] are those with qubit 4 fixed at b
_QUBIT3_AT = tuple(_gather(np.arange(16).reshape(2, 2, 2, 2)[:, :, b, :]) for b in (0, 1))


def _quartic_coefficients(state: PureState) -> tuple[complex, ...]:
    """(i3_0, i3_1, T, P0, P1): the transposition quartic of a four-qubit state.

    Acting on qubit 4 with a one-parameter unitary turns the three-way
    invariant of the slice t[..., b] (qubit 4 fixed at b) into a quartic in
    the parameter; its binomially weighted coefficients are
    (i3_0, P0, T, P1, i3_1).  The outer ones are the slices' three-way
    invariants.  T and P_b combine the slices' pair (1,2) and canonical 3-way
    dets with the 3-way dets of the slices t[:, :, b, :] (qubit 3 fixed at b)
    and the four 4-way dets.
    """
    a = state.amps.tolist()
    # d[b][i]: qubit 3 at i, qubit 4 at b
    d, e = zip(*(_three_way_terms(a[b::2]) for b in (0, 1)))
    f = [_canonical_sum(slice3(a)) for slice3 in _QUBIT3_AT]
    d00, d01, d10, d11 = _four_way_dets(a)
    s4 = d00 + d01 + d10 + d11
    t_val = (_over(_square(s4), 6.0)
             - (2.0 / 3.0) * f[0] * f[1]
             + (1.0 / 3.0) * e[0] * e[1]
             - (2.0 / 3.0) * (d[0][0] * d[1][1] + d[1][0] * d[0][1]))
    p0, p1 = (0.5 * e[b] * s4 - (d[b][1] * f[0] + d[b][0] * f[1]) for b in (0, 1))
    return _three_way(d[0], e[0]), _three_way(d[1], e[1]), t_val, p0, p1


def _quartic_invariants(i3_0: complex, i3_1: complex, t: complex,
                        p0: complex, p1: complex) -> dict:
    """Coefficients and invariants of the quartic with weighted coefficients
    (i3_0, 4 P0, 6 T, 4 P1, i3_1): the fields of `TripleInvariants` but
    `singled`.

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
    return {
        "i3_0": i3_0, "i3_1": i3_1, "t": t, "p0": p0, "p1": p1,
        "i48": val48, "j12": val_j,
        "delta24": _cube(val48) - 27 * _square(val_j),
        "n_sq": n_sq,
        "dres": n_sq - 2 * _modulus(val48),
    }


def i3_conditional(state: PureState, i4bit: int) -> complex:
    """Three-way invariant of the triple (1,2,3) with qubit 4 fixed at i4bit."""
    _require(state, 4, "i3_conditional")
    if isinstance(i4bit, bool) or not isinstance(i4bit, (int, np.integer)) or i4bit not in (0, 1):
        raise QubitOutOfRange(f"i3_conditional needs the bit of qubit 4 as 0 or 1, got {i4bit!r}")
    return _quartic_coefficients(state)[i4bit]


def t_p_invariants(state: PureState) -> tuple[complex, complex, complex]:
    """(T, P0, P1): the middle coefficients of the transposition quartic."""
    _require(state, 4, "t_p_invariants")
    return _quartic_coefficients(state)[2:]


def i48(state: PureState) -> complex:
    """Degree-8 invariant; nonzero exactly on states with four-body correlations."""
    _require(state, 4, "i48")
    return triple_invariants(state).i48


def j12(state: PureState) -> complex:
    """Degree-12 cubic invariant of the transposition quartic."""
    _require(state, 4, "j12")
    return triple_invariants(state).j12


def delta24(state: PureState) -> complex:
    """Degree-24 discriminant: i48**3 - 27 * j12**2."""
    _require(state, 4, "delta24")
    return triple_invariants(state).delta24


def n_triple_sq(state: PureState, singled: int = 4) -> float:
    """Squared triple invariant for the three qubits other than `singled`."""
    _require(state, 4, "n_triple_sq")
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


def triple_invariants(state: PureState, singled: int = 4) -> TripleInvariants:
    _require(state, 4, "triple_invariants")
    coeffs = _quartic_coefficients(_move_last(state, singled))
    return TripleInvariants(singled=singled, **_quartic_invariants(*coeffs))


def _pair_fonts(p: int, q: int) -> tuple:
    """The four 2-way fonts of the pair p < q, spectator bits 00, 01, 10, 11."""
    r, s = (x for x in (1, 2, 3, 4) if x not in (p, q))
    return tuple(FontSpec(p, (p, q), (0,), ((r, br), (s, bs)))
                 for br in (0, 1) for bs in (0, 1))


# the fonts of each pair, under the pair in either order
_PAIR_FONTS = {key: _pair_fonts(*pair) for pair in PAIRS4 for key in (pair, pair[::-1])}


def pair_det_sum(state: PureState, pair: tuple[int, int]) -> float:
    """Sum of |det| over the four 2-way fonts of one pair (both spectators swept)."""
    _require(state, 4, "pair_det_sum")
    try:
        specs = _PAIR_FONTS[tuple(pair)]
    except (KeyError, TypeError):
        raise QubitOutOfRange(
            f"pair_det_sum needs two distinct qubits of 1..4, got {pair!r}") from None
    total = 0.0
    for spec in specs:
        total += _modulus(font_det(state, spec))
    return float(total)


def pair_det_sums(state: PureState) -> dict[tuple[int, int], float]:
    return {pair: pair_det_sum(state, pair) for pair in PAIRS4}


# i26_symmetric's four terms, one per singled-out qubit 1..4: the three pairs
# of the other qubits, then the three pairs through the singled-out one
_SYMMETRIC_TERMS = ((((2, 3), (2, 4), (3, 4)), ((1, 2), (1, 3), (1, 4))),
                    (((1, 3), (1, 4), (3, 4)), ((1, 2), (2, 3), (2, 4))),
                    (((1, 2), (1, 4), (2, 4)), ((1, 3), (2, 3), (3, 4))),
                    (((1, 2), (1, 3), (2, 3)), ((1, 4), (2, 4), (3, 4))))


def i26(state: PureState) -> float:
    """Degree-6 detector of W-type four-qubit entanglement.

    Triangular form: each of the three triples containing qubit 1 multiplies a
    shrinking set of pair sums of pairs through the excluded qubit.
    """
    _require(state, 4, "i26")
    s = pair_det_sums(state)
    return float(1.5 * (3.0 * s[(1, 2)] * s[(1, 3)] * (s[(1, 4)] + s[(2, 4)] + s[(3, 4)])
                        + 3.0 * s[(1, 2)] * s[(1, 4)] * (s[(2, 3)] + s[(3, 4)])
                        + 3.0 * s[(1, 3)] * s[(1, 4)] * s[(2, 4)]))


def i26_symmetric(state: PureState) -> float:
    """Permutation-symmetric variant of i26; agrees with it on symmetric states."""
    _require(state, 4, "i26_symmetric")
    s = pair_det_sums(state)
    total = 0.0
    for (ab, ac, bc), (ta, tb, tc) in _SYMMETRIC_TERMS:
        a, b, c = s[ab], s[ac], s[bc]
        total += (a * b + a * c + b * c) * (s[ta] + s[tb] + s[tc])
    return float(0.75 * total)


def tau48_from_i48(value: complex) -> float:
    """Monotone 4*sqrt(12*|i48|), normalized to 1 on maximal four-body correlation."""
    return float(4.0 * np.sqrt(12.0 * _modulus(value)))


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
    _require(state, 4, "aggregate_invariants")
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
