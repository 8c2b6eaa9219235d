"""Polynomial local-unitary invariants for 2-, 3-, and 4-qubit pure states.

All quantities are homogeneous polynomials (or moduli of polynomials) in the
amplitudes; `degree` below refers to that homogeneity degree.  Zero tests are
therefore scaled by ||amps||**degree rather than applied raw.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import WrongArity
from .states import PureState, permute_qubits

DEFAULT_TOL = 1e-9

PAIRS4 = tuple(combinations((1, 2, 3, 4), 2))


def is_negligible(value, degree: int, norm: float, tol: float = DEFAULT_TOL) -> bool:
    """Degree-aware zero test: |value| <= tol * norm**degree."""
    return bool(abs(value) <= tol * norm ** degree)


def _require(state: PureState, n: int, op: str) -> None:
    if state.n_qubits != n:
        raise WrongArity(f"{op} requires n={n}, got n={state.n_qubits}")


# ---------------------------------------------------------------------------
# two qubits


def i2_pair(state: PureState) -> float:
    """|a00*a11 - a01*a10|: the single two-qubit correlation invariant."""
    _require(state, 2, "i2_pair")
    a = state.amps
    return float(abs(a[0] * a[3] - a[1] * a[2]))


# ---------------------------------------------------------------------------
# three qubits


def _dets3(amps: np.ndarray):
    """Pair dets (spectator bit 0/1 for each pair) and the two canonical 3-way dets."""
    t = amps.reshape(2, 2, 2)
    pair12 = tuple(t[0, 0, b] * t[1, 1, b] - t[0, 1, b] * t[1, 0, b] for b in (0, 1))
    pair13 = tuple(t[0, b, 0] * t[1, b, 1] - t[0, b, 1] * t[1, b, 0] for b in (0, 1))
    pair23 = tuple(t[b, 0, 0] * t[b, 1, 1] - t[b, 0, 1] * t[b, 1, 0] for b in (0, 1))
    g000 = t[0, 0, 0] * t[1, 1, 1] - t[1, 0, 0] * t[0, 1, 1]
    g001 = t[0, 0, 1] * t[1, 1, 0] - t[1, 0, 1] * t[0, 1, 0]
    return {(1, 2): pair12, (1, 3): pair13, (2, 3): pair23}, g000, g001


def three_way_invariant(state: PureState) -> complex:
    """Degree-4 invariant detecting GHZ-type three-body correlations."""
    _require(state, 3, "three_way_invariant")
    pair_dets, g000, g001 = _dets3(state.amps)
    d0, d1 = pair_dets[(1, 2)]
    return complex((g000 + g001) ** 2 - 4 * d0 * d1)


def three_tangle(state: PureState) -> float:
    """Entanglement monotone 4 * |three-way invariant|."""
    return 4.0 * abs(three_way_invariant(state))


def _pair_perm3(pair: tuple[int, int]) -> tuple[int, ...]:
    """Permutation sending the pair to positions (1, 2), spectator to 3."""
    spectator = ({1, 2, 3} - set(pair)).pop()
    order = (pair[0], pair[1], spectator)       # old qubit at position j of `order`
    perm = [0, 0, 0]
    for new_pos, old in enumerate(order, start=1):
        perm[old - 1] = new_pos
    return tuple(perm)


def n_pair_sq(state: PureState, pair: tuple[int, int]) -> float:
    """Squared residual-pair invariant for one qubit pair.

    For the pair (1,2): |D0|^2 + |D1|^2 + 2*|(g000+g001)/2|^2, where D_b are
    the pair dets with the spectator fixed at b; other pairs are reduced to
    this form by relabeling.
    """
    _require(state, 3, "n_pair_sq")
    moved = state if pair == (1, 2) else permute_qubits(state, _pair_perm3(tuple(pair)))
    pair_dets, g000, g001 = _dets3(moved.amps)
    d0, d1 = pair_dets[(1, 2)]
    return float(abs(d0) ** 2 + abs(d1) ** 2 + 2 * abs((g000 + g001) / 2) ** 2)


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
    tol: float


def three_qubit_report(state: PureState, tol: float = DEFAULT_TOL) -> ThreeQubitReport:
    _require(state, 3, "three_qubit_report")
    pair_dets, g000, g001 = _dets3(state.amps)
    i3 = complex((g000 + g001) ** 2 - 4 * pair_dets[(1, 2)][0] * pair_dets[(1, 2)][1])
    norm = state.norm
    w_sums = {pair: float(abs(d[0]) + abs(d[1])) for pair, d in pair_dets.items()}
    w12, w13, w23 = w_sums[(1, 2)], w_sums[(1, 3)], w_sums[(2, 3)]
    pair_sq = {pair: n_pair_sq(state, pair) for pair in pair_dets}

    from .ptrans import negativity  # local import avoids a cycle at module load

    n_g = negativity(state, 1)
    return ThreeQubitReport(
        pair_dets=pair_dets,
        d3_canonical=(complex(g000), complex(g001)),
        n_pair_sq=pair_sq,
        n_global_sq=float(n_g ** 2),
        i3=i3,
        tau3=4.0 * abs(i3),
        i3_is_zero=is_negligible(i3, 4, norm, tol),
        w_sums=w_sums,
        i2_w=float(3.0 * (w12 * w13 + w12 * w23 + w13 * w23)),
        tol=tol,
    )


def n_global_sq_relation(state: PureState) -> tuple[float, float]:
    """(lhs, rhs) of: squared global negativity of qubit 1 equals
    4*(pair 1,2 invariant) + 4*(pair 1,3 invariant)."""
    _require(state, 3, "n_global_sq_relation")
    from .ptrans import negativity

    lhs = negativity(state, 1) ** 2
    rhs = 4.0 * n_pair_sq(state, (1, 2)) + 4.0 * n_pair_sq(state, (1, 3))
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# four qubits


def _dets4(amps: np.ndarray):
    """All determinant families entering the four-qubit invariants.

    d2[(i3,i4)]      pair (1,2) dets, spectators 3,4 fixed
    e000/e001[b]     canonical 3-way dets of triple (1,2,3), spectator 4 at b
    f000/f001[b]     canonical 3-way dets of triple (1,2,4), spectator 3 at b
    d4[(i3,i4)]      the four independent 4-way dets
    """
    t = amps.reshape(2, 2, 2, 2)
    d2 = {(i3, i4): t[0, 0, i3, i4] * t[1, 1, i3, i4] - t[0, 1, i3, i4] * t[1, 0, i3, i4]
          for i3 in (0, 1) for i4 in (0, 1)}
    e000 = {b: t[0, 0, 0, b] * t[1, 1, 1, b] - t[1, 0, 0, b] * t[0, 1, 1, b] for b in (0, 1)}
    e001 = {b: t[0, 0, 1, b] * t[1, 1, 0, b] - t[1, 0, 1, b] * t[0, 1, 0, b] for b in (0, 1)}
    f000 = {b: t[0, 0, b, 0] * t[1, 1, b, 1] - t[1, 0, b, 0] * t[0, 1, b, 1] for b in (0, 1)}
    f001 = {b: t[0, 0, b, 1] * t[1, 1, b, 0] - t[1, 0, b, 1] * t[0, 1, b, 0] for b in (0, 1)}
    d4 = {(i3, i4): t[0, 0, i3, i4] * t[1, 1, 1 - i3, 1 - i4]
          - t[1, 0, i3, i4] * t[0, 1, 1 - i3, 1 - i4]
          for i3 in (0, 1) for i4 in (0, 1)}
    return d2, e000, e001, f000, f001, d4


def i4(state: PureState) -> complex:
    """Degree-2 invariant: alternating sum of the four 4-way dets."""
    _require(state, 4, "i4")
    *_, dets4 = _dets4(state.amps)
    return complex(dets4[(0, 0)] + dets4[(1, 1)] - dets4[(1, 0)] - dets4[(0, 1)])


def tau4(state: PureState) -> float:
    """Degree-2 monotone 4*|i4|; nonzero also on pair-product states."""
    return 4.0 * abs(i4(state))


def i3_conditional(state: PureState, i4bit: int) -> complex:
    """Three-way invariant of the triple (1,2,3) with qubit 4 fixed at i4bit."""
    _require(state, 4, "i3_conditional")
    d2, e000, e001, *_ = _dets4(state.amps)
    b = int(i4bit)
    return complex((e000[b] + e001[b]) ** 2 - 4 * d2[(0, b)] * d2[(1, b)])


def t_p_invariants(state: PureState) -> tuple[complex, complex, complex]:
    """(T, P0, P1): the middle coefficients of the transposition quartic.

    Acting on qubit 4 with a one-parameter unitary turns the conditional
    three-way invariant into a quartic in the parameter; its binomially
    weighted coefficients are (i3_cond(0), P0, T, P1, i3_cond(1)).
    """
    _require(state, 4, "t_p_invariants")
    d2, e000, e001, f000, f001, d4_ = _dets4(state.amps)
    s4 = d4_[(0, 0)] + d4_[(0, 1)] + d4_[(1, 0)] + d4_[(1, 1)]
    e_sum = {b: e000[b] + e001[b] for b in (0, 1)}
    f_sum = {b: f000[b] + f001[b] for b in (0, 1)}
    t_val = (s4 ** 2 / 6.0
             - (2.0 / 3.0) * f_sum[0] * f_sum[1]
             + (1.0 / 3.0) * e_sum[0] * e_sum[1]
             - (2.0 / 3.0) * (d2[(0, 0)] * d2[(1, 1)] + d2[(0, 1)] * d2[(1, 0)]))
    p = {b: 0.5 * e_sum[b] * s4 - (d2[(1, b)] * f_sum[0] + d2[(0, b)] * f_sum[1])
         for b in (0, 1)}
    return complex(t_val), complex(p[0]), complex(p[1])


def i48(state: PureState) -> complex:
    """Degree-8 invariant; nonzero exactly on states with four-body correlations."""
    _require(state, 4, "i48")
    t_val, p0, p1 = t_p_invariants(state)
    return complex(3 * t_val ** 2 - 4 * p0 * p1
                   + i3_conditional(state, 0) * i3_conditional(state, 1))


def j12(state: PureState) -> complex:
    """Degree-12 cubic invariant of the transposition quartic."""
    _require(state, 4, "j12")
    t_val, p0, p1 = t_p_invariants(state)
    a0 = i3_conditional(state, 0)
    a1 = i3_conditional(state, 1)
    m = np.array([[a1, p1, t_val],
                  [p1, t_val, p0],
                  [t_val, p0, a0]])
    return complex(np.linalg.det(m))


def delta24(state: PureState) -> complex:
    """Degree-24 discriminant: i48**3 - 27 * j12**2."""
    _require(state, 4, "delta24")
    return complex(i48(state) ** 3 - 27 * j12(state) ** 2)


def _perm_singled(singled: int) -> tuple[int, ...]:
    """Permutation moving `singled` to position 4, others kept in order."""
    order = [q for q in (1, 2, 3, 4) if q != singled] + [singled]
    perm = [0] * 4
    for new_pos, old in enumerate(order, start=1):
        perm[old - 1] = new_pos
    return tuple(perm)


def n_triple_sq(state: PureState, singled: int = 4) -> float:
    """Squared triple invariant for the three qubits other than `singled`."""
    _require(state, 4, "n_triple_sq")
    moved = state if singled == 4 else permute_qubits(state, _perm_singled(singled))
    t_val, p0, p1 = t_p_invariants(moved)
    a0 = i3_conditional(moved, 0)
    a1 = i3_conditional(moved, 1)
    return float(abs(a0) ** 2 + abs(a1) ** 2 + 6 * abs(t_val) ** 2
                 + 4 * abs(p0) ** 2 + 4 * abs(p1) ** 2)


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
    moved = state if singled == 4 else permute_qubits(state, _perm_singled(singled))
    t_val, p0, p1 = t_p_invariants(moved)
    a0 = i3_conditional(moved, 0)
    a1 = i3_conditional(moved, 1)
    val48 = complex(3 * t_val ** 2 - 4 * p0 * p1 + a0 * a1)
    m = np.array([[a1, p1, t_val], [p1, t_val, p0], [t_val, p0, a0]])
    val_j = complex(np.linalg.det(m))
    n_sq = float(abs(a0) ** 2 + abs(a1) ** 2 + 6 * abs(t_val) ** 2
                 + 4 * abs(p0) ** 2 + 4 * abs(p1) ** 2)
    return TripleInvariants(
        singled=singled, i3_0=complex(a0), i3_1=complex(a1),
        t=complex(t_val), p0=complex(p0), p1=complex(p1),
        i48=val48, j12=val_j, delta24=complex(val48 ** 3 - 27 * val_j ** 2),
        n_sq=n_sq, dres=float(n_sq - 2 * abs(val48)),
    )


def pair_det_sum(state: PureState, pair: tuple[int, int]) -> float:
    """Sum of |det| over the four 2-way fonts of one pair (both spectators swept)."""
    _require(state, 4, "pair_det_sum")
    from .fonts import FontSpec, font_det

    p, q = sorted(pair)
    spect = [x for x in (1, 2, 3, 4) if x not in (p, q)]
    total = 0.0
    for br in (0, 1):
        for bs in (0, 1):
            spec = FontSpec(p, (p, q), (0,), ((spect[0], br), (spect[1], bs)))
            total += abs(font_det(state, spec))
    return float(total)


def pair_det_sums(state: PureState) -> dict[tuple[int, int], float]:
    return {pair: pair_det_sum(state, pair) for pair in PAIRS4}


def _i2_triple(sums, p: int, q: int, r: int) -> float:
    """W-type detector of the triple (p,q,r): 3 * I(p,q) * I(p,r)."""
    return 3.0 * sums[tuple(sorted((p, q)))] * sums[tuple(sorted((p, r)))]


def i26(state: PureState) -> float:
    """Degree-6 detector of W-type four-qubit entanglement.

    Triangular form: each of the three triples containing qubit 1 multiplies a
    shrinking set of pair sums of pairs through the excluded qubit.
    """
    _require(state, 4, "i26")
    s = pair_det_sums(state)
    return float(1.5 * (_i2_triple(s, 1, 2, 3) * (s[(1, 4)] + s[(2, 4)] + s[(3, 4)])
                        + _i2_triple(s, 1, 2, 4) * (s[(2, 3)] + s[(3, 4)])
                        + _i2_triple(s, 1, 3, 4) * s[(2, 4)]))


def i26_symmetric(state: PureState) -> float:
    """Permutation-symmetric variant of i26; agrees with it on symmetric states."""
    _require(state, 4, "i26_symmetric")
    s = pair_det_sums(state)
    total = 0.0
    for singled in (1, 2, 3, 4):
        triple = [q for q in (1, 2, 3, 4) if q != singled]
        pairs = list(combinations(triple, 2))
        w = sum(s[pairs[i]] * s[pairs[j]] for i in range(3) for j in range(i + 1, 3))
        through = sum(s[tuple(sorted((singled, q)))] for q in triple)
        total += w * through
    return float(0.75 * total)


def tau48_from_i48(value: complex) -> float:
    """Monotone 4*sqrt(12*|i48|), normalized to 1 on maximal four-body correlation."""
    return float(4.0 * np.sqrt(12.0 * abs(value)))


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
    tol: float

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


def aggregate_invariants(state: PureState, tol: float = DEFAULT_TOL) -> FourQubitReport:
    """Assemble the full four-qubit invariant report."""
    _require(state, 4, "aggregate_invariants")
    triples = tuple(triple_invariants(state, singled) for singled in (1, 2, 3, 4))
    n_vals = [np.sqrt(tr.n_sq) for tr in triples]       # indexed by singled-1
    n44_sq = 16.0 * (triples[3].n_sq + triples[2].n_sq + triples[1].n_sq)
    n1, n2, n3, n4 = n_vals
    n48 = 16.0 * (n1 * n2 + (n1 + n2) * n3 + (n1 + n2 + n3) * n4)
    val_i4 = i4(state)
    head = triples[3]
    return FourQubitReport(
        i4=val_i4,
        tau4=4.0 * abs(val_i4),
        triples=triples,
        pair_sums=pair_det_sums(state),
        n44_sq=float(n44_sq),
        n48=float(n48),
        i26=i26(state),
        i26_sym=i26_symmetric(state),
        tau48=tau48_from_i48(head.i48),
        cross_triple_i48_dev=float(max(abs(tr.i48 - head.i48) for tr in triples)),
        tol=tol,
    )
