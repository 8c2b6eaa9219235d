"""Four-qubit invariants: conditional three-way, quartic coefficients,
degree 8/12/24 invariants, aggregate report."""

import importlib
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from helpers import (
    haar_u2,
    numpy_dets3,
    quartic_discriminant_resolvent,
    quartic_discriminant_roots,
    random_product4,
    scramble_special,
)
from negfonts import (
    CATALOG,
    FontSpec,
    aggregate_invariants,
    apply_local_unitary,
    catalog_names,
    catalog_state,
    delta24,
    font_det,
    i26,
    i26_symmetric,
    i2_pair,
    i3_conditional,
    i4,
    i48,
    j12,
    local_unitary,
    make_state,
    n_pair_sq,
    n_triple_sq,
    normalize,
    pair_det_sum,
    pair_det_sums,
    random_state,
    t_p_invariants,
    tau4,
    three_qubit_report,
    three_way_invariant,
    triple_invariants,
)
from negfonts.errors import NonFiniteResult, QubitOutOfRange, WrongArity


def test_i4_values():
    assert i4(normalize(catalog_state("GHZ4"))) == pytest.approx(0.5, abs=1e-15)
    assert i4(catalog_state("C1")) == pytest.approx(0.0, abs=1e-15)
    assert i4(catalog_state("W4")) == pytest.approx(0.0, abs=1e-15)
    assert tau4(normalize(catalog_state("GHZ4"))) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(WrongArity):
        i4(random_state(3, 0))


def test_i3_conditional_psi_ab():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        s = catalog_state("Psi_ab", {"a": a, "b": b})
        assert i3_conditional(s, 0) == pytest.approx(a ** 2 * b ** 2, rel=1e-12)
        assert i3_conditional(s, 1) == pytest.approx(b ** 4, rel=1e-12)


def test_i3_conditional_brown():
    s = catalog_state("BrownPhi")
    assert i3_conditional(s, 0) == pytest.approx(1 / 32, abs=1e-15)
    assert i3_conditional(s, 1) == pytest.approx(1 / 32, abs=1e-15)


def test_t_p_values():
    t, p0, p1 = t_p_invariants(catalog_state("BrownPhi"))
    assert t == pytest.approx(1 / 32, abs=1e-15)
    assert p0 == pytest.approx(0.0, abs=1e-15)
    assert p1 == pytest.approx(0.0, abs=1e-15)

    t, p0, p1 = t_p_invariants(catalog_state("HS"))
    assert t == pytest.approx(0.0, abs=1e-15)
    assert p0 == pytest.approx(0.0, abs=1e-15)
    assert p1 == pytest.approx(0.0, abs=1e-15)

    a, b = 1.3, 0.4
    t, p0, p1 = t_p_invariants(catalog_state("Psi_ab", {"a": a, "b": b}))
    assert t == pytest.approx((a ** 4 - 2 * a * b ** 3) / 6, rel=1e-12)
    assert p0 == pytest.approx(a ** 3 * b / 2, rel=1e-12)
    assert p1 == pytest.approx(-a ** 2 * b ** 2 / 2, rel=1e-12)


def test_t_matches_quartic_slice_expansion():
    """The quintuple (i3_0, 4p0, 6t, 4p1, i3_1) must reproduce the quartic
    obtained by substituting y*slice0 + slice1 into the three-way invariant."""
    rng = np.random.default_rng(12)
    for trial in range(25):
        s = random_state(4, (1201, trial))
        t_val, p0, p1 = t_p_invariants(s)
        coeffs = np.array([i3_conditional(s, 0), 4 * p0, 6 * t_val, 4 * p1,
                           i3_conditional(s, 1)])
        tensor = s.tensor()
        for _ in range(3):
            y = complex(rng.standard_normal(), rng.standard_normal())
            blended = y * tensor[:, :, :, 0] + tensor[:, :, :, 1]
            g000 = (blended[0, 0, 0] * blended[1, 1, 1]
                    - blended[1, 0, 0] * blended[0, 1, 1])
            g001 = (blended[0, 0, 1] * blended[1, 1, 0]
                    - blended[1, 0, 1] * blended[0, 1, 0])
            d0 = blended[0, 0, 0] * blended[1, 1, 0] - blended[0, 1, 0] * blended[1, 0, 0]
            d1 = blended[0, 0, 1] * blended[1, 1, 1] - blended[0, 1, 1] * blended[1, 0, 1]
            direct = (g000 + g001) ** 2 - 4 * d0 * d1
            poly = np.polyval(coeffs, y)
            assert poly == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_i48_values():
    assert i48(normalize(catalog_state("GHZ4"))) == pytest.approx(1 / 192, abs=1e-15)
    assert i48(catalog_state("BrownPhi")) == pytest.approx(1 / 256, abs=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        s = catalog_state("Psi_ab", {"a": a, "b": b})
        assert i48(s) == pytest.approx((a ** 4 + 4 * a * b ** 3) ** 2 / 12, rel=1e-10)


def test_j12_values():
    ghz = normalize(catalog_state("GHZ4"))
    assert j12(ghz) == pytest.approx(-(1 / 24) ** 3, abs=1e-15)
    rng = np.random.default_rng(4)
    for _ in range(30):
        assert abs(j12(random_product4(rng, "triple"))) < 1e-12


def test_delta24_values():
    ghz = normalize(catalog_state("GHZ4"))
    assert delta24(ghz) == pytest.approx(0.0, abs=1e-15)

    # the family a(|0000>+|1111>) + b(|1101>+|1110>+|0011>) has an identically
    # vanishing discriminant: its transposition quartic is the perfect square
    # (a*b*y^2 + a^2*y - b^2)^2
    for a, b in ((1.0, 1.0), (1.0, 0.5), (0.7 + 0.3j, 1.2 - 0.4j)):
        s = catalog_state("Psi_ab", {"a": a, "b": b})
        scale = np.linalg.norm(s.amps) ** 24
        assert abs(delta24(s)) < 1e-12 * scale

    # degenerate lines of the four-parameter family
    for params in ({"a": 1.1, "b": 0.6, "c": 0.0, "d": 0.0},
                   {"a": 0.0, "b": 0.0, "c": 0.9, "d": 1.4}):
        s = catalog_state("G_abcd", params)
        assert abs(delta24(s)) < 1e-12

    generic = catalog_state("G_abcd", {"a": 1.0, "b": 2.0, "c": 3.0, "d": 5.0})
    assert abs(delta24(generic)) > 1.0


def test_delta_matches_resolvent_oracle():
    # oracle self-check first, then the implementation against the oracle
    rng = np.random.default_rng(14)
    for _ in range(10):
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lhs = quartic_discriminant_resolvent(*coeffs)
        rhs = quartic_discriminant_roots(*coeffs)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    for trial in range(100):
        s = random_state(4, (1301, trial))
        t_val, p0, p1 = t_p_invariants(s)
        oracle = quartic_discriminant_resolvent(
            i3_conditional(s, 0), 4 * p0, 6 * t_val, 4 * p1,
            i3_conditional(s, 1)) / 256.0
        assert delta24(s) == pytest.approx(oracle, rel=1e-8)


def test_n_triple_sq():
    ghz = normalize(catalog_state("GHZ4"))
    assert n_triple_sq(ghz) == pytest.approx(1 / 96, abs=1e-15)
    assert n_triple_sq(ghz) == pytest.approx(2 * abs(i48(ghz)), abs=1e-15)

    a, b = 1.2 + 0.1j, 0.8 - 0.4j
    s = catalog_state("L_a2b2", {"a": a, "b": b})
    assert n_triple_sq(s) == pytest.approx(abs(a ** 2 - b ** 2) ** 4 / 6, rel=1e-12)

    a = 0.9 + 0.2j
    s = catalog_state("L_a2_0_3p1t", {"a": a})
    assert n_triple_sq(s) == pytest.approx(abs(a) ** 8 / 6, rel=1e-12)


def test_aggregate_known_values():
    ghz = aggregate_invariants(normalize(catalog_state("GHZ4")))
    assert ghz.tau48 == pytest.approx(1.0, abs=1e-12)
    assert ghz.n44_sq == pytest.approx(0.5, abs=1e-12)
    assert ghz.n48 == pytest.approx(1.0, abs=1e-12)
    assert ghz.dres == pytest.approx(0.0, abs=1e-14)

    hs = aggregate_invariants(catalog_state("HS"))
    assert hs.tau48 == pytest.approx(0.0, abs=1e-9)
    assert hs.i26 == pytest.approx(1.0, abs=1e-12)
    assert hs.i26_sym == pytest.approx(1.0, abs=1e-12)
    for pair, value in hs.pair_sums.items():
        assert value == pytest.approx(1 / 3, abs=1e-12)

    w4 = aggregate_invariants(catalog_state("W4"))
    assert w4.tau48 == pytest.approx(0.0, abs=1e-12)
    assert w4.i26 == pytest.approx(27 / 64, abs=1e-12)
    assert w4.i26_sym == pytest.approx(27 / 64, abs=1e-12)

    # the published 5/9 for the two-excitation Dicke state is not
    # reproducible from the determinant combinations; they give 1/3
    dicke = aggregate_invariants(normalize(catalog_state("Dicke42")))
    assert dicke.tau48 == pytest.approx(1 / 3, abs=1e-12)


def test_report_headline_is_the_triple_that_singles_qubit_4():
    for state in (random_state(4, 17), normalize(catalog_state("BrownPhi"))):
        report, triple = aggregate_invariants(state), triple_invariants(state, 4)
        assert (report.j12, report.delta24) == (triple.j12, triple.delta24)


def test_cross_triple_i48_agreement():
    # empirically the degree-8 invariant does not depend on the singled qubit
    for trial in range(30):
        s = random_state(4, (1409, trial))
        report = aggregate_invariants(s)
        assert report.cross_triple_i48_dev < 1e-12
    # residual three-way correlations do depend on the triple
    s = catalog_state("Psi_ab", {"a": 1.0, "b": 0.5})
    dres = [triple_invariants(s, singled).dres for singled in (1, 2, 3, 4)]
    assert max(dres) > 0.05
    assert min(dres) == pytest.approx(0.0, abs=1e-12)


def test_su2_invariance_of_polynomials():
    for trial in range(100):
        s = random_state(4, (1511, trial))
        rotated = scramble_special(s, (1523, trial))
        before = triple_invariants(s)
        after = triple_invariants(rotated)
        assert abs(i4(s) - i4(rotated)) < 1e-9
        assert abs(before.i48 - after.i48) < 1e-9
        assert abs(before.j12 - after.j12) < 1e-9
        assert abs(before.delta24 - after.delta24) < 1e-9


def test_modulus_invariance_under_general_unitaries():
    rng = np.random.default_rng(16)
    for trial in range(50):
        s = random_state(4, (1601, trial))
        rotated = s
        for q in (1, 2, 3, 4):
            rotated = apply_local_unitary(rotated, local_unitary(haar_u2(rng), q))
        before = aggregate_invariants(s)
        after = aggregate_invariants(rotated)
        assert after.tau48 == pytest.approx(before.tau48, abs=1e-9)
        for singled in (1, 2, 3, 4):
            assert after.n_triple_sq(singled) == pytest.approx(
                before.n_triple_sq(singled), abs=1e-9)
        assert after.tau4 == pytest.approx(before.tau4, abs=1e-9)


def test_pair_sums_invariance_on_w_type_states():
    # pair-det sums are invariants on states whose triple invariants all vanish
    rng = np.random.default_rng(17)
    for base_name in ("W4", "HS"):
        base = catalog_state(base_name)
        for trial in range(25):
            rotated = base
            for q in (1, 2, 3, 4):
                rotated = apply_local_unitary(rotated, local_unitary(haar_u2(rng), q))
            before = pair_det_sums(base)
            after = pair_det_sums(rotated)
            for pair in before:
                assert after[pair] == pytest.approx(before[pair], abs=1e-9)
            assert i26(rotated) == pytest.approx(i26(base), abs=1e-9)
            assert i26_symmetric(rotated) == pytest.approx(
                i26_symmetric(base), abs=1e-9)


def _i26_loops(s) -> float:
    """i26 from the pair sums s, in its earlier form: sorted keys per call."""
    def i2_triple(p, q, r):
        return 3.0 * s[tuple(sorted((p, q)))] * s[tuple(sorted((p, r)))]
    return float(1.5 * (i2_triple(1, 2, 3) * (s[(1, 4)] + s[(2, 4)] + s[(3, 4)])
                        + i2_triple(1, 2, 4) * (s[(2, 3)] + s[(3, 4)])
                        + i2_triple(1, 3, 4) * s[(2, 4)]))


def _i26_symmetric_loops(s) -> float:
    """i26_symmetric from the pair sums s, in its earlier form: the pair
    lists rebuilt with `combinations` and `sorted` per call."""
    total = 0.0
    for singled in (1, 2, 3, 4):
        triple = [q for q in (1, 2, 3, 4) if q != singled]
        pairs = list(combinations(triple, 2))
        w = sum(s[pairs[i]] * s[pairs[j]] for i in range(3) for j in range(i + 1, 3))
        through = sum(s[tuple(sorted((singled, q)))] for q in triple)
        total += w * through
    return float(0.75 * total)


@pytest.mark.parametrize("scale", [1.0, 1e60, 1e-60])
def test_w_detectors_equal_their_loop_form_bit_for_bit(scale):
    states = [random_state(4, (1821, trial)) for trial in range(40)]
    states += [catalog_state(name, {p: 0.7 - 0.3j for p in CATALOG[name].params})
               for name in catalog_names() if CATALOG[name].n_qubits == 4]
    for base in states:
        s = make_state(4, base.amps * scale)
        sums = pair_det_sums(s)
        assert i26(s).hex() == _i26_loops(sums).hex()
        assert i26_symmetric(s).hex() == _i26_symmetric_loops(sums).hex()


def test_pair_det_sum_takes_a_pair_in_either_order():
    s = random_state(4, 1823)
    for p, q in combinations((1, 2, 3, 4), 2):
        want = pair_det_sum(s, (p, q))
        assert pair_det_sum(s, (q, p)) == want
        assert pair_det_sum(s, [q, p]) == want
        assert pair_det_sum(s, (np.int64(p), np.int64(q))) == want


@pytest.mark.parametrize("pair", [(1, 1), (0, 5), (1, 5), (1, 2, 3), (1,), 5, None,
                                  (1.0, 2), (True, 2), (3, 4.0)])
def test_pair_det_sum_rejects_a_bad_pair(pair):
    with pytest.raises(QubitOutOfRange, match=r"pair_det_sum needs two distinct qubits"):
        pair_det_sum(random_state(4, 1823), pair)


def test_homogeneity_degrees():
    s = random_state(4, 1700)
    lam = 1.7
    scaled = make_state(4, lam * s.amps)
    assert i4(scaled) == pytest.approx(lam ** 2 * i4(s), rel=1e-9)
    assert i3_conditional(scaled, 0) == pytest.approx(
        lam ** 4 * i3_conditional(s, 0), rel=1e-9)
    t0, p0, p1 = t_p_invariants(s)
    t1, q0, q1 = t_p_invariants(scaled)
    assert t1 == pytest.approx(lam ** 4 * t0, rel=1e-9)
    assert q0 == pytest.approx(lam ** 4 * p0, rel=1e-9)
    assert q1 == pytest.approx(lam ** 4 * p1, rel=1e-9)
    assert i48(scaled) == pytest.approx(lam ** 8 * i48(s), rel=1e-9)
    assert j12(scaled) == pytest.approx(lam ** 12 * j12(s), rel=1e-9)
    assert delta24(scaled) == pytest.approx(lam ** 24 * delta24(s), rel=1e-9)
    assert n_triple_sq(scaled) == pytest.approx(lam ** 8 * n_triple_sq(s), rel=1e-9)


def test_i48_vanishes_on_products():
    rng = np.random.default_rng(19)
    for split in ("triple", "pair"):
        for _ in range(30):
            s = random_product4(rng, split)
            assert abs(i48(s)) < 1e-12
    assert abs(i48(catalog_state("W4"))) < 1e-15


def _np_four_way_dets(t):
    """The four 4-way dets of t = amps as (2, 2, 2, 2), on numpy complex128 scalars."""
    return [t[0, 0, i3, i4] * t[1, 1, 1 - i3, 1 - i4]
            - t[1, 0, i3, i4] * t[0, 1, 1 - i3, 1 - i4]
            for i3 in (0, 1) for i4 in (0, 1)]


def _dets3_coefficients(state):
    """(i3_0, i3_1, T, P0, P1) from every det `numpy_dets3` forms, on numpy
    scalars, kept as the reference for the slimmer `_quartic_coefficients`."""
    t = state.amps.reshape(2, 2, 2, 2)
    i3, d, e, f = [], [], [], []
    for b in (0, 1):
        pair_dets, g000, g001 = numpy_dets3(t[..., b])
        d0, d1 = pair_dets[(1, 2)]
        i3.append((g000 + g001) ** 2 - 4 * d0 * d1)
        d.append(pair_dets[(1, 2)])
        e.append(g000 + g001)
        _, h000, h001 = numpy_dets3(t[:, :, b, :])
        f.append(h000 + h001)
    d00, d01, d10, d11 = _np_four_way_dets(t)
    s4 = d00 + d01 + d10 + d11
    t_val = (s4 ** 2 / 6.0
             - (2.0 / 3.0) * f[0] * f[1]
             + (1.0 / 3.0) * e[0] * e[1]
             - (2.0 / 3.0) * (d[0][0] * d[1][1] + d[1][0] * d[0][1]))
    p0, p1 = (0.5 * e[b] * s4 - (d[b][1] * f[0] + d[b][0] * f[1]) for b in (0, 1))
    return tuple(complex(c) for c in (i3[0], i3[1], t_val, p0, p1))


def _bits(value) -> tuple[str, str]:
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def test_quartic_coefficients_match_dets3_reference():
    from negfonts.invariants import _move_last, _quartic_coefficients

    haar = [random_state(4, (1801, trial)) for trial in range(60)]
    states = list(haar)
    for scale in (1e-30, 1e30, 1e-40, 1e40):
        states += [make_state(4, s.amps * scale) for s in haar]
    states += [catalog_state(name, {p: 0.7 - 0.3j for p in CATALOG[name].params})
               for name in catalog_names() if CATALOG[name].n_qubits == 4]
    for s in states:
        for singled in (1, 2, 3, 4):
            ref = _dets3_coefficients(_move_last(s, singled))
            assert list(map(_bits, _quartic_coefficients(_move_last(s, singled)))) \
                == list(map(_bits, ref))
            # the numpy references overflow at 1e30 (j12, delta24) and at 1e40
            with np.errstate(over="ignore", invalid="ignore"):
                i3_0, i3_1, t, p0, p1 = (np.complex128(c) for c in ref)
                val48 = 3 * t ** 2 - 4 * p0 * p1 + i3_0 * i3_1
                val_j = (i3_1 * (t * i3_0 - p0 * p0) - p1 * (p1 * i3_0 - p0 * t)
                         + t * (p1 * p0 - t * t))
                n_sq = (abs(i3_0) ** 2 + abs(i3_1) ** 2 + 6 * abs(t) ** 2
                        + 4 * abs(p0) ** 2 + 4 * abs(p1) ** 2)
                delta = val48 ** 3 - 27 * val_j ** 2
                dres = n_sq - 2 * abs(val48)
            got = triple_invariants(s, singled)
            assert _bits(got.i48) == _bits(val48)
            assert _bits(got.j12) == _bits(val_j)
            assert _bits(got.delta24) == _bits(delta)
            assert got.n_sq.hex() == float(n_sq).hex()
            assert got.dres.hex() == float(dres).hex()
        s3 = make_state(3, s.amps[::2])
        pair_dets, g000, g001 = numpy_dets3(s3.amps)
        d0, d1 = pair_dets[(1, 2)]
        assert _bits(three_way_invariant(s3)) == _bits((g000 + g001) ** 2 - 4 * d0 * d1)


@pytest.mark.parametrize("bit", [2, -1, None, 1.5, True, "1", np.float64(0.0)])
def test_i3_conditional_rejects_a_bad_bit(bit):
    s = random_state(4, 1)
    with pytest.raises(QubitOutOfRange, match="bit of qubit 4"):
        i3_conditional(s, bit)
    # the singled-out qubit of a triple is checked the same way
    for singled in (0, 5, 7, 1.0):
        with pytest.raises(QubitOutOfRange, match="singled"):
            triple_invariants(s, singled)
        with pytest.raises(QubitOutOfRange, match="singled"):
            n_triple_sq(s, singled)


def test_i3_conditional_takes_numpy_integer_bits():
    s = random_state(4, 1)
    assert i3_conditional(s, np.int64(1)) == i3_conditional(s, 1)
    assert i3_conditional(s, np.uint8(0)) == i3_conditional(s, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e40, 1e-40, 1e100, 1e-100, 1e200, 1e-200])
def test_invariant_kernels_emit_no_runtime_warning(scale):
    # the kernels saturate overflows to inf and NaN without numpy's warnings
    for trial in range(4):
        s4 = make_state(4, random_state(4, (1813, trial)).amps * scale)
        s3 = make_state(3, random_state(3, (1813, trial)).amps * scale)
        aggregate_invariants(s4)
        for singled in (1, 2, 3, 4):
            triple_invariants(s4, singled)
        i4(s4)
        if scale >= 1e160:       # the global negativity is not finite there
            with pytest.raises(NonFiniteResult):
                three_qubit_report(s3)
        else:
            three_qubit_report(s3)
        for pair in ((1, 2), (1, 3), (2, 3)):
            n_pair_sq(s3, pair)
        three_way_invariant(s3)
    i2_pair(make_state(2, catalog_state("Bell").amps * scale))


def test_j12_finite_when_coefficients_underflow():
    # the quartic coefficients of GHZ4 x 1e-80 are subnormal or zero; an LU
    # factorization divides by them and returned NaN
    report = aggregate_invariants(make_state(4, catalog_state("GHZ4").amps * 1e-80))
    for tr in report.triples:
        assert tr.j12 == 0
        assert tr.delta24 == 0


def test_j12_closed_form_matches_lu():
    worst = 0.0
    for trial in range(500):
        s = random_state(4, (1803, trial))
        for singled in (1, 2, 3, 4):
            tr = triple_invariants(s, singled)
            hankel = np.array([[tr.i3_1, tr.p1, tr.t], [tr.p1, tr.t, tr.p0],
                               [tr.t, tr.p0, tr.i3_0]])
            size = max(abs(c) for c in (tr.i3_0, tr.i3_1, tr.t, tr.p0, tr.p1))
            worst = max(worst, abs(tr.j12 - np.linalg.det(hankel)) / size ** 3)
    assert worst < 1e-13


def _exact_dicke42():
    """Dicke42 times sqrt(6): amplitude 1 on each weight-2 label, as Fractions."""
    t = np.full((2, 2, 2, 2), Fraction(0), dtype=object)
    for bits in product((0, 1), repeat=4):
        if sum(bits) == 2:
            t[bits] = Fraction(1)
    return t


def _exact_rotation(t, qubit, m):
    out = np.full((2, 2, 2, 2), Fraction(0), dtype=object)
    for bits in product((0, 1), repeat=4):
        for j in (0, 1):
            src = list(bits)
            src[qubit - 1] = j
            out[bits] += m[bits[qubit - 1]][j] * t[tuple(src)]
    return out


def _exact_quartic(t, pair_sign=-1):
    """(T, i48) of `_quartic_coefficients` in exact arithmetic; `pair_sign` is
    the sign of its pair-det term, -1 in the invariant."""
    def canonical(u):
        return ((u[0, 0, 0] * u[1, 1, 1] - u[1, 0, 0] * u[0, 1, 1])
                + (u[0, 0, 1] * u[1, 1, 0] - u[1, 0, 1] * u[0, 1, 0]))

    d = [[t[0, 0, i, b] * t[1, 1, i, b] - t[0, 1, i, b] * t[1, 0, i, b] for i in (0, 1)]
         for b in (0, 1)]
    e = [canonical(t[..., b]) for b in (0, 1)]
    i3 = [e[b] ** 2 - 4 * d[b][0] * d[b][1] for b in (0, 1)]
    f = [canonical(t[:, :, b, :]) for b in (0, 1)]
    s4 = sum(t[0, 0, i, j] * t[1, 1, 1 - i, 1 - j] - t[1, 0, i, j] * t[0, 1, 1 - i, 1 - j]
             for i in (0, 1) for j in (0, 1))
    t_val = (s4 ** 2 / 6 - Fraction(2, 3) * f[0] * f[1] + Fraction(1, 3) * e[0] * e[1]
             + pair_sign * Fraction(2, 3) * (d[0][0] * d[1][1] + d[1][0] * d[0][1]))
    p0, p1 = (e[b] * s4 / 2 - (d[b][1] * f[0] + d[b][0] * f[1]) for b in (0, 1))
    return t_val, 3 * t_val ** 2 - 4 * p0 * p1 + i3[0] * i3[1]


def _exact_tau48(value):
    """4 sqrt(12 |i48|) for a rational i48 whose square root is rational."""
    x = 12 * abs(value)
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    assert Fraction(num, den) ** 2 == x
    return 4 * Fraction(num, den)


def test_dicke42_tau48_exact_certificate():
    """The published tau48 = 5/9 on Dicke42 matches a sign slip, not an invariant.

    In exact arithmetic on Dicke42 x sqrt(6) (norm^2 = 6, so T scales by 1/36
    and i48 by 1/6^4), the quartic gives T = -1/72, i48 = 1/1728, tau48 = 1/3.
    Flipping the sign of the pair-det term in T gives the published 5/9, but
    that "i48" changes under a rational SO(2) rotation of qubit 3, so it is
    not a local-unitary invariant.
    """
    t = _exact_dicke42()
    t_val, val48 = _exact_quartic(t)
    assert (t_val / 36, val48 / 6 ** 4) == (Fraction(-1, 72), Fraction(1, 1728))
    assert _exact_tau48(val48 / 6 ** 4) == Fraction(1, 3)
    # the float pipeline agrees with the certificate
    report = aggregate_invariants(normalize(catalog_state("Dicke42")))
    assert report.i48 == pytest.approx(1 / 1728, abs=1e-15)
    assert t_p_invariants(normalize(catalog_state("Dicke42")))[0] == pytest.approx(
        -1 / 72, abs=1e-15)

    flip_t, flip48 = _exact_quartic(t, pair_sign=1)
    assert (flip_t / 36, flip48 / 6 ** 4) == (Fraction(5, 216), Fraction(25, 15552))
    assert _exact_tau48(flip48 / 6 ** 4) == Fraction(5, 9)

    rotation = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    turned = {q: _exact_rotation(t, q, rotation) for q in (1, 2, 3, 4)}
    assert all(_exact_quartic(u)[1] / 6 ** 4 == Fraction(1, 1728) for u in turned.values())
    flipped = {q: _exact_quartic(turned[q], pair_sign=1)[1] / 6 ** 4 for q in (1, 2, 3)}
    assert flipped == {1: Fraction(25, 15552), 2: Fraction(25, 15552),
                       3: Fraction(674041, 6075000000)}


def _m_spec(n: int, c: int, x: int) -> FontSpec:
    """The font M[c][x] of `invariants`: qubit 1 transposed, flip set {1, 2}
    and the qubits that x flips, qubit 2 at 0 and the rest at the bits of c."""
    bit = {q: c >> (n - q) & 1 for q in range(3, n + 1)}
    flips = [q for q in range(3, n + 1) if x >> (n - q) & 1]
    return FontSpec(1, (1, 2, *flips), (0, *(bit[q] for q in flips)),
                    tuple((q, b) for q, b in bit.items() if q not in flips))


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_invariant_dets_are_fonts(n):
    # every det the invariants read is a canonical font of qubit 1, bit for bit
    inv = importlib.import_module("negfonts.invariants")
    h = 1 << (n - 2)
    readers = {2: [(inv._I2, [(0, 0)])],
               3: [(inv._PAIR_FONTS3[(1, 2)], [(0, 0), (1, 0), (0, 1), (1, 1)])],
               4: [(inv._QUARTIC_FONTS, [(c, x) for x in range(4) for c in range(4)]),
                   (inv._FOUR_WAY_FONTS, [(c, 3) for c in range(4)])]}[n]
    assert {f for _, fonts in readers for f in fonts} == set(product(range(h), range(h)))
    states = [random_state(n, 2100 + k) for k in range(4)]
    states += [make_state(n, states[0].amps * scale) for scale in (3.7, 1e-200, 1e200)]
    states += [catalog_state(name, {q: 0.7 - 0.3j for q in CATALOG[name].params})
               for name in catalog_names() if CATALOG[name].n_qubits == n]
    for state in states:
        u = state.amps.tolist()
        for read, fonts in readers:
            got = inv._dets(u, read)
            want = [font_det(state, _m_spec(n, c, x)) for c, x in fonts]
            assert list(map(_hex, got)) == list(map(_hex, want)), state
        if n == 3:
            # the pairs (1,3) and (2,3): the fonts of the spectator-last state
            for pair, spectator in (((1, 3), 2), ((2, 3), 1)):
                moved = inv._move_last(state, spectator)
                got = inv._dets(u, inv._PAIR_FONTS3[pair])
                want = [font_det(moved, _m_spec(3, c, x))
                        for c, x in ((0, 0), (1, 0), (0, 1), (1, 1))]
                assert list(map(_hex, got)) == list(map(_hex, want)), (state, pair)
