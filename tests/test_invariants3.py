"""Two- and three-qubit invariants."""

import math

import numpy as np
import pytest

from helpers import haar_u2, numpy_dets3, random_biseparable3, random_w_class3
from negfonts import (
    apply_local_unitary,
    catalog_state,
    i2_pair,
    local_unitary,
    make_state,
    n_global_sq_relation,
    n_pair_sq,
    normalize,
    random_special_unitary,
    random_state,
    three_qubit_report,
    three_tangle,
    three_way_invariant,
)
from negfonts.errors import QubitOutOfRange, WrongArity


def test_i2_pair():
    assert i2_pair(catalog_state("Bell")) == pytest.approx(0.5)
    assert i2_pair(make_state(2, [1, 0, 0, 0])) == 0.0
    assert i2_pair(make_state(2, [0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(WrongArity):
        i2_pair(random_state(3, 0))


def test_ghz3_report():
    report = three_qubit_report(normalize(catalog_state("GHZ3")))
    assert report.i3 == pytest.approx(0.25, abs=1e-15)
    assert report.tau3 == pytest.approx(1.0, abs=1e-12)
    assert not report.i3_is_zero
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert report.n_pair_sq[pair] == pytest.approx(1 / 8, abs=1e-12)
        assert report.w_sums[pair] == pytest.approx(0.0, abs=1e-12)
    assert report.i2_w == pytest.approx(0.0, abs=1e-12)
    assert report.n_global_sq == pytest.approx(1.0, abs=1e-9)


def test_w3_report():
    report = three_qubit_report(catalog_state("W3"))
    assert report.i3 == pytest.approx(0.0, abs=1e-15)
    assert report.i3_is_zero
    assert three_tangle(catalog_state("W3")) == pytest.approx(0.0, abs=1e-12)
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert report.w_sums[pair] == pytest.approx(1 / 3, abs=1e-12)
    assert report.i2_w == pytest.approx(1.0, abs=1e-12)


def test_pair_product_kills_i3():
    rng = np.random.default_rng(5)
    for position in (1, 2, 3):
        for _ in range(34):
            s = random_biseparable3(rng, position)
            assert abs(three_way_invariant(s)) < 1e-12


def test_i2_w_zero_on_biseparable():
    rng = np.random.default_rng(6)
    for position in (1, 2, 3):
        for _ in range(20):
            report = three_qubit_report(random_biseparable3(rng, position))
            assert report.i2_w == pytest.approx(0.0, abs=1e-9)


def test_pair_sq_printed_form_for_pair_13():
    # the permuted evaluation must equal the direct expression
    # |D0|^2 + |D1|^2 + 2*|(g000 - g001)/2|^2 built on the pair (1,3)
    for trial in range(30):
        s = random_state(3, (811, trial))
        t = s.tensor()
        d0 = t[0, 0, 0] * t[1, 0, 1] - t[0, 0, 1] * t[1, 0, 0]
        d1 = t[0, 1, 0] * t[1, 1, 1] - t[0, 1, 1] * t[1, 1, 0]
        g000 = t[0, 0, 0] * t[1, 1, 1] - t[1, 0, 0] * t[0, 1, 1]
        g001 = t[0, 0, 1] * t[1, 1, 0] - t[1, 0, 1] * t[0, 1, 0]
        direct = abs(d0) ** 2 + abs(d1) ** 2 + 2 * abs((g000 - g001) / 2) ** 2
        assert n_pair_sq(s, (1, 3)) == pytest.approx(direct, abs=1e-13)



def test_pair_sq_takes_pairs_in_either_order_and_rejects_others():
    s = random_state(3, 813)
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert n_pair_sq(s, pair[::-1]) == n_pair_sq(s, pair)
    for pair in ((1, 4), (2, 2), (0, 1), (1, 2, 3)):
        with pytest.raises(QubitOutOfRange):
            n_pair_sq(s, pair)

def test_negativity_relation():
    lhs, rhs = n_global_sq_relation(normalize(catalog_state("GHZ3")))
    assert lhs == pytest.approx(1.0, abs=1e-9)
    assert rhs == pytest.approx(1.0, abs=1e-12)

    basis = np.zeros(8)
    basis[0] = 1.0
    lhs, rhs = n_global_sq_relation(make_state(3, basis))
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)

    for trial in range(300):
        lhs, rhs = n_global_sq_relation(random_state(3, (907, trial)))
        assert abs(lhs - rhs) < 1e-9


def test_i3_invariant_under_special_unitaries():
    for trial in range(100):
        s = random_state(3, (1009, trial))
        rotated = s
        for q in (1, 2, 3):
            rotated = apply_local_unitary(rotated, random_special_unitary((1013, trial, q), q))
        assert three_way_invariant(rotated) == pytest.approx(
            three_way_invariant(s), abs=1e-9)


def test_w_branch_sum_invariant():
    # when the three-way invariant vanishes, |D0|+|D1| per pair is unchanged
    # by unitaries on the spectator qubit
    rng = np.random.default_rng(8)
    for trial in range(100):
        s = random_w_class3(rng)
        report = three_qubit_report(s)
        assert report.i3_is_zero
        rotated = apply_local_unitary(s, local_unitary(haar_u2(rng), qubit=3))
        after = three_qubit_report(rotated)
        assert after.w_sums[(1, 2)] == pytest.approx(report.w_sums[(1, 2)], abs=1e-9)


def test_i3_homogeneity():
    s = random_state(3, 999)
    scaled = make_state(3, 1.7 * s.amps)
    ratio = three_way_invariant(scaled) / three_way_invariant(s)
    assert ratio == pytest.approx(1.7 ** 4, rel=1e-9)


def _bits(value) -> tuple[str, str]:
    value = complex(value)
    return value.real.hex(), value.imag.hex()


@pytest.mark.parametrize("scale", [1.0, 1e-30, 1e30, 1e-40, 1e40, 1e-100, 1e100])
def test_three_qubit_kernels_match_numpy_reference(scale):
    # the report's dets, moduli and squared moduli give numpy complex128's bits
    for trial in range(40):
        s = make_state(3, random_state(3, (1811, trial)).amps * scale)
        pair_dets, g000, g001 = numpy_dets3(s.amps)
        report = three_qubit_report(s)
        with np.errstate(over="ignore", invalid="ignore"):
            i3 = (g000 + g001) ** 2 - 4 * pair_dets[(1, 2)][0] * pair_dets[(1, 2)][1]
            for pair, axes in (((1, 2), (0, 1, 2)), ((1, 3), (0, 2, 1)), ((2, 3), (1, 2, 0))):
                d0, d1 = pair_dets[pair]
                _, h000, h001 = numpy_dets3(s.tensor().transpose(axes).ravel())
                n_sq = abs(d0) ** 2 + abs(d1) ** 2 + 2 * abs((h000 + h001) / 2) ** 2
                assert report.n_pair_sq[pair].hex() == float(n_sq).hex()
                assert n_pair_sq(s, pair).hex() == float(n_sq).hex()
                assert report.w_sums[pair].hex() == float(abs(d0) + abs(d1)).hex()
                assert list(map(_bits, report.pair_dets[pair])) == [_bits(d0), _bits(d1)]
        assert list(map(_bits, report.d3_canonical)) == [_bits(g000), _bits(g001)]
        assert _bits(report.i3) == _bits(i3)
        assert report.tau3.hex() == float(4.0 * abs(i3)).hex()


def test_modulus_of_nan_ignores_a_stale_errno():
    # numpy's scalar power leaves errno at ERANGE when it overflows, and
    # CPython 3.11's abs() of a complex with a NaN part then raised
    # OverflowError: the modulus read inf, and an overflowed i3 counted as zero
    from negfonts.invariants import _modulus

    with np.errstate(over="ignore"):
        np.float64(1e200) ** 2
    assert math.isnan(_modulus(complex(math.nan, 1.0)))
    assert _modulus(complex(1.5e308, 1.5e308)) == math.inf
    s = make_state(3, random_state(3, (2020, 3, 0)).amps * 1e100)
    report = three_qubit_report(s)
    assert math.isnan(report.i3.real)
    assert math.isnan(report.tau3)
    assert report.i3_is_zero is False

