"""Font enumeration, determinants, named accessors, counts."""

import dataclasses
import warnings

import numpy as np
import pytest

from helpers import haar_u2, scramble_special
from negfonts import (
    CATALOG,
    FontSpec,
    PureState,
    all_font_dets,
    apply_local_unitary,
    catalog_names,
    catalog_state,
    count_nonzero_fonts,
    d2,
    d3,
    d4,
    enumerate_fonts,
    font_counts,
    font_det,
    i4,
    local_unitary,
    make_state,
    normalize,
    random_special_unitary,
    random_state,
)
from negfonts.errors import QubitOutOfRange, SpecMismatch, WrongArity
from negfonts.fonts import _det_orders, _font_indices, _font_minors, _minors
from negfonts.ptrans import _global_parts
from negfonts.states import _amplitude_scale, _power

SQ3 = np.sqrt(3.0)


def test_enumeration_counts():
    assert len(enumerate_fonts(2, 1)) == 1
    for p in (1, 2, 3):
        specs = enumerate_fonts(3, p)
        assert len(specs) == 6
        assert sum(1 for s in specs if s.k == 2) == 4
        assert sum(1 for s in specs if s.k == 3) == 2
    for p in (1, 2, 3, 4):
        specs = enumerate_fonts(4, p)
        assert len(specs) == 28
        by_k = {k: sum(1 for s in specs if s.k == k) for k in (2, 3, 4)}
        assert by_k == {2: 12, 3: 12, 4: 4}
    # the pair (1,2) in a 3-qubit state carries one font per spectator value
    pair12 = [s for s in enumerate_fonts(3, 1, k=2) if s.flip_set == (1, 2)]
    assert len(pair12) == 2


def test_enumeration_canonical_and_unique():
    specs = enumerate_fonts(4, 2)
    assert len(set(specs)) == len(specs)
    for s in specs:
        assert s.canonical
        assert s.p in s.flip_set
    with pytest.raises(QubitOutOfRange):
        enumerate_fonts(4, 5)


def test_bell_single_font():
    (spec,) = enumerate_fonts(2, 1)
    assert font_det(catalog_state("Bell"), spec) == pytest.approx(0.5)


def test_antisymmetry_under_pattern_flip():
    for trial in range(200):
        n = 3 + trial % 2
        s = random_state(n, (401, trial))
        for spec in enumerate_fonts(n, 1 + trial % n):
            assert font_det(s, spec) == -font_det(s, spec.flipped())


def test_font_det_spec_mismatch():
    s = random_state(3, 0)
    bad = FontSpec(1, (1, 2), (0,), ((3, 0), (4, 0)))
    with pytest.raises(SpecMismatch):
        font_det(s, bad)


def test_d4_known_values():
    ghz = normalize(catalog_state("GHZ4"))
    assert d4(ghz, 0, 0) == pytest.approx(0.5)
    for i3, i4_ in ((0, 1), (1, 0), (1, 1)):
        assert d4(ghz, i3, i4_) == pytest.approx(0.0, abs=1e-15)

    hs = catalog_state("HS")
    assert d4(hs, 1, 1) == pytest.approx(1 / 6, abs=1e-12)
    assert d4(hs, 0, 1) == pytest.approx((1 - 1j * SQ3) / 12, abs=1e-12)
    assert d4(hs, 1, 0) == pytest.approx((1 + 1j * SQ3) / 12, abs=1e-12)

    w4 = catalog_state("W4")
    for i3 in (0, 1):
        for i4_ in (0, 1):
            assert d4(w4, i3, i4_) == pytest.approx(0.0, abs=1e-15)

    c1 = catalog_state("C1")
    assert d4(c1, 0, 0) == pytest.approx(-0.25)
    assert d4(c1, 1, 1) == pytest.approx(0.25)
    assert d4(c1, 0, 1) == pytest.approx(0.0, abs=1e-15)
    assert d4(c1, 1, 0) == pytest.approx(0.0, abs=1e-15)


def test_d2_known_values():
    c1 = catalog_state("C1")
    assert d2(c1, 0, 0) == pytest.approx(0.25)
    assert d2(c1, 1, 1) == pytest.approx(-0.25)

    # the two equal-magnitude dets quoted for HS come out with a minus sign
    # under the row-order convention fixed by the 2x2 block definition
    hs = catalog_state("HS")
    assert d2(hs, 0, 1) == pytest.approx(-1 / 6, abs=1e-12)
    assert d2(hs, 1, 0) == pytest.approx(-1 / 6, abs=1e-12)
    assert abs(d2(hs, 0, 1)) == pytest.approx(1 / 6, abs=1e-12)

    product = make_state(4, np.eye(16)[0])
    for b3 in (0, 1):
        for b4 in (0, 1):
            assert d2(product, b3, b4) == 0


def test_d3_known_values():
    ghz = normalize(catalog_state("GHZ4"))
    for triple in ((1, 2, 3), (1, 2, 4)):
        for i2 in (0, 1):
            for bit in (0, 1):
                assert d3(ghz, triple, i2, bit) == pytest.approx(0.0, abs=1e-15)
    psi_a = catalog_state("Psi_a", {"a": 1.0})
    assert d3(psi_a, (1, 2, 3), 0, 0) == pytest.approx(1.0)


def test_named_accessors_require_four_qubits():
    s = random_state(3, 1)
    for fn, args in ((d2, (0, 0)), (d3, ((1, 2, 3), 0, 0)), (d4, (0, 0))):
        with pytest.raises(WrongArity):
            fn(s, *args)


def test_i4_assembled_from_d4():
    for trial in range(20):
        s = random_state(4, (53, trial))
        direct = d4(s, 0, 0) + d4(s, 1, 1) - d4(s, 1, 0) - d4(s, 0, 1)
        assert i4(s) == pytest.approx(direct, abs=1e-15)


def test_d2_unitary_covariance():
    # dets with spectators fixed are invariant under unitaries on the pair:
    # exactly for unit-determinant ones, in modulus for general ones
    for trial in range(50):
        s = random_state(4, (61, trial))
        rng = np.random.default_rng((67, trial))
        rotated = s
        for q in (1, 2):
            rotated = apply_local_unitary(rotated, random_special_unitary((71, trial, q), q))
        for b3 in (0, 1):
            for b4 in (0, 1):
                assert d2(rotated, b3, b4) == pytest.approx(d2(s, b3, b4), abs=1e-10)
        general = s
        for q in (1, 2):
            general = apply_local_unitary(general, local_unitary(haar_u2(rng), q))
        for b3 in (0, 1):
            for b4 in (0, 1):
                assert abs(d2(general, b3, b4)) == pytest.approx(
                    abs(d2(s, b3, b4)), abs=1e-10)


def test_count_nonzero_fonts():
    ghz = normalize(catalog_state("GHZ4"))
    assert count_nonzero_fonts(ghz, 1, 4) == 1
    assert count_nonzero_fonts(ghz, 1, 3) == 0
    assert count_nonzero_fonts(ghz, 1, 2) == 0

    c1 = catalog_state("C1")
    assert count_nonzero_fonts(c1, 1, 4) == 2

    product = make_state(4, np.eye(16)[0])
    for k in (2, 3, 4):
        assert count_nonzero_fonts(product, 1, k) == 0


def test_counts_scale_invariant():
    s = random_state(4, 77)
    scaled = make_state(4, 7.3 * s.amps)
    assert font_counts(s, 1) == font_counts(scaled, 1)
    # a state copied from a unit vector with its amplitudes replaced carries no
    # promise of unit norm: its scale is read from the amplitudes
    ghz = normalize(catalog_state("GHZ4"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (1e-200, 1e200):
            replaced = dataclasses.replace(ghz, amps=ghz.amps * scale)
            for p in range(1, 5):
                assert font_counts(replaced, p) == {2: 0, 3: 0, 4: 1}, (scale, p)
        # a 4-way det of 1e-140 relative to the squared norm, above tol = 1e-150,
        # also where that threshold would underflow
        tilted = np.eye(16)[0] + 1e-140 * np.eye(16)[15]
        for scale in (1.0, 1e-99):
            counts = font_counts(make_state(4, tilted * scale), 1, tol=1e-150)
            assert counts == {2: 0, 3: 0, 4: 1}, scale


def _kernel_states(n: int, seed: int):
    """Haar, GHZ-type and W-type states (scrambled), each also at 1e+-150."""
    rng = np.random.default_rng((seed, n))
    weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ghz = np.zeros(1 << n, complex)
    ghz[[0, -1]] = weights[:2]
    w = np.zeros(1 << n, complex)
    w[[1 << (n - q) for q in range(1, n + 1)]] = weights
    base = [random_state(n, (seed, n)),
            scramble_special(make_state(n, ghz), (seed, n, 1)),
            scramble_special(make_state(n, w), (seed, n, 2)),
            make_state(n, ghz), make_state(n, w)]
    return base + [make_state(n, s.amps * scale) for s in base for scale in (1e150, 1e-150)]


def _font_columns(spec: FontSpec, n: int) -> tuple[int, int]:
    """Columns of the font's two labels in the 2 x 2^(n-1) matrix of qubit p."""
    bits = dict(spec.spectators)
    bits.update(zip([q for q in spec.flip_set if q != spec.p], spec.pattern))
    others = [q for q in range(1, n + 1) if q != spec.p]
    col = sum(bits[q] << (n - 2 - j) for j, q in enumerate(others))
    flip = sum(1 << (n - 2 - j) for j, q in enumerate(others) if q in spec.flip_set)
    return col, col ^ flip


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_minor_kernel_matches_font_det(n):
    # The kernel multiplies whole arrays, and numpy's vectorized complex
    # product may use fused multiply-adds where the scalar product in
    # font_det does not, so the two agree to rounding of the products:
    # each part of a product a*b is within 2 eps |a||b| of the exact value.
    eps = np.finfo(float).eps
    pairs = list(zip(*np.triu_indices(1 << (n - 1), k=1)))
    for state in _kernel_states(n, 1401):
        a = np.abs(state.amps)
        for p in range(1, n + 1):
            specs = enumerate_fonts(n, p)
            positions = [pairs.index(_font_columns(spec, n)) for spec in specs]
            assert sorted(positions) == list(range(len(pairs)))
            np.testing.assert_array_equal(_det_orders(n)[positions],
                                          [spec.k for spec in specs])
            minors = _font_minors(state, p)[positions]
            for spec, minor in zip(specs, minors):
                i, j, i_flip, j_flip = [int(x) for x in _font_indices(n, spec)]
                bound = 4 * eps * (a[i] * a[j] + a[i_flip] * a[j_flip])
                assert abs(minor - font_det(state, spec)) <= bound


def _qubit_first(state, p: int) -> np.ndarray:
    """Reference layout: the amplitudes with qubit p moved to the leading bit."""
    return np.moveaxis(state.tensor(), p - 1, 0).reshape(-1)


def _layout_states(n: int, seed: int):
    """`_kernel_states`, the catalog states of n qubits, and strided views."""
    states = list(_kernel_states(n, seed))
    states += [catalog_state(name, {q: 0.7 - 0.3j for q in CATALOG[name].params})
               for name in catalog_names() if CATALOG[name].n_qubits == n]
    padded = np.zeros(2 << n, dtype=complex)
    padded[::2] = states[0].amps
    views = [PureState(n, padded[::2]), PureState(n, states[1].amps[::-1]),
             PureState(n, (padded * 1e150)[::2])]
    assert not any(view.amps.flags.c_contiguous for view in views)
    return states + views


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_qubit_tables_gather_the_moveaxis_layout(n):
    # the cached tables read qubit p's minors, and its qubit-first vector,
    # straight from the amplitudes: bit for bit the moveaxis copy's
    for state in _layout_states(n, 1423):
        # the count depends on the direction only: that of the rescaled vector
        work = PureState(n, state.amps / _amplitude_scale(state.amps))
        threshold = 1e-9 * work.norm ** 2
        scale = float(np.max(np.abs(state.amps)))
        for p in range(1, n + 1):
            minors = _minors(_qubit_first(state, p))
            assert _font_minors(state, p).tobytes() == minors.tobytes(), (n, p)
            moduli = np.abs(_minors(_qubit_first(work, p)))
            for k in range(2, n + 1):
                want = int(np.count_nonzero(moduli[_det_orders(n) == k] > threshold))
                assert count_nonzero_fonts(state, p, k) == want, (n, p, k)
            unit = _qubit_first(state, p) / scale
            sq, got_unit, root = _global_parts(state, p)
            assert sq == _power(scale, 2)
            assert got_unit.tobytes() == unit.tobytes(), (n, p)
            assert root == np.sqrt(np.sum(np.abs(_minors(unit)) ** 2)), (n, p)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_counts_match_per_spec_loop(n):
    for state in _kernel_states(n, 1409):
        work = normalize(state)
        threshold = 1e-9 * work.norm ** 2
        for p in range(1, n + 1):
            expected = {k: sum(1 for spec in enumerate_fonts(n, p, k)
                               if abs(font_det(work, spec)) > threshold)
                        for k in range(2, n + 1)}
            assert font_counts(state, p) == expected


def test_bad_specs_and_ranges_raise_on_every_call():
    s = random_state(3, 0)
    uncovered = FontSpec(1, (1, 2), (0,), ((3, 0), (4, 0)))
    short_pattern = FontSpec(1, (1, 2, 3), (0,), ())
    for spec in (uncovered, short_pattern):
        for _ in range(2):
            with pytest.raises(SpecMismatch):
                font_det(s, spec)
    for _ in range(2):
        with pytest.raises(QubitOutOfRange):
            enumerate_fonts(3, 4)
        with pytest.raises(QubitOutOfRange):
            count_nonzero_fonts(s, 0, 2)
        with pytest.raises(QubitOutOfRange):
            count_nonzero_fonts(s, 1, 4)


def _parity_states():
    """Haar states at several scales, sparse states with signed zeros, the catalog."""
    for n in range(2, 7):
        unit = random_state(n, (1417, n))
        for scale in (1.0, 3.7, 1e40, 1e-40):
            yield make_state(n, unit.amps * scale)
    rng = np.random.default_rng(1417)
    parts = np.array([0.0, -0.0, 1.0, -1.0, 0.5])
    for trial in range(200):
        n = 2 + trial % 4
        amps = np.empty(1 << n, complex)
        amps.real = rng.choice(parts, 1 << n)
        amps.imag = rng.choice(parts, 1 << n)
        if not np.any(amps):
            amps[trial % (1 << n)] = -1.0
        yield make_state(n, amps)
    for name in catalog_names():
        if not CATALOG[name].params:
            yield catalog_state(name)
            yield normalize(catalog_state(name))


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_font_det_is_bit_identical_to_the_numpy_scalar_product():
    # the reference is the numpy complex128 scalar arithmetic of the per-font
    # definition; hex comparison also tells signed zeros apart
    checked = 0
    for state in _parity_states():
        n, a = state.n_qubits, state.amps
        for p in range(1, n + 1):
            for spec in enumerate_fonts(n, p):
                i, j, i_flip, j_flip = _font_indices(n, spec)
                want = complex(a[i] * a[j] - a[i_flip] * a[j_flip])
                got = font_det(state, spec)
                assert type(got) is complex
                assert _hex(got) == _hex(want), (spec, state.amps)
                checked += 1
    assert checked > 50_000


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_all_font_dets_is_font_det_over_the_enumeration(n):
    state = random_state(n, (1419, n))
    for p in range(1, n + 1):
        listing = all_font_dets(state, p)
        assert [spec for spec, _ in listing] == list(enumerate_fonts(n, p))
        assert [_hex(det) for _, det in listing] == [
            _hex(font_det(state, spec)) for spec in enumerate_fonts(n, p)]


def test_spec_of_another_size_raises_on_every_call():
    # a spec remembers its amplitude positions after first use; that must not
    # let it read a state whose qubits it does not cover
    spec = FontSpec(1, (1, 2), (0,), ((3, 1), (4, 0)))
    three, five = random_state(3, 5), random_state(5, 5)
    for state in (three, five, random_state(4, 5), three, five, three):
        if state.n_qubits == 4:
            font_det(state, spec)
            continue
        with pytest.raises(SpecMismatch):
            font_det(state, spec)
    assert spec == FontSpec(1, (1, 2), (0,), ((3, 1), (4, 0)))
    assert hash(spec) == hash(FontSpec(1, (1, 2), (0,), ((3, 1), (4, 0))))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cached_positions_equal_the_builder(n):
    for p in range(1, n + 1):
        for spec in enumerate_fonts(n, p):
            assert spec._positions == (n, *_font_indices(n, spec))


def test_cached_positions_stay_out_of_eq_hash_and_repr():
    fresh = FontSpec(1, (1, 2), (0,), ((3, 1), (4, 0)))
    used = FontSpec(1, (1, 2), (0,), ((3, 1), (4, 0)))
    font_det(random_state(4, 7), used)
    assert "_positions" in vars(used) and "_positions" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_a_spec_that_misses_one_of_its_qubits_raises_on_every_call():
    # it names three qubits, 1, 2 and 4, so it fits no state, not even n = 3
    gap = FontSpec(1, (1, 2), (0,), ((4, 0),))
    for state in (random_state(3, 9), random_state(4, 9), random_state(3, 9)):
        with pytest.raises(SpecMismatch):
            font_det(state, gap)
