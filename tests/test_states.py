"""State construction, indexing, unitaries, permutations."""

import dataclasses
import warnings
from itertools import permutations

import numpy as np
import pytest

from helpers import haar_u2
from negfonts import (
    LocalUnitary,
    PureState,
    apply_local_unitary,
    bits_of_index,
    index_of_bits,
    inner,
    local_unitary,
    make_state,
    normalize,
    permute_qubits,
    random_special_unitary,
    random_state,
)
from negfonts import states as states_module
from negfonts.errors import (
    DimensionMismatch,
    InvalidPermutation,
    NonFinite,
    NonUnitary,
    QubitOutOfRange,
    ZeroVector,
)

S2 = 1 / np.sqrt(2)


def test_index_round_trip():
    for n in range(2, 7):
        for idx in range(1 << n):
            bits = bits_of_index(idx, n)
            assert index_of_bits(bits) == idx


def test_index_convention_qubit1_most_significant():
    # |0 1> lives at position 0*2 + 1
    assert index_of_bits((0, 1)) == 1
    assert index_of_bits((1, 0)) == 2
    assert index_of_bits((1, 0, 0, 0)) == 8


def test_make_state_basis_vector():
    s = make_state(2, [1, 0, 0, 0])
    assert s.amplitude((0, 0)) == 1
    assert s.norm == 1.0 and not s.amps.flags.writeable


def test_a_state_holds_only_its_qubit_count_and_amplitudes():
    # whether a state is a unit vector is read from its amplitudes, never declared
    assert [f.name for f in dataclasses.fields(PureState)] == ["n_qubits", "amps"]
    with pytest.raises(TypeError):
        PureState(2, np.eye(4)[0], normalized=True)


def test_make_state_ghz4():
    amps = np.zeros(16)
    amps[0] = amps[15] = S2
    s = make_state(4, amps)
    assert s.amplitude((0, 0, 0, 0)) == pytest.approx(S2)
    assert s.amplitude((1, 1, 1, 1)) == pytest.approx(S2)


def test_make_state_errors():
    with pytest.raises(DimensionMismatch):
        make_state(3, [0.0] * 9)
    with pytest.raises(ZeroVector):
        make_state(2, [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(NonFinite):
        make_state(2, [1.0, np.nan, 0.0, 0.0])
    with pytest.raises(QubitOutOfRange):
        make_state(1, [1.0, 0.0])
    with pytest.raises(QubitOutOfRange):
        make_state(7, [1.0] * 128)
    with pytest.raises(QubitOutOfRange):
        make_state(4.0, [1.0] * 16)
    # a bit of 2 or -1 would point at another amplitude
    for bits in ((0, 2), (0, -1), (0, 1.0), (True, 0)):
        with pytest.raises(QubitOutOfRange):
            index_of_bits(bits)


def test_normalize():
    s = normalize(make_state(2, [2, 0, 0, 0]))
    np.testing.assert_allclose(s.amps, [1, 0, 0, 0])
    assert s.norm == 1.0

    ghz_raw = np.zeros(16)
    ghz_raw[0] = ghz_raw[15] = 1.0
    g = normalize(make_state(4, ghz_raw))
    assert g.amplitude((0, 0, 0, 0)) == pytest.approx(S2, abs=1e-15)

    again = normalize(g)
    np.testing.assert_allclose(again.amps, g.amps, atol=1e-15)


def test_apply_identity_and_flip():
    s = make_state(2, [1, 0, 0, 0])
    ident = local_unitary(np.eye(2), qubit=1)
    np.testing.assert_allclose(apply_local_unitary(s, ident).amps, s.amps)

    flip = local_unitary(np.array([[0, 1], [1, 0]]), qubit=2)
    out = apply_local_unitary(s, flip)
    assert out.amplitude((0, 1)) == pytest.approx(1.0)


def test_apply_errors():
    s = make_state(2, [1, 0, 0, 0])
    with pytest.raises(QubitOutOfRange):
        apply_local_unitary(s, local_unitary(np.eye(2), qubit=3))
    with pytest.raises(NonUnitary):
        local_unitary(np.array([[1, 1], [0, 1]]), qubit=1)


def test_typed_errors_of_normalize_local_unitary_and_inner():
    # a state built directly skips `make_state`'s checks; normalize still refuses it
    with pytest.raises(ZeroVector):
        normalize(PureState(4, np.zeros(16, dtype=complex)))
    with pytest.raises(NonUnitary, match="2x2"):
        local_unitary(np.eye(3), 1)
    with pytest.raises(NonUnitary, match="determinant"):
        local_unitary(np.diag([1, -1]), 1, special=True)
    with pytest.raises(DimensionMismatch):
        inner(random_state(2, 3), random_state(3, 3))


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("entry", range(4))
def test_non_finite_matrices_are_not_unitary(bad, entry):
    state = random_state(3, 19)
    for base in (np.eye(2), np.array([[0, 1], [-1, 0]]), np.array([[1, 1], [-1, 1]]) / np.sqrt(2)):
        m = base.astype(complex)
        m.flat[entry] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for special in (False, True):
                with pytest.raises(NonUnitary):
                    local_unitary(m, 1, special=special)
            for qubit in (1, 3):
                with pytest.raises(NonUnitary):
                    apply_local_unitary(state, LocalUnitary(m, qubit))


def _tensordot_apply(state, u):
    """`apply_local_unitary` as first written, through `np.tensordot`."""
    ax = u.qubit - 1
    psi = np.moveaxis(np.tensordot(u.matrix, state.tensor(), axes=([1], [ax])), 0, ax)
    return np.ascontiguousarray(psi).reshape(-1)


def test_apply_matches_the_tensordot_form_bit_for_bit():
    rng = np.random.default_rng(23)
    for trial in range(300):
        n = 2 + trial % 5
        state = random_state(n, (23, trial))
        if trial % 3 == 0:     # unnormalized, with exact zeros and negative zeros
            scales = rng.choice([0.0, -0.0, 1e-200, 3.0, 1e150], 1 << n)
            scales[0] = 3.0
            state = make_state(n, state.amps * scales)
        for qubit in range(1, n + 1):
            u = (random_special_unitary((29, trial), qubit) if trial % 2
                 else local_unitary(haar_u2(rng), qubit))
            got = apply_local_unitary(state, u)
            assert got.amps.tobytes() == _tensordot_apply(state, u).tobytes(), (trial, qubit)
            assert not got.amps.flags.writeable


def test_apply_preserves_norm():
    for trial in range(1000):
        n = 2 + trial % 3
        s = random_state(n, (11, trial))
        u = random_special_unitary((13, trial), 1 + trial % n)
        out = apply_local_unitary(s, u)
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


def test_pair_det_transformation_law():
    """Acting on qubit 3 with the one-parameter unitary [[1,-x*],[x,1]]/sqrt(1+|x|^2)
    maps the spectator-1 pair det to
    (D1 + x^2 D0 + x (g000 + g001)) / (1 + |x|^2)."""
    rng = np.random.default_rng(42)
    for trial in range(50):
        s = random_state(3, (5, trial))
        x = complex(rng.standard_normal(), rng.standard_normal())
        norm = np.sqrt(1 + abs(x) ** 2)
        u = local_unitary(np.array([[1, -np.conj(x)], [x, 1]]) / norm, qubit=3)
        out = apply_local_unitary(s, u)

        def pair_dets(state):
            t = state.tensor()
            d = [t[0, 0, b] * t[1, 1, b] - t[0, 1, b] * t[1, 0, b] for b in (0, 1)]
            g000 = t[0, 0, 0] * t[1, 1, 1] - t[1, 0, 0] * t[0, 1, 1]
            g001 = t[0, 0, 1] * t[1, 1, 0] - t[1, 0, 1] * t[0, 1, 0]
            return d[0], d[1], g000, g001

        d0, d1, g000, g001 = pair_dets(s)
        expected = (d1 + x ** 2 * d0 + x * (g000 + g001)) / (1 + abs(x) ** 2)
        _, d1_new, _, _ = pair_dets(out)
        assert abs(d1_new - expected) < 1e-12


def test_permute_identity_and_swap():
    s = make_state(2, [0, 1, 0, 0])  # |01>
    np.testing.assert_allclose(permute_qubits(s, (1, 2)).amps, s.amps)
    out = permute_qubits(s, (2, 1))
    assert out.amplitude((1, 0)) == pytest.approx(1.0)


def test_permute_involution_exact():
    s = random_state(4, 3)
    twice = permute_qubits(permute_qubits(s, (1, 2, 4, 3)), (1, 2, 4, 3))
    assert np.array_equal(twice.amps, s.amps)


def test_permute_inverse_round_trip():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = 4 if trial % 2 == 0 else 5
        s = random_state(n, (17, trial))
        perm = tuple(rng.permutation(n) + 1)
        inv = [0] * n
        for old, new in enumerate(perm, start=1):
            inv[new - 1] = old
        back = permute_qubits(permute_qubits(s, perm), tuple(inv))
        assert np.array_equal(back.amps, s.amps)


def test_permute_errors():
    s = random_state(3, 0)
    with pytest.raises(InvalidPermutation):
        permute_qubits(s, (1, 1, 2))
    # int() would read 1.5 as the identity, 2.9 as a swap and True as qubit 1
    for perm in ((1.5, 2), (2.9, 1), (True, 2)):
        with pytest.raises(InvalidPermutation):
            permute_qubits(random_state(2, 0), perm)
    with pytest.raises(InvalidPermutation):
        permute_qubits(random_state(4, 0), (True, 2, 3, 4))


def _transposed(state, perm):
    """`permute_qubits` as an axis transpose: output axis j-1 takes the input
    axis that maps to position j."""
    axes = [perm.index(j) for j in range(1, state.n_qubits + 1)]
    return np.ascontiguousarray(state.tensor().transpose(axes)).reshape(-1)


def test_permute_matches_the_axis_transpose_byte_for_byte():
    rng = np.random.default_rng(8231)
    perms = {n: list(permutations(range(1, n + 1))) for n in (2, 3, 4)}
    # numpy integers, as a caller's array would hold them
    perms.update({n: [tuple(rng.permutation(n) + 1) for _ in range(20)] for n in (5, 6)})
    for n, group in perms.items():
        haar = random_state(n, (8233, n))
        for scale in (1.0, 1e200, 1e-200):
            s = make_state(n, haar.amps * scale)
            for perm in group:
                out = permute_qubits(s, perm)
                assert out.amps.tobytes() == _transposed(s, perm).tobytes()
                assert not out.amps.flags.writeable


def test_bad_permutations_leave_the_table_cache_alone():
    s = random_state(4, 0)
    permute_qubits(s, (2, 1, 3, 4))
    size = states_module._permutation_table.cache_info().currsize
    for perm in ((1.0, 2, 3, 4), (True, 2, 3, 4), (2, 1, 1, 4), (0, 2, 3, 4),
                 (1, 2, 3, 5), (1, 2, 3), (1, 2, 3, 4, 5)):
        for _ in range(2):
            with pytest.raises(InvalidPermutation):
                permute_qubits(s, perm)
    assert states_module._permutation_table.cache_info().currsize == size


def test_random_state_determinism_and_norm():
    a = random_state(4, 123)
    b = random_state(4, 123)
    assert np.array_equal(a.amps, b.amps)
    assert abs(np.linalg.norm(a.amps) - 1.0) < 1e-12
    c = random_state(4, 124)
    assert abs(inner(a, c)) < 1.0
    with pytest.raises(QubitOutOfRange):
        random_state(1, 0)
    with pytest.raises(QubitOutOfRange):
        random_state(4.0, 0)


def test_random_special_unitary_contract():
    for trial in range(50):
        u = random_special_unitary((29, trial), qubit=1)
        m = u.matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
    # x = 0 limit of the one-parameter form is the identity
    m0 = np.array([[1, -0.0], [0.0, 1]]) / np.sqrt(1 + 0.0)
    np.testing.assert_allclose(m0, np.eye(2))
