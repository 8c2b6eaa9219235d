"""hypothesis properties of the four-qubit invariants on seeded random states.

Every example is a seed, so a failure names the seed that rebuilds its state.
Agreement is the degree-scaled rule |a - b| <= 1e-9 * max(|a|, |b|, norm**deg),
whose floor norm**deg is 1 on these unit states.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scramble_special
from negfonts import aggregate_invariants, i4, permute_qubits, random_state, triple_invariants

TOL = 1e-9
PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def close(a, b) -> bool:
    return abs(a - b) <= TOL * max(abs(a), abs(b), 1.0)


@PROPERTY_SETTINGS
@given(seed=seeds, rotation_seed=seeds)
def test_invariants_unchanged_under_special_local_unitaries(seed, rotation_seed):
    state = random_state(4, seed)
    rotated = scramble_special(state, rotation_seed)
    assert close(i4(state), i4(rotated))
    for singled in (1, 2, 3, 4):
        before = triple_invariants(state, singled)
        after = triple_invariants(rotated, singled)
        assert close(before.i48, after.i48)
        assert close(before.j12, after.j12)
        assert close(before.n_sq, after.n_sq)
        assert close(before.dres, after.dres)


def _matched(pairs_a, pairs_b) -> bool:
    """Multiset equality of (|i48|, n_sq) pairs, each within the degree-8 rule."""
    left = list(pairs_b)
    for a in pairs_a:
        hit = next((b for b in left if close(a[0], b[0]) and close(a[1], b[1])), None)
        if hit is None:
            return False
        left.remove(hit)
    return True


@PROPERTY_SETTINGS
@given(seed=seeds, perm=st.permutations((1, 2, 3, 4)))
def test_invariants_permute_with_the_qubits(seed, perm):
    state = random_state(4, seed)
    moved = permute_qubits(state, perm)
    before = aggregate_invariants(state)
    after = aggregate_invariants(moved)
    assert close(before.i4, after.i4)
    assert close(before.i48, after.i48)
    assert _matched([(abs(tr.i48), tr.n_sq) for tr in before.triples],
                    [(abs(tr.i48), tr.n_sq) for tr in after.triples])
