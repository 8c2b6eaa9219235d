"""Major-class assignment, font minimization, family closed forms."""

import importlib
import math
import warnings
from functools import reduce
from itertools import count, product

import numpy as np
import pytest

from helpers import scramble_special
from negfonts import (
    aggregate_invariants,
    catalog_state,
    classify,
    count_nonzero_fonts,
    enumerate_fonts,
    family_expected,
    font_counts,
    font_det,
    font_minimize,
    make_state,
    normalize,
    random_state,
    three_qubit_report,
    triple_invariants,
)
from negfonts.classify import _decide, _rotated_amps
from negfonts.errors import (BadBudget, BadTolerance, MissingParameter, SearchDrift,
                             UnknownFamily, WrongArity)
from negfonts.fonts import _minors
from negfonts.invariants import _move_last

classify_module = importlib.import_module("negfonts.classify")


def major(name, params=None, **kwargs):
    return classify(normalize(catalog_state(name, params)), **kwargs).major_class


def test_worked_examples():
    assert major("Psi_ab", {"a": 1.0, "b": 1.0}) == "I"
    assert major("Psi_a", {"a": 1.0}) == "II"
    assert major("G_abcd", {"a": 1.0, "b": 2.0, "c": 3.0, "d": 5.0}) == "III"
    assert major("G_abcd", {"a": 1.0 + 0.5j, "b": 2.0, "c": 3.0 - 1j, "d": 5.0}) == "III"
    assert major("G_abcd", {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0}) == "IV"  # G_a00a
    assert major("G_abcd", {"a": 0.0, "b": 0.7, "c": 0.7, "d": 0.0}) == "IV"  # G_0bb0
    assert major("GHZ4") == "IV"
    assert major("W4") == "VII"
    assert major("G_abcd", {"a": 0.8, "b": 0.8, "c": 0.8, "d": 0.8}) == "VII"  # G_aaaa
    assert major("C1") == "III"
    assert major("C2") == "III"
    assert major("C3") == "III"
    assert major("HS") == "VII"
    assert major("BrownPhi") == "II"


def test_unentangled_states():
    basis = make_state(4, np.eye(16)[3])
    assert classify(basis).major_class == "unentangled"
    # full product of two single-qubit kets and a pair-product is NOT unentangled
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    pairpair = make_state(4, np.kron(bell, bell))
    assert classify(pairpair).major_class == "VII"


@pytest.mark.parametrize("exponent", (-250, -100, -13, 0, 100, 200, 250))
@pytest.mark.parametrize("name, expected", (("GHZ4", "IV"), ("W4", "VII"), ("C1", "III")))
def test_classification_scale_free(name, expected, exponent):
    base = catalog_state(name)
    scaled = make_state(4, base.amps * 10.0 ** exponent)
    assert classify(scaled).major_class == expected
    ref = aggregate_invariants(normalize(base))
    got = aggregate_invariants(normalize(scaled))
    assert got.i4 == pytest.approx(ref.i4, abs=1e-12)
    assert got.tau48 == pytest.approx(ref.tau48, abs=1e-12)
    for a, b in zip(got.triples, ref.triples):
        assert (a.i48, a.n_sq, a.dres) == pytest.approx((b.i48, b.n_sq, b.dres), abs=1e-12)


@pytest.mark.parametrize("exponent", (-250, -100, -13, 0, 100, 200, 250))
@pytest.mark.parametrize("name", ("GHZ4", "W4", "C1"))
def test_font_counts_scale_free(name, exponent):
    base = catalog_state(name)
    scaled = make_state(4, base.amps * 10.0 ** exponent)
    assert scaled.norm == pytest.approx(base.norm * 10.0 ** exponent, rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no overflow or underflow on the way
        for p in (1, 2, 3, 4):
            assert font_counts(scaled, p) == font_counts(normalize(base), p)


@pytest.mark.parametrize("name, expected", (("GHZ4", "IV"), ("W4", "VII"), ("C1", "III")))
def test_classification_where_the_modulus_overflows(name, expected):
    # the largest parts are +-1.7e308: finite, but their modulus is inf
    base = catalog_state(name)
    huge = make_state(4, base.amps / np.max(np.abs(base.amps)) * 1.7e308 * (1 + 1j))
    assert np.isinf(np.max(np.abs(huge.amps)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = normalize(huge)
        assert np.isinf(huge.norm)
        assert classify(huge).major_class == expected
        for p in (1, 2, 3, 4):
            assert font_counts(huge, p) == font_counts(normalize(base), p)
    phase = (1 + 1j) / abs(1 + 1j)
    np.testing.assert_allclose(unit.amps, normalize(base).amps * phase, rtol=0, atol=1e-15)


def test_requires_four_qubits():
    with pytest.raises(WrongArity):
        classify(normalize(catalog_state("GHZ3")))


@pytest.mark.parametrize("tol", (-1.0, -1e-300, float("nan"), float("inf")))
def test_bad_tolerance_is_typed(tol):
    w4 = normalize(catalog_state("W4"))
    for call in (lambda: classify(w4, tol=tol),
                 lambda: font_minimize(w4, restarts=1, iters=1, tol=tol),
                 lambda: count_nonzero_fonts(w4, 1, 2, tol),
                 lambda: font_counts(w4, 1, tol),
                 lambda: three_qubit_report(catalog_state("W3"), tol)):
        with pytest.raises(BadTolerance):
            call()
    # a zero tolerance stays valid: W4 is still class VII
    assert classify(w4, tol=0.0).major_class == "VII"


@pytest.mark.parametrize("budget", (
    {"seed": -1}, {"seed": 2.0}, {"seed": True}, {"restarts": -1}, {"restarts": 2.5},
    {"restarts": True}, {"iters": 0}, {"iters": 60.0}, {"iters": False},
), ids=repr)
def test_bad_budget_is_typed(budget):
    # checked before any work, so also on a state that needs no search
    ghz = normalize(catalog_state("GHZ4"))
    for state in (ghz, make_state(4, np.eye(16)[0])):
        for use_font_min in (True, False):
            with pytest.raises(BadBudget):
                classify(state, use_font_min=use_font_min, **{"restarts": 2, **budget})
    with pytest.raises(BadBudget):
        font_minimize(ghz, **{"restarts": 2, "iters": 5, **budget})
    # numpy integers are integers
    assert classify(ghz, use_font_min=True, seed=np.int64(3), restarts=np.int32(1),
                    iters=np.uint8(20)).major_class == "IV"


@pytest.mark.parametrize("restarts", (100_001, 10**15))
def test_restarts_over_the_cap_are_typed(monkeypatch, restarts):
    # refused before any work: the state is never normalized, and no row of
    # angles per restart is set up
    def untouched(state):
        raise AssertionError("the budget must be checked first")

    monkeypatch.setattr(classify_module, "normalize", untouched)
    ghz = catalog_state("GHZ4")
    with pytest.raises(BadBudget, match="restarts must be an integer in 0..100000"):
        font_minimize(ghz, restarts=restarts)
    with pytest.raises(BadBudget, match="restarts must be an integer in 0..100000"):
        classify(ghz, use_font_min=True, restarts=restarts)


def test_determinism():
    a = classify(normalize(catalog_state("Psi_ab", {"a": 1.0, "b": 1.0})))
    b = classify(normalize(catalog_state("Psi_ab", {"a": 1.0, "b": 1.0})))
    assert a == b


def test_signature_recorded():
    report = classify(normalize(catalog_state("GHZ4")))
    sig = report.signature
    assert not sig.i48_zero
    assert sig.dres_zero
    assert sig.delta_zero
    assert (sig.n2, sig.n3, sig.n4) == (0, 0, 1)


def test_decision_totality():
    rng = np.random.default_rng(0)
    classes = {"I", "II", "III", "IV", "V", "VI", "VII", "unresolved"}
    for flags in product((False, True), repeat=3):
        for _ in range(4):
            counts = rng.integers(0, 3, size=3)
            cls, _notes = _decide(*flags, *counts)
            assert cls in classes


def test_catalog_frame_notes():
    # no note compares the invariant pattern (dres_zero, delta_zero) with a
    # typical one: in these worked examples' own frames it said nothing
    residual = ("class III residual reading: dres zero",)
    expected = {
        ("C1", None): residual,
        ("C2", None): residual,
        ("C3", None): residual,
        ("Dicke42", None): residual,
        ("G_abcd", (1.0, 2.0, 3.0, 5.0)): residual,
        ("BrownPhi", None): ("i48 nonzero but no 4-way font above tolerance; "
                             "representation is far from canonical",),
        ("Psi_ab", (1.0, 1.0)): (),
    }
    for (name, values), notes in expected.items():
        params = dict(zip("abcd", values)) if values else None
        assert classify(normalize(catalog_state(name, params))).notes == notes, name


def test_family_expected_matches_numeric():
    rng = np.random.default_rng(21)
    grids = {
        "G_abcd": ("a", "b", "c", "d"),
        "L_abc2": ("a", "b", "c"),
        "L_a2b2": ("a", "b"),
        "L_a2_0_3p1t": ("a",),
        "Psi_ab": ("a", "b"),
    }
    for family, names in grids.items():
        for _ in range(12):
            params = {p: complex(rng.standard_normal(), rng.standard_normal())
                      for p in names}
            state = catalog_state(family, params)
            head = triple_invariants(state, singled=4)
            expected = family_expected(family, params)
            scale = float(np.linalg.norm(state.amps))
            assert head.i48 == pytest.approx(expected["i48"],
                                             rel=1e-9, abs=1e-9 * scale ** 8)
            assert head.n_sq == pytest.approx(expected["n_triple_sq"],
                                              rel=1e-9, abs=1e-9 * scale ** 8)
            assert head.dres == pytest.approx(expected["dres"],
                                              rel=1e-9, abs=1e-9 * scale ** 8)
            assert head.delta24 == pytest.approx(expected["delta24"],
                                                 rel=1e-9, abs=1e-9 * scale ** 24)


def test_family_expected_degenerate_lines():
    # a = c wipes out the four-body correlations of the three-parameter family
    expected = family_expected("L_abc2", {"a": 0.8, "b": 1.9, "c": 0.8})
    assert abs(expected["i48"]) < 1e-15
    state = catalog_state("L_abc2", {"a": 0.8, "b": 1.9, "c": 0.8})
    assert abs(triple_invariants(state).i48) < 1e-12

    expected = family_expected("L_a2b2", {"a": 1.3, "b": 0.4})
    assert expected["dres"] == pytest.approx(0.0, abs=1e-15)
    assert abs(expected["delta24"]) < 1e-15


def test_family_expected_errors():
    with pytest.raises(UnknownFamily):
        family_expected("nosuch", {})
    with pytest.raises(UnknownFamily):
        family_expected("Psi_a", {"a": 1.0})
    with pytest.raises(MissingParameter):
        family_expected("G_abcd", {"a": 1.0})
    # the parameters catalog_state rejects
    for params in ({"a": "x", "b": 1}, {"a": None, "b": 1}, {"a": 1, "b": 1, "z": 1}):
        with pytest.raises(MissingParameter):
            family_expected("Psi_ab", params)


def test_font_minimize_fixed_points():
    ghz = normalize(catalog_state("GHZ4"))
    minimized, trace = font_minimize(ghz, restarts=2, iters=100, seed=0)
    assert count_nonzero_fonts(minimized, 1, 4) == 1
    assert count_nonzero_fonts(minimized, 1, 3) == 0
    assert count_nonzero_fonts(minimized, 1, 2) == 0
    # the accepted objective never increases along the trace
    objectives = [row[1:] for row in trace]
    assert all(objectives[i + 1] <= objectives[i] for i in range(len(objectives) - 1))

    basis = make_state(4, np.eye(16)[0])
    minimized, _ = font_minimize(basis, restarts=1, iters=50, seed=0)
    assert sum(count_nonzero_fonts(minimized, 1, k) for k in (2, 3, 4)) == 0


def test_font_minimize_scale_free():
    # the search runs on the state's direction: a power-of-two scale is exact,
    # so every scaled input normalizes to the same unit vector as the unscaled one
    for idx, name in enumerate(("GHZ4", "W4", "C1")):
        base = make_state(4, scramble_special(normalize(catalog_state(name)), (5323, idx)).amps)
        ref, ref_trace = font_minimize(base, restarts=4, iters=60, seed=1)
        assert ref.norm == pytest.approx(1.0, abs=1e-12)
        for k in (-900, -100, 100, 900):
            got, trace = font_minimize(make_state(4, base.amps * 2.0 ** k),
                                       restarts=4, iters=60, seed=1)
            assert got.amps.tobytes() == ref.amps.tobytes(), (name, k)
            assert trace == ref_trace, (name, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for scale in (1e-200, 1e-30, 1e30, 1e200):
                got, _ = font_minimize(make_state(4, base.amps * scale),
                                       restarts=4, iters=60, seed=1)
                if name == "GHZ4":
                    counts = [count_nonzero_fonts(got, 1, k) for k in (4, 3, 2)]
                    assert counts == [1, 0, 0], scale


def test_font_minimize_recovers_ghz_counts():
    ghz = normalize(catalog_state("GHZ4"))
    hits = 0
    for trial in range(10):
        scrambled = scramble_special(ghz, (2203, trial))
        minimized, _ = font_minimize(scrambled, restarts=4, iters=60, seed=trial)
        counts = tuple(count_nonzero_fonts(minimized, 1, k) for k in (4, 3, 2))
        hits += counts == (1, 0, 0)
    assert hits >= 9


def test_classification_stable_under_scrambling():
    # C1 needs a larger budget: its orbit holds an equal-count frame with a
    # different coherence-order split, found more often than the canonical one
    targets = {"GHZ4": ("IV", 4), "W4": ("VII", 4), "C1": ("III", 16)}
    for idx, (name, (expected, restarts)) in enumerate(targets.items()):
        base = normalize(catalog_state(name))
        for trial in range(3):
            scrambled = scramble_special(base, (2309, idx, trial))
            report = classify(scrambled, use_font_min=True, seed=trial,
                              restarts=restarts, iters=60)
            assert report.major_class == expected, (name, trial, report)


def plausible_misses(trials, rate, alpha=1e-3):
    """Most misses of `trials` that are still plausible (P(X >= m) >= alpha) at `rate`."""
    tail, misses = 1.0, 0
    while misses < trials:
        tail -= math.comb(trials, misses) * rate ** misses * (1 - rate) ** (trials - misses)
        if tail < alpha:
            break
        misses += 1
    return misses


def test_plausible_misses():
    assert plausible_misses(4, 0.15) == 3
    assert plausible_misses(24, 0.15) == 10
    assert plausible_misses(10, 0.0) == 0


def test_c1_recovery_rate():
    # C1's orbit holds an equal-count class-I frame that 16 restarts settle in
    # for about 1 search in 7; more misses than that rate explains (p < 1e-3)
    # means the search lost quality
    trials, rate = 24, 0.15
    base = normalize(catalog_state("C1"))
    missed = []
    for trial in range(trials):
        scrambled = scramble_special(base, (5303, trial))
        report = classify(scrambled, use_font_min=True, seed=trial, restarts=16, iters=60)
        if report.major_class != "III":
            missed.append((trial, report.major_class))
    assert len(missed) <= plausible_misses(trials, rate), missed


def test_w4_search_reaches_its_three_font_frame():
    # W4's own frame has three 2-way fonts; the start frame leads the search
    # there, where from the raw input it ended at 6-24 fonts with four 4-way
    # fonts that contradict i48 = 0
    base = normalize(catalog_state("W4"))
    ends = []
    for trial in range(8):
        scrambled = scramble_special(base, (5347, trial))
        minimized, trace = font_minimize(scrambled, restarts=4, iters=60, seed=trial)
        counts = tuple(count_nonzero_fonts(minimized, 1, k) for k in (2, 3, 4))
        ends.append((counts, trace[-1][2]))
    assert ends.count(((3, 0, 0), 0)) >= 7, ends


def test_c2_search_needs_the_gauge_and_the_clifford_moves():
    # these scrambles of C2 ended at (n2, n3, n4) = (2, 2, 0) with penalty 1,
    # read as class I, when the Powell search started from `_start_frame`
    # alone; a phase gauge and single-qubit Clifford moves after the search
    # rescued them.  C2 lies on the G_abcd orbits, so its answer is now its
    # magic-basis frame, (2, 0, 2), with no search, and needs neither
    base = normalize(catalog_state("C2"))
    for trial in (1, 7, 14, 17):
        scrambled = scramble_special(base, (9941, 13, trial))
        report = classify(scrambled, use_font_min=True, seed=trial, restarts=16, iters=60)
        sig = report.signature
        assert (report.major_class, sig.n2, sig.n3, sig.n4) == ("III", 2, 0, 2), (trial, report)
        assert not sig.i48_zero     # 4-way fonts agree with i48: penalty 0


def test_classify_counts_the_frame_font_minimize_returns():
    # a scramble and its normalization differ in their last bits, and these
    # searches end at different counts from the two; both entry points must
    # search the normalization
    for name, trials in (("C2", (2, 18, 20)), ("Dicke42", (0, 1, 2))):
        base = normalize(catalog_state(name))
        for t in trials:
            state = scramble_special(base, (9941, 13, t))
            sig = classify(state, use_font_min=True, seed=t, restarts=16,
                           iters=60).signature
            frame, _trace = font_minimize(state, restarts=16, iters=60, seed=t)
            counts = font_counts(frame, 1)
            assert (sig.n2, sig.n3, sig.n4) == (counts[2], counts[3], counts[4]), (name, t)


def test_stall_count_is_the_font_count_of_scores():
    # the stop hook counts each frame's surrogate moduli above its threshold,
    # which must be the first `_scores` field; coarse tolerances give sparse counts
    rng = np.random.default_rng(5311)
    states = [normalize(catalog_state(name)) for name in ("GHZ4", "W4", "C1")]
    states.append(random_state(4, 5311))
    for state in states:
        thetas = rng.uniform(0, 2 * np.pi, (16, 8))
        thetas[::2, ::2] = 0.0              # some frames keep the sparse catalog form
        frames = _rotated_amps(state.amps, thetas)
        seen = []
        values = classify_module._surrogate(state.amps, thetas, seen.append)
        np.testing.assert_array_equal(values, classify_module._surrogate(state.amps, thetas))
        for tol in (1e-9, 1e-3, 0.05):
            stall = classify_module._Stall(tol)
            stall.watch(seen[0])
            counts = classify_module._scores(frames, tol, False)[:, 0]
            np.testing.assert_array_equal((seen[0] > stall.threshold).sum(-1), counts)
            assert (stall.best, stall.improved) == (counts.min(), 1)


def test_font_search_stops_once_its_best_count_stalls(monkeypatch):
    real = classify_module.minimize
    runs = []

    def spy(fun, x0, **options):
        result = real(fun, x0, **options)
        runs.append((options["stop"], result))
        return result

    monkeypatch.setattr(classify_module, "minimize", spy)
    patience = classify_module._STALL_ROUNDS
    # W4 has no magic-basis frame, so its search runs Powell
    scrambled = scramble_special(normalize(catalog_state("W4")), (5303, 99))
    minimized, _ = font_minimize(scrambled, restarts=4, iters=60, seed=1)
    monkeypatch.setattr(classify_module, "_STALL_ROUNDS", math.inf)
    unstopped, _ = font_minimize(scrambled, restarts=4, iters=60, seed=1)
    (stall, stopped), (_, full) = runs
    # the stop fired S rounds after the last improvement, well before Powell ended
    assert stopped.rounds == stall.rounds == stall.improved + patience
    assert stopped.rounds < full.rounds
    assert stopped.nfev < full.nfev
    for state in (minimized, unstopped):
        assert [count_nonzero_fonts(state, 1, k) for k in (4, 3, 2)] == [0, 0, 3]


def _counting_minimize(monkeypatch):
    calls = []
    real = classify_module.minimize

    def spy(*args, **options):
        calls.append(1)
        return real(*args, **options)

    monkeypatch.setattr(classify_module, "minimize", spy)
    return calls


def test_g_orbit_states_take_their_magic_frame_with_no_search(monkeypatch):
    # on the G_abcd orbits the magic-basis normal form is the answer; Powell
    # used to run on from it and sometimes left it for a class-I frame
    calls = _counting_minimize(monkeypatch)
    targets = [("GHZ4", None), ("C1", None), ("C2", None), ("Dicke42", None),
               ("G_abcd", {"a": 1, "b": 2, "c": 3, "d": 5}), ("BrownPhi", None)]
    for idx, (name, params) in enumerate(targets):
        for trial in range(3):
            state = scramble_special(normalize(catalog_state(name, params)), (5419, idx, trial))
            frame, trace = font_minimize(state, restarts=4, iters=60, seed=trial)
            unit = normalize(state)
            has_four_body = bool(abs(classify_module.i48(unit)) > 1e-9)
            magic = classify_module._magic_frame(unit.amps, has_four_body, 1e-9)
            assert frame.amps.tobytes() == magic.tobytes(), (name, trial)
            assert trace == [(step, *trace[0][1:]) for step in range(5)], (name, trial)
    assert not calls


def test_states_off_the_g_orbits_search_once(monkeypatch):
    calls = _counting_minimize(monkeypatch)
    ghz3_zero = make_state(4, np.kron(catalog_state("GHZ3").amps, np.eye(2)[0]))
    for idx, base in enumerate((normalize(catalog_state("W4")), ghz3_zero)):
        state = scramble_special(base, (5419, 9, idx))
        font_minimize(state, restarts=4, iters=60, seed=idx)
        assert len(calls) == idx + 1


def test_font_minimize_trace_layout():
    # the benchmark tracer reads restart wins from this layout: the start
    # frame, then one row per restart; the last row is the returned frame's
    # own objective, bit for bit
    for idx, name in enumerate(("GHZ4", "W4", "C1", "C2", "HS")):
        for restarts in (0, 1, 3):
            scrambled = scramble_special(normalize(catalog_state(name)), (5309, idx, restarts))
            frame, trace = font_minimize(scrambled, restarts=restarts, iters=20,
                                         seed=restarts)
            assert [row[0] for row in trace] == list(range(1 + restarts))
            assert all(len(row) == 5 for row in trace)
            objectives = [row[1:] for row in trace]
            assert all(b <= a for a, b in zip(objectives, objectives[1:])), (name, trace)
            has_four_body = bool(abs(classify_module.i48(scrambled)) > 1e-9)
            score = classify_module._scores(frame.amps, 1e-9, has_four_body)
            assert trace[-1][1:] == classify_module._row(score), (name, trace)


def _rz_phases(t):
    """The diagonal of Rz(t) = diag(exp(-i t/2), exp(i t/2))."""
    return np.exp(0.5j * t * np.array([-1, 1]))


def _euler_reference(b, g):
    ry = np.array([[np.cos(b / 2), -np.sin(b / 2)], [np.sin(b / 2), np.cos(b / 2)]])
    return ry @ np.diag(_rz_phases(g))


def _font_columns(spec):
    """Column pair of a qubit-1 font in the 2 x 8 amplitude matrix."""
    bits = dict(spec.spectators)
    bits.update(zip([q for q in spec.flip_set if q != 1], spec.pattern))
    col = sum(bits[q] << (4 - q) for q in (2, 3, 4))
    flip = sum(1 << (4 - q) for q in spec.flip_set if q != 1)
    return col, col ^ flip


def test_surrogate_kernels_match_references():
    specs = enumerate_fonts(4, 1)
    pairs = list(zip(*np.triu_indices(8, k=1)))
    positions = [pairs.index(tuple(sorted(_font_columns(spec)))) for spec in specs]
    assert sorted(positions) == list(range(len(pairs)))

    haar = random_state(4, 1301)
    rng = np.random.default_rng(1301)
    vectors = [haar.amps]
    for _ in range(50):
        thetas = rng.uniform(0, 2 * np.pi, 8)
        u = reduce(np.kron, [_euler_reference(*thetas[2 * q:2 * q + 2]) for q in range(4)])
        rotated = _rotated_amps(haar.amps, thetas)
        np.testing.assert_allclose(rotated, u @ haar.amps, rtol=0, atol=1e-13)
        vectors.append(rotated)
    for vec in vectors:
        state = make_state(4, vec)
        expected = [abs(font_det(state, spec)) for spec in specs]
        np.testing.assert_allclose(np.abs(_minors(vec))[positions], expected, rtol=0, atol=1e-15)


def test_font_minimize_drift_is_typed(monkeypatch):
    calls = count()
    monkeypatch.setattr(classify_module, "_invariant_fingerprint",
                        lambda state: np.full(9, float(next(calls))))
    with pytest.raises(SearchDrift):
        font_minimize(normalize(catalog_state("GHZ4")), restarts=1, iters=5)


def test_surrogate_and_objective_flat_along_a_angles():
    # a last Rz(a) on each qubit only puts phases on the amplitudes, and both
    # products of a minor pick up the same phase; this is why the search
    # leaves the four a angles out
    rng = np.random.default_rng(4211)
    states = [random_state(4, 4211 + k) for k in range(4)]
    states += [normalize(catalog_state(name)) for name in ("GHZ4", "W4", "C1")]
    for state in states:
        for k in range(8):
            thetas = rng.uniform(0, 2 * np.pi, 8)
            if k % 2:
                thetas[::2] = 0.0           # a catalog state keeps its sparse frame
            frame = _rotated_amps(state.amps, thetas)
            phased = [reduce(np.kron, map(_rz_phases, rng.uniform(0, 2 * np.pi, 4))) * frame
                      for _ in range(4)]
            # at zero angles the surrogate reads the vector it is given
            values = [classify_module._surrogate(vec, np.zeros(8)) for vec in phased]
            expected = classify_module._surrogate(state.amps, thetas)
            np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
            for has_four_body in (False, True):
                scores = classify_module._scores(np.vstack([frame, *phased]), 1e-9,
                                                 has_four_body)
                np.testing.assert_array_equal(scores[1:, [0, 1, 3]],
                                              np.broadcast_to(scores[0, [0, 1, 3]], (4, 3)))
                np.testing.assert_allclose(scores[1:, 2], scores[0, 2], rtol=0, atol=1e-12)


def _reference_rotated_amps(amps, thetas):
    """`_rotated_amps` as first written: the exponents as an elementwise
    product and sum, the Kronecker factors gathered from a concatenated
    (cos, sin, -sin) table of half angles, real factors in the matmuls."""
    thetas = np.asarray(thetas, dtype=float)
    lead = thetas.shape[:-1]
    z = np.exp(1j * (thetas[..., None] * classify_module._EXPONENTS).sum(-2))
    half = z[..., 16:]
    factors = np.concatenate([half.real, half.imag, -half.imag], -1)[..., classify_module._KRON]
    kron = factors[..., 0, :, :] * factors[..., 1, :, :]
    x = (z[..., :16] * amps).reshape(lead + (4, 4))
    rotated = kron[..., 0, :, :] @ x @ kron[..., 1, :, :]
    return rotated.reshape(lead + (16,))


def _reference_surrogate(amps, thetas):
    out = _reference_rotated_amps(amps, thetas)
    return (np.cumsum(np.sqrt(np.abs(_minors(out))), -1)[..., -1]
            + 0.5 * np.cumsum(np.sqrt(np.abs(out)), -1)[..., -1])


def _bits(values):
    return np.ascontiguousarray(values).tobytes()


def test_surrogate_rows_do_not_depend_on_the_batch_bit_for_bit():
    rng = np.random.default_rng(4219)
    thetas = rng.uniform(0, 2 * np.pi, (33, 8))
    thetas[3] = 0.0
    thetas[4] = -0.0
    zeros = rng.random((33, 8)) < 0.3
    thetas[20:][zeros[20:]] = rng.choice([0.0, -0.0], zeros[20:].sum())
    thetas[30] = rng.choice([0.0, -0.0, -1.5], 8)
    states = [normalize(catalog_state(name)) for name in ("GHZ4", "W4", "C1", "Dicke42")]
    states += [random_state(4, 4219 + k) for k in range(3)]
    for state in states:
        amps = state.amps
        kernels = ((_rotated_amps, _reference_rotated_amps),
                   (classify_module._surrogate, _reference_surrogate))
        for kernel, reference in kernels:
            alone = [kernel(amps, row) for row in thetas]
            assert _bits(kernel(amps, thetas)) == _bits(alone)
            assert _bits(reference(amps, thetas)) == _bits(alone)
            assert _bits([reference(amps, row) for row in thetas]) == _bits(alone)
            for size in range(1, 34):
                for start in range(0, 33, size):
                    batch = kernel(amps, thetas[start:start + size])
                    assert _bits(batch) == _bits(alone[start:start + size])


# four-qubit catalog states, with parameters for the families: c07's points
_START_FRAME_CATALOG = [
    *[(name, None) for name in ("GHZ4", "W4", "C1", "C2", "C3", "Dicke42", "HS", "BrownPhi")],
    ("Psi_ab", {"a": 1, "b": 1}), ("Psi_ab", {"a": 1, "b": 2}), ("Psi_a", {"a": 1}),
    ("G_abcd", {"a": 1, "b": 2, "c": 3, "d": 5}),
    ("G_abcd", {"a": 1 + 0.5j, "b": 2, "c": 3 - 1j, "d": 5}),
    ("G_abcd", {"a": 1, "b": 1, "c": 2, "d": 3}), ("L_abc2", {"a": 1, "b": 2, "c": 3}),
    ("L_a2b2", {"a": 1, "b": 2}), ("L_a2_0_3p1t", {"a": 1}),
]


def _start_frame_inputs():
    """Unit vectors: the catalog states as written and scrambled, Haar states,
    basis and product states."""
    rng = np.random.default_rng(5351)
    states = [normalize(catalog_state(name, params)) for name, params in _START_FRAME_CATALOG]
    states += [scramble_special(state, (5351, k)) for k, state in enumerate(states)]
    states += [random_state(4, (5351, k)) for k in range(8)]
    states += [make_state(4, np.eye(16)[k]) for k in (0, 5, 15)]
    states += [make_state(4, reduce(np.kron, [rng.standard_normal(2) + 1j * rng.standard_normal(2)
                                              for _ in range(4)])) for _ in range(3)]
    states += [make_state(4, np.kron(random_state(2, (5351, 90 + k)).amps,
                                     random_state(2, (5351, 95 + k)).amps)) for k in range(3)]
    # qubit 4 nearly |0>: the quartic's leading coefficient, 2.5e-321, is
    # 1e320 below its constant term
    ghz3 = normalize(catalog_state("GHZ3")).amps
    states += [make_state(4, np.kron(ghz3, [1, 1e-80]))]
    return [normalize(state) for state in states]


def test_root_gates_are_special_unitary_and_zero_their_slice():
    for state in _start_frame_inputs():
        for q in range(4):
            gates = classify_module._root_gates(state.amps, q)
            assert len(gates) <= 4
            np.testing.assert_allclose(gates @ gates.conj().swapaxes(-1, -2),
                                       np.broadcast_to(np.eye(2), gates.shape), atol=1e-12)
            np.testing.assert_allclose(np.linalg.det(gates), 1, atol=1e-12)
            for vec in classify_module._apply_gates(state.amps, q, gates):
                rotated = _move_last(make_state(4, vec), q + 1)
                assert abs(classify_module._quartic_coefficients(rotated)[0]) <= 1e-12


def test_start_frame_is_a_never_worse_local_unitary_image():
    floor = classify_module._START_FLOOR
    for state in _start_frame_inputs():
        has_four_body = bool(abs(triple_invariants(state).i48) > 1e-9)
        frame = classify_module._start_frame(state.amps, has_four_body)
        assert frame.shape == (16,) and np.all(np.isfinite(frame))
        drift = np.abs(classify_module._invariant_fingerprint(make_state(4, frame))
                       - classify_module._invariant_fingerprint(state))
        assert drift.max() <= 1e-12
        assert abs(np.linalg.norm(frame) - 1) <= 1e-12
        got, before = (classify_module._scores(v, floor, has_four_body).tolist()
                       for v in (frame, state.amps))
        assert got <= before
        # a frame with the input's count and penalty is not taken
        assert got[:2] < before[:2] or frame.tobytes() == state.amps.tobytes()
        # a power-of-two scale normalizes to the same unit vector, bit for bit
        # (below 2**-200 the 1e-80 amplitude above would underflow)
        ref = classify_module._start_frame(normalize(state).amps, has_four_body)
        for k in (-200, -3, 7, 900):
            scaled = normalize(make_state(4, state.amps * 2.0 ** k))
            assert (classify_module._start_frame(scaled.amps, has_four_body).tobytes()
                    == ref.tobytes()), k
    # no root frame simplifies a Haar state: its search starts from the input
    for k in range(8):
        haar = random_state(4, (5353, k))
        assert classify_module._start_frame(haar.amps, True).tobytes() == haar.amps.tobytes()


_G_ORBIT = [("GHZ4", None), ("C1", None), ("C2", None), ("C3", None), ("Dicke42", None),
            ("HS", None), ("BrownPhi", None)] + [("G_abcd", params) for params in (
    {"a": 1, "b": 2, "c": 3, "d": 5}, {"a": 1 + 0.5j, "b": 2, "c": 3 - 1j, "d": 5},
    {"a": 1, "b": 0, "c": 0, "d": 1}, {"a": 0, "b": 0.7, "c": 0.7, "d": 0},
    {"a": 0.8, "b": 0.8, "c": 0.8, "d": 0.8})]


def test_magic_frame_is_a_local_unitary_image_on_the_g_orbits():
    for idx, (name, params) in enumerate(_G_ORBIT):
        base = normalize(catalog_state(name, params))
        for trial in range(4):
            state = scramble_special(base, (5413, idx, trial))
            has_four_body = bool(abs(triple_invariants(state).i48) > 1e-9)
            frame = classify_module._magic_frame(state.amps, has_four_body, 1e-9)
            assert frame is not None, (name, params, trial)
            drift = np.abs(classify_module._invariant_fingerprint(make_state(4, frame))
                           - classify_module._invariant_fingerprint(state))
            assert drift.max() <= 1e-12, (name, params, trial)
            assert abs(np.linalg.norm(frame) - 1) <= 1e-12


def test_magic_frame_is_none_off_the_g_orbits():
    ghz3 = catalog_state("GHZ3").amps
    zero = np.eye(2)[0]
    bases = [normalize(catalog_state("W4")), make_state(4, np.kron(ghz3, zero)),
             make_state(4, np.kron(zero, ghz3))]
    states = [scramble_special(base, (5417, k, trial))
              for k, base in enumerate(bases) for trial in range(4)]
    states += [random_state(4, (5417, k)) for k in range(24)]
    for state in states + bases:
        for has_four_body in (False, True):
            assert classify_module._magic_frame(normalize(state).amps, has_four_body,
                                                1e-9) is None
