"""Correlation-based classification of four-qubit states.

The seven major classes are keyed by which coherence orders survive in a
local-unitary canonical form: class I keeps 2-, 3-, and 4-way fonts, II keeps
4+3, III keeps 4+2, IV only 4, V keeps 3+2, VI only 3, VII only 2.  Four-body
correlations are certified by the degree-8 invariant, residual three-way
correlations by n_sq - 2*|i48| maximized over triples, so the decision uses
the degree-8 invariant and that residual together with the font counts of the
(optionally search-minimized) representation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from typing import Mapping

import numpy as np

from .errors import (BadBudget, MissingParameter, NonFiniteResult, SearchDrift,
                     UnknownFamily, WrongArity, check_tolerance)
from .fonts import DEFAULT_TOL, _det_moduli, _det_orders, _font_minors, font_counts
from .invariants import (_quartic_coefficients, _quartic_invariants, aggregate_invariants, i4,
                         i48, triple_invariants)
from .powell import minimize
from .states import PureState, normalize

UNENTANGLED = "unentangled"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class ClassSignature:
    i48_zero: bool
    dres_zero: bool
    delta_zero: bool
    n2: int
    n3: int
    n4: int
    i48_max: float          # max |i48| over the four triples
    dres_max: float
    delta_max: float


@dataclass(frozen=True)
class ClassReport:
    major_class: str
    signature: ClassSignature
    minimized_state_used: bool
    notes: tuple[str, ...]
    tolerance: float
    tau48: float


def _cut_entangled(unit: PureState, p: int, tol: float) -> bool:
    """Qubit p is entangled with the rest iff some font for p has nonzero det."""
    return bool(np.any(np.abs(_font_minors(unit, p)) > tol))


def _decide(i48_zero: bool, dres_zero: bool, delta_zero: bool,
            n2: int, n3: int, n4: int) -> tuple[str, list[str]]:
    """Map a signature to a major class; returns (class, notes)."""
    notes: list[str] = []
    if not i48_zero:
        # four-body correlations present: class I-IV, split by surviving fonts
        if n3 > 0:
            return ("I" if n2 > 0 else "II"), notes
        if n2 == 0:
            return "IV", notes
        return "III", ["class III residual reading: dres "
                       + ("zero" if dres_zero else "nonzero")]
    if not dres_zero:
        if not delta_zero:
            return UNRESOLVED, ["no class has i48 = 0, dres != 0, delta != 0"]
        return ("V" if n2 >= 1 else "VI"), notes
    if not delta_zero:
        return UNRESOLVED, ["no class has i48 = 0, dres = 0, delta != 0"]
    if n2 == 0:
        notes.append("no 2-way font above tolerance in this representation; "
                     "class VII normally shows at least one")
    return "VII", notes


def classify(state: PureState, tol: float = DEFAULT_TOL,
             use_font_min: bool = False, seed: int = 0,
             restarts: int = 32, iters: int = 400) -> ClassReport:
    """Assign a four-qubit state to one of the seven major classes."""
    if state.n_qubits != 4:
        raise WrongArity(f"classify requires n=4, got n={state.n_qubits}")
    check_tolerance(tol)
    _check_budget(seed, restarts, iters)
    notes: list[str] = []
    work = normalize(state)

    if not any(_cut_entangled(work, p, tol) for p in (1, 2, 3, 4)):
        sig = ClassSignature(True, True, True, 0, 0, 0, 0.0, 0.0, 0.0)
        return ClassReport(UNENTANGLED, sig, False,
                           ("separable across every single-qubit cut",), tol, 0.0)

    report = aggregate_invariants(work)
    i48_max = max(abs(tr.i48) for tr in report.triples)
    dres_max = max(tr.dres for tr in report.triples)
    delta_max = max(abs(tr.delta24) for tr in report.triples)
    i48_zero = i48_max <= tol
    dres_zero = dres_max <= tol
    delta_zero = delta_max <= tol

    counted = work
    minimized = False
    if use_font_min:
        counted, _trace = font_minimize(state, restarts=restarts, iters=iters,
                                        seed=seed, tol=tol)
        minimized = True
    counts = font_counts(counted, p=1, tol=tol)
    n2, n3, n4 = counts[2], counts[3], counts[4]

    cls, decision_notes = _decide(i48_zero, dres_zero, delta_zero, n2, n3, n4)
    notes.extend(decision_notes)
    if not i48_zero and n4 == 0:
        notes.append("i48 nonzero but no 4-way font above tolerance; "
                     "representation is far from canonical")
    sig = ClassSignature(i48_zero, dres_zero, delta_zero, n2, n3, n4,
                         i48_max, dres_max, delta_max)
    return ClassReport(cls, sig, minimized, tuple(notes), tol, report.tau48)


# ---------------------------------------------------------------------------
# local-unitary font minimization


def _exponent_table() -> np.ndarray:
    """(12, 36) map from Euler angles to the exponents of `_rotated_amps`.

    exp(1j * thetas @ table) holds the phase Rz(g) puts on each basis index,
    the phase Rz(a) puts on each basis index, and exp(1j * b / 2) of each
    qubit.  Rz(t) on qubit q multiplies amplitude k by exp(1j * t * (bit - 1/2))
    for bit q of k.
    """
    half_bits = ((np.arange(16) >> np.arange(3, -1, -1)[:, None]) & 1) - 0.5
    table = np.zeros((4, 3, 36))
    table[:, 2, :16] = half_bits
    table[:, 0, 16:32] = half_bits
    table[np.arange(4), 1, 32 + np.arange(4)] = 0.5
    return table.reshape(12, 36)


_EXPONENTS = _exponent_table()


def _ry_kron_index(qa: int, qb: int) -> np.ndarray:
    """Where the two factors of each entry of Ry_qa x Ry_qb sit in the table
    (cos of qubits 1-4, sin of qubits 1-4, -sin of qubits 1-4) of half angles."""
    ry = np.array([[0, 8], [4, 0]])         # [[cos, -sin], [sin, cos]]
    r, c = np.arange(4)[:, None], np.arange(4)
    return np.stack([ry[r >> 1, c >> 1] + qa, ry[r & 1, c & 1] + qb])


# L = Ry1 x Ry2 and R^T = (Ry3 x Ry4)^T, as pairs of factor indices
_KRON = np.stack([_ry_kron_index(0, 1), _ry_kron_index(2, 3).swapaxes(-1, -2)])
# the same factors read from the exponentials seen as floats, where the cosine
# and sine of qubit q's half angle are floats 64 + 2q and 65 + 2q, and the
# sign of each entry of L and R^T, which is where the -sin factors went
_KRON_FLOATS = 64 + 2 * (_KRON % 4) + (_KRON >= 4)
_KRON_SIGNS = np.where(_KRON >= 8, -1.0, 1.0).prod(1)

# Rz(a) is the outermost factor of each qubit's rotation and only puts phases
# on the amplitudes, which changes no |minor| and no |amplitude|: the
# surrogate and the objective are flat along the four a angles, so Powell
# searches the other eight directions and the a angles keep their start values
_SEARCHED = np.eye(12)[np.arange(12) % 3 != 0]


def _rotated_amps(amps: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Four-qubit amplitudes after Rz(a) Ry(b) Rz(g) on each qubit.

    `thetas` holds (a, b, g) for qubits 1-4 on its last axis: (..., 12) ->
    (..., 16).  The z-rotations only multiply amplitudes by phases, Rz(g)
    before and Rz(a) after the y-rotations; one `exp` of the angles times
    `_EXPONENTS` gives those phases and the half-angle cosines and sines.
    The y-rotations are real: with the amplitudes as a 4x4 matrix X (rows:
    qubits 1-2, columns: qubits 3-4), (Y1 x Y2 x Y3 x Y4) vec(X) is
    vec(L X R^T) for L = Y1 x Y2 and R = Y3 x Y4, so the 16x16 product is
    never formed.
    """
    thetas = np.asarray(thetas, dtype=float)
    lead = thetas.shape[:-1]
    # einsum without `optimize` calls no BLAS and adds the 12 terms in order:
    # each row's exponents then do not depend on how many rows share the call
    z = np.exp(1j * np.einsum("...i,ij->...j", thetas, _EXPONENTS))
    factors = z.view(float)[..., _KRON_FLOATS]
    # the matmuls would cast the real factors to complex, each on its own
    kron = (factors[..., 0, :, :] * factors[..., 1, :, :] * _KRON_SIGNS).astype(complex)
    x = (z[..., :16] * amps).reshape(lead + (4, 4))
    rotated = kron[..., 0, :, :] @ x @ kron[..., 1, :, :]
    return z[..., 16:32] * rotated.reshape(lead + (16,))


def _row_sums(x: np.ndarray) -> np.ndarray:
    # a running sum adds each row's entries in order, while the order of
    # `sum` depends on how many rows share the call; a restart's search must
    # not depend on which other restarts are still running
    return np.cumsum(x, axis=-1)[..., -1]


def _surrogate(amps: np.ndarray, thetas: np.ndarray, watch=None) -> np.ndarray:
    """The smooth objective Powell minimizes, (..., 12) angles -> (...) values.

    `watch`, when given, is shown the minor moduli of the rotated frames.
    """
    # sqrt concentrates weight near zero, favoring sparse det profiles; the
    # amplitude term steers ties toward frames with few product terms
    out = _rotated_amps(amps, thetas)
    moduli = _det_moduli(out)
    if watch is not None:
        watch(moduli)
    return (_row_sums(np.sqrt(moduli))
            + 0.5 * _row_sums(np.sqrt(np.abs(out))))


# the font search ends once the best (count, penalty) over every frame it has
# evaluated has not improved for this many lock-step rounds; chosen on
# held-out scrambles, see the README's "Font search" section
_STALL_ROUNDS = 450


class _Stall:
    """Stop hook of the lock-step search: its best font count has stalled.

    `watch` reads the minor moduli of each round's frames, as `_surrogate`
    forms them, and keeps the best of the first two `_scores` fields (count
    above `threshold`, penalty) over every frame evaluated so far, as the key
    2 * count + penalty.  Called, the hook says whether that best is at least
    `_STALL_ROUNDS` rounds old.
    """

    def __init__(self, threshold: float, has_four_body: bool):
        four = _det_orders(4) == 4
        # code = (fonts of order < 4 above) + 32 * (4-way fonts above); the 24
        # lower-order fonts stay below 32, and `keys` maps each code to its
        # key, so a round costs one matmul and one lookup
        self.weights = np.where(four, 32, 1)
        n4, lower = np.divmod(np.arange(32 * (int(four.sum()) + 1)), 32)
        self.keys = 2 * (lower + n4) + ((n4 > 0) != has_four_body)
        self.threshold = threshold
        self.best = np.inf
        self.rounds = self.improved = 0

    def watch(self, moduli: np.ndarray) -> None:
        self.rounds += 1
        key = self.keys[(moduli > self.threshold) @ self.weights].min()
        if key < self.best:
            self.best, self.improved = key, self.rounds

    def __call__(self) -> bool:
        return self.rounds - self.improved >= _STALL_ROUNDS


def _scores(vecs: np.ndarray, tol: float, has_four_body: bool) -> np.ndarray:
    """The lexicographic objective of each unit vector on the last axis, as floats.

    Fields: (fonts above tolerance, 0 if 4-way-font presence agrees with the
    degree-8 invariant else 1, sum of det moduli, nonzero amplitudes).
    """
    n = vecs.shape[-1].bit_length() - 1
    moduli = _det_moduli(vecs)
    above = moduli > tol
    penalty = above[..., _det_orders(n) == n].any(-1) != has_four_body
    support = (np.abs(vecs) > tol).sum(-1)
    return np.stack([above.sum(-1), penalty, _row_sums(moduli), support], -1).astype(float)


def _row(score: np.ndarray) -> tuple[int, int, float, int]:
    count, penalty, total, support = score.tolist()
    return int(count), int(penalty), total, int(support)


def _better(scores: np.ndarray, ref: tuple, floor: float) -> np.ndarray:
    """Which rows of `scores` are strictly better than `ref`.

    Integer fields compare exactly; the modulus sum needs a noise floor,
    otherwise gauge moves keep "improving" by rounding error.
    """
    count, penalty, total, support = scores.T
    fewer = (count < ref[0]) | ((count == ref[0]) & (penalty < ref[1]))
    tied = (count == ref[0]) & (penalty == ref[1])
    by_sum = np.where(np.abs(total - ref[2]) > floor, total < ref[2], support < ref[3])
    return fewer | (tied & by_sum)


# single-qubit Clifford group, used as discrete refinement moves between
# minimal frames that the continuous search cannot distinguish; built once,
# on the first search
@functools.cache
def _clifford_gates() -> np.ndarray:
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    s = np.array([[1, 0], [0, 1j]])
    gates: list[np.ndarray] = [np.eye(2, dtype=complex)]
    frontier = list(gates)
    while frontier:
        fresh = []
        for g in frontier:
            for m in (h, s):
                c = m @ g
                pivot = c.flat[np.argmax(np.abs(c) > 1e-9)]
                c = c / (pivot / abs(pivot))
                if not any(np.allclose(c, e, atol=1e-9) for e in gates):
                    gates.append(c)
                    fresh.append(c)
        frontier = fresh
    table = np.stack(gates)
    table.setflags(write=False)     # cached: every search shares this array
    return table


def _apply_gates(vecs: np.ndarray, q: int, gates: np.ndarray) -> np.ndarray:
    """Each of `gates` (m, 2, 2) on qubit q (0-based): (..., 2^n) -> (..., m, 2^n)."""
    size = vecs.shape[-1]
    split = vecs.reshape(vecs.shape[:-1] + (1, 1 << q, 2, size >> (q + 1)))
    return (gates[:, None] @ split).reshape(vecs.shape[:-1] + (len(gates), size))


# `_better` ties the modulus sums of two Clifford frames closer than this
_SUM_FLOOR = 1e-9


def _clifford_refine(vec: np.ndarray, best: tuple, scores):
    """Greedy hill-climb over single-qubit Clifford moves, at most 16 rounds.

    Each round tries the 23 non-identity gates on each qubit in turn and
    accepts every move strictly better than the best so far.  The moves left
    in a round are scored in one batch, and rebuilt from the new best after
    each acceptance, so a round accepts exactly what a move-by-move loop
    accepts.  Returns (vec, best, objective after each round).
    """
    moves = _clifford_gates()[1:]
    n = vec.size.bit_length() - 1
    rounds = []
    for _round in range(16):
        improved, done = False, 0
        while done < n * len(moves):
            vecs = np.concatenate([_apply_gates(vec, q, moves) for q in range(n)])[done:]
            rows = scores(vecs)
            hits = np.flatnonzero(_better(rows, best, _SUM_FLOOR))
            if not hits.size:
                break
            k = int(hits[0])
            vec, best, improved = vecs[k], _row(rows[k]), True
            done += k + 1
        rounds.append(best)
        if not improved:
            break
    return vec, best, rounds


def _phase_gauge(vec: np.ndarray, amp_floor: float) -> np.ndarray:
    """Try to make every significant amplitude real via per-qubit z-rotations.

    For small supports the linear system (one z-angle per qubit plus a global
    phase, sign of each amplitude free) is often solvable exactly; Clifford
    moves then act within a real gauge.  Returns the input unchanged when no
    exact gauge is found.
    """
    idx = np.where(np.abs(vec) > amp_floor)[0]
    if not 1 <= len(idx) <= 6:
        return vec
    n = vec.size.bit_length() - 1
    shifts = np.arange(n - 1, -1, -1)
    bits = ((idx[:, None] >> shifts[None, :]) & 1) - 0.5
    rows = np.hstack([bits, np.ones((len(idx), 1))])
    phases = np.angle(vec[idx])
    for signs in product((0.0, np.pi), repeat=len(idx) - 1):
        target = -phases + np.array((0.0,) + signs)
        sol, *_ = np.linalg.lstsq(rows, target, rcond=None)
        residual = rows @ sol - target
        wrapped = (residual + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(wrapped)) < 1e-9:
            all_idx = np.arange(vec.size)
            all_bits = ((all_idx[:, None] >> shifts[None, :]) & 1) - 0.5
            return vec * np.exp(1j * (all_bits @ sol[:n] + sol[n]))
    return vec


def _check_budget(seed, restarts, iters) -> None:
    """Raise BadBudget unless seed >= 0, restarts >= 0 and iters >= 1 are ints."""
    for name, value, least in (("seed", seed, 0), ("restarts", restarts, 0), ("iters", iters, 1)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise BadBudget(f"{name} must be an integer of at least {least}, got {value!r}")


def _invariant_fingerprint(state: PureState) -> np.ndarray:
    rep = [abs(i4(state))]
    for singled in (1, 2, 3, 4):
        tr = triple_invariants(state, singled)
        rep.extend([abs(tr.i48), tr.n_sq])
    return np.array(rep)


# the start frame ranks frames at this floor: its quartic roots are not polished
_START_FLOOR = 1e-7
# the amplitude positions that move qubit q (0-based) last, the others in order
_MOVE_LAST = np.stack([np.moveaxis(np.arange(16).reshape(2, 2, 2, 2), q, 3).ravel()
                       for q in range(4)])


def _eigenframe(amps: np.ndarray) -> np.ndarray:
    """Each qubit rotated into the eigenbasis of its one-qubit reduced state,
    the larger eigenvalue on |0>: the normal form of Kraus, PRL 104, 020504."""
    rows = amps[_MOVE_LAST].reshape(4, 8, 2).swapaxes(-1, -2)
    _, vecs = np.linalg.eigh(rows @ rows.conj().swapaxes(-1, -2))
    for q, gate in enumerate(vecs[..., ::-1].conj().swapaxes(-1, -2)):
        amps = _apply_gates(amps, q, gate[None])[0]
    return amps


def _root_gates(vec: np.ndarray, q: int) -> np.ndarray:
    """(m, 2, 2) SU(2) gates [[1, x], [-x*, 1]] / sqrt(1 + |x|^2) on qubit q
    (0-based), one per root x of the transposition quartic I3(t0 + x t1) with
    qubit q last.  Each maps slice 0 to a multiple of t0 + x t1, so it zeroes
    the three-way invariant of that slice."""
    i3_0, i3_1, t, p0, p1 = _quartic_coefficients(PureState(4, vec[_MOVE_LAST[q]]))
    # np.roots drops zero leading coefficients; below 1e-300 one would overflow it
    x = np.roots([a if abs(a) > 1e-300 else 0 for a in (i3_1, 4 * p1, 6 * t, 4 * p0, i3_0)])
    c = 1 / np.hypot(1.0, np.abs(x))
    return np.stack([c, x * c, -(x * c).conj(), c], -1).reshape(-1, 2, 2)


def _start_frame(amps: np.ndarray, has_four_body: bool) -> np.ndarray:
    """The frame the font search starts from, a local-unitary image of `amps`.

    The input and its `_eigenframe` each get two greedy sweeps over qubits
    4, 3, 2, 1; a step keeps the frame or one of its `_root_gates` frames,
    whichever `_scores` ranks best at `_START_FLOOR`.  The better swept frame
    is the start if it has fewer fonts or a lower penalty than the input: on
    Haar states a start that only lowered the modulus sum cost ~12% more rounds.
    """
    frames = [amps, _eigenframe(amps)]
    before = _scores(amps, _START_FLOOR, has_four_body)[:2].tolist()
    for q in (3, 2, 1, 0) * 2:
        stacks = [np.concatenate([vec[None], _apply_gates(vec, q, _root_gates(vec, q))])
                  for vec in frames]
        rows = _scores(np.concatenate(stacks), _START_FLOOR, has_four_body).tolist()
        best = []
        for c, stack in enumerate(stacks):
            options, rows = rows[:len(stack)], rows[len(stack):]
            best.append(min(options))   # `index` finds the first equal row: ties keep the frame
            frames[c] = stack[options.index(best[-1])]
    pick = min(best)
    return frames[best.index(pick)] if pick[:2] < before else amps


def font_minimize(state: PureState, restarts: int = 32, iters: int = 400,
                  seed: int = 0, tol: float = DEFAULT_TOL):
    """Best-effort search for a local-unitary frame with the fewest nonzero fonts.

    Derivative-free Powell search over the eight Euler angles that can change
    the objective (`_SEARCHED`), from `restarts` starts run in lock-step,
    followed by a greedy hill-climb over single-qubit Clifford moves.  The
    accepted objective is lexicographic over the canonical fonts of qubit 1:

        (count above tolerance,
         0 if 4-way-font presence agrees with the degree-8 invariant else 1,
         sum of det moduli,
         number of nonzero amplitudes)

    Minimal frames with different coherence-order splits exist on one orbit;
    the consistency flag and the product-term count pick the one that can be
    canonical.

    The search runs on the state's direction: every input, unit or not, is
    normalized, so `classify` and a direct call search the same unit vector.
    Tolerances are absolute on that vector, and the frame is returned
    normalized.  Restart 0 starts at `_start_frame` of that vector, and the
    random restarts are Euler angles applied to that frame.

    The search is anytime: all restarts end together once the best
    (count, penalty) over every frame evaluated so far, read from the
    surrogate's minors, has not fallen for `_STALL_ROUNDS` (450) lock-step
    rounds.  Each restart's candidate is its own Powell point (the
    lowest-surrogate point it evaluated, if it was stopped), never the frame
    that scored best; the Clifford moves refine the best candidate.

    Returns (state, trace); trace rows are (step, *objective) for the
    accepted best and never increase: row 0 is the start frame, then one
    row per restart and one per Clifford round.
    """
    if state.n_qubits != 4:
        raise WrongArity(f"font_minimize requires n=4, got n={state.n_qubits}")
    _check_budget(seed, restarts, iters)
    check_tolerance(tol)
    unit = normalize(state)
    has_four_body = bool(abs(i48(unit)) > tol)
    amps = _start_frame(unit.amps, has_four_body)

    def scores(vecs: np.ndarray) -> np.ndarray:
        return _scores(vecs, tol, has_four_body)

    best_vec = amps
    best = _row(scores(amps))
    trace = [(0, *best)]
    starts = np.zeros((restarts, 12))
    for restart in range(1, restarts):
        starts[restart] = np.random.default_rng((seed, restart)).uniform(0, 2 * np.pi, 12)
    # Powell's fixed tolerances are moderate; they suffice because the sqrt
    # surrogate keeps shrinking visibly until dets sit well below `tol`
    stall = _Stall(tol, has_four_body)
    result = minimize(lambda thetas: _surrogate(amps, thetas, stall.watch), starts,
                      maxiter=iters, direc=_SEARCHED, stop=stall)
    vecs = _rotated_amps(amps, result.x)
    for restart, (vec, score) in enumerate(zip(vecs, scores(vecs))):
        candidate = _row(score)
        if candidate < best:
            best = candidate
            best_vec = vec
        trace.append((restart + 1, *best))

    # discrete refinement: single-qubit Clifford moves jump between minimal
    # frames whose basins the continuous search does not connect; they need a
    # real amplitude gauge to line the phases up.  The gauge only touches
    # phases, so the objective is unchanged and it is safe to apply always.
    best_vec = _phase_gauge(best_vec, tol)
    best_vec, best, rounds = _clifford_refine(best_vec, best, scores)
    trace.extend((restarts + 1 + k, *row) for k, row in enumerate(rounds))

    final = np.array(best_vec)
    final.setflags(write=False)
    minimized = PureState(4, final)
    drift = np.max(np.abs(_invariant_fingerprint(minimized)
                          - _invariant_fingerprint(unit)))
    if drift > 1e-8:
        raise SearchDrift(f"font minimization drifted an invariant by {drift:.3e}")
    return minimized, trace


# ---------------------------------------------------------------------------
# closed-form family expectations


def _require_params(family: str, params: Mapping[str, complex], names: tuple[str, ...]):
    missing = [p for p in names if p not in params]
    if missing:
        raise MissingParameter(f"{family} needs parameter(s): {', '.join(missing)}")
    return [complex(params[p]) for p in names]


def family_expected(family: str, params: Mapping[str, complex]) -> dict:
    """Closed-form invariant values for the cataloged parametric families."""
    try:
        coeffs, extra = _closed_forms(family, params)
    except OverflowError:   # a Python power raises where a numpy one saturates
        point = ", ".join(f"{name}={value:g}" for name, value in params.items())
        raise NonFiniteResult(f"closed forms of {family} overflow at {point}") from None
    out = _quartic_invariants(*coeffs)
    out["n_triple_sq"] = out.pop("n_sq")
    return {**out, **extra}


def _closed_forms(family: str, params: Mapping[str, complex]) -> tuple[tuple, dict]:
    """(i3_0, i3_1, T, P0, P1) of the family's headline triple, and extra values."""
    if family == "G_abcd":
        a, b, c, d = _require_params(family, params, ("a", "b", "c", "d"))
        big_a = (a ** 2 - b ** 2) * (d ** 2 - c ** 2)
        big_b = 0.25 * (a ** 2 - d ** 2) * (b ** 2 - c ** 2)
        return (big_b, big_b, (big_a - 2 * big_b) / 6, 0j, 0j), {"A": big_a, "B": big_b}
    if family == "L_abc2":
        a, b, c = _require_params(family, params, ("a", "b", "c"))
        return (c * (a ** 2 - b ** 2), 0j,
                (a ** 2 - c ** 2) * (b ** 2 - c ** 2) / 6, 0j, 0j), {}
    if family == "L_a2b2":
        a, b = _require_params(family, params, ("a", "b"))
        return (0j, 0j, (a ** 2 - b ** 2) ** 2 / 6, 0j, 0j), {}
    if family == "L_a2_0_3p1t":
        (a,) = _require_params(family, params, ("a",))
        return (0j, 0j, a ** 4 / 6, 0j, 0j), {}
    if family == "Psi_ab":
        a, b = _require_params(family, params, ("a", "b"))
        return (a ** 2 * b ** 2, b ** 4, (a ** 4 - 2 * a * b ** 3) / 6,
                a ** 3 * b / 2, -a ** 2 * b ** 2 / 2), {}
    raise UnknownFamily(f"no closed forms for family {family!r}")


SWEEP_FAMILIES = ("G_abcd", "L_abc2", "L_a2b2", "L_a2_0_3p1t", "Psi_ab")
