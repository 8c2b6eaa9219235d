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

from dataclasses import dataclass
from itertools import permutations, product
from typing import Mapping

import numpy as np

from .catalog import catalog_args
from .errors import (BadBudget, NonFiniteResult, SearchDrift, UnknownFamily, check_arity,
                     check_index, check_tolerance)
from .fonts import DEFAULT_TOL, _minors, _order_mask, _qubit_tables, font_counts
from .invariants import (_QUARTIC_FIELDS, _move_last, _quartic_coefficients,
                         _quartic_invariants, aggregate_invariants, i4, i48, triple_invariants)
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
    return bool(np.any(np.abs(_minors(unit.amps, p)) > tol))


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
    check_arity(state, 4, "classify")
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
    """(8, 20) map from Euler angles to the exponents of `_rotated_amps`.

    exp(1j * thetas @ table) holds the phase Rz(g) puts on each basis index
    and exp(1j * b / 2) of each qubit.  Rz(t) on qubit q multiplies amplitude
    k by exp(1j * t * (bit - 1/2)) for bit q of k.
    """
    half_bits = ((np.arange(16) >> np.arange(3, -1, -1)[:, None]) & 1) - 0.5
    table = np.zeros((4, 2, 20))
    table[:, 1, :16] = half_bits
    table[np.arange(4), 0, 16 + np.arange(4)] = 0.5
    return table.reshape(8, 20)


_EXPONENTS = _exponent_table()


def _ry_kron_index(qa: int, qb: int) -> np.ndarray:
    """Where the two factors of each entry of Ry_qa x Ry_qb sit in the table
    (cos of qubits 1-4, sin of qubits 1-4, -sin of qubits 1-4) of half angles."""
    ry = np.array([[0, 8], [4, 0]])         # [[cos, -sin], [sin, cos]]
    r, c = np.arange(4)[:, None], np.arange(4)
    return np.stack([ry[r >> 1, c >> 1] + qa, ry[r & 1, c & 1] + qb])


# L = Ry1 x Ry2 and R^T = (Ry3 x Ry4)^T, as pairs of factor indices
_KRON = np.stack([_ry_kron_index(0, 1), _ry_kron_index(2, 3).swapaxes(-1, -2)])
# the same factors as floats of the `_EXPONENTS` exponentials (qubit q's
# half-angle cosine and sine are floats 32 + 2q and 33 + 2q), and the sign of
# each entry of L and R^T, which is where the -sin factors went
_KRON_FLOATS = 32 + 2 * (_KRON % 4) + (_KRON >= 4)
_KRON_SIGNS = np.where(_KRON >= 8, -1.0, 1.0).prod(1)


def _rotated_amps(amps: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Four-qubit amplitudes after Ry(b) Rz(g) on each qubit.

    `thetas` holds (b, g) for qubits 1-4 on its last axis: (..., 8) ->
    (..., 16).  A last Rz(a) would only put phases on the amplitudes, the same
    on both products of each minor, so it changes no |minor| and no
    |amplitude| and is left out.  One `exp` of the angles times `_EXPONENTS`
    gives the Rz(g) phases and the half-angle cosines and sines.
    The y-rotations are real: with the amplitudes as a 4x4 matrix X (rows:
    qubits 1-2, columns: qubits 3-4), (Y1 x Y2 x Y3 x Y4) vec(X) is
    vec(L X R^T) for L = Y1 x Y2 and R = Y3 x Y4, so the 16x16 product is
    never formed.
    """
    thetas = np.asarray(thetas, dtype=float)
    lead = thetas.shape[:-1]
    # einsum without `optimize` calls no BLAS and adds the 8 terms in order:
    # each row's exponents then do not depend on how many rows share the call
    z = np.exp(1j * np.einsum("...i,ij->...j", thetas, _EXPONENTS))
    factors = z.view(float)[..., _KRON_FLOATS]
    # the matmuls would cast the real factors to complex, each on its own
    kron = (factors[..., 0, :, :] * factors[..., 1, :, :] * _KRON_SIGNS).astype(complex)
    x = (z[..., :16] * amps).reshape(lead + (4, 4))
    rotated = kron[..., 0, :, :] @ x @ kron[..., 1, :, :]
    return rotated.reshape(lead + (16,))


def _row_sums(x: np.ndarray) -> np.ndarray:
    # a running sum adds each row's entries in order, while the order of
    # `sum` depends on how many rows share the call; a restart's search must
    # not depend on which other restarts are still running
    return np.cumsum(x, axis=-1)[..., -1]


def _surrogate(amps: np.ndarray, thetas: np.ndarray, watch=None) -> np.ndarray:
    """The smooth objective Powell minimizes, (..., 8) angles -> (...) values.

    `watch`, when given, is shown the minor moduli of the rotated frames.
    """
    # sqrt concentrates weight near zero, favoring sparse det profiles; the
    # amplitude term steers ties toward frames with few product terms
    out = _rotated_amps(amps, thetas)
    moduli = np.abs(_minors(out))
    if watch is not None:
        watch(moduli)
    return (_row_sums(np.sqrt(moduli))
            + 0.5 * _row_sums(np.sqrt(np.abs(out))))


# the font search ends once the best font count over every frame it has
# evaluated has not fallen for this many lock-step rounds; chosen on held-out
# scrambles, see the README's "Font search" section
_STALL_ROUNDS = 450


class _Stall:
    """Stop hook of the lock-step search: its best font count has stalled.

    `watch` reads the minor moduli of each round's frames, as `_surrogate`
    forms them, and keeps the fewest moduli above `threshold` (the first
    `_scores` field) over every frame evaluated so far.  Called, the hook says
    whether that best is at least `_STALL_ROUNDS` rounds old.
    """

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.best = np.inf
        self.rounds = self.improved = 0

    def watch(self, moduli: np.ndarray) -> None:
        self.rounds += 1
        count = (moduli > self.threshold).sum(-1).min()
        if count < self.best:
            self.best, self.improved = count, self.rounds

    def __call__(self) -> bool:
        return self.rounds - self.improved >= _STALL_ROUNDS


def _scores(vecs: np.ndarray, tol: float, has_four_body: bool) -> np.ndarray:
    """The lexicographic objective of each unit vector on the last axis, as floats.

    Fields: (fonts above tolerance, 0 if 4-way-font presence agrees with the
    degree-8 invariant else 1, sum of det moduli, nonzero amplitudes).
    """
    n = vecs.shape[-1].bit_length() - 1
    moduli = np.abs(_minors(vecs))
    above = moduli > tol
    penalty = above[..., _order_mask(n, n)].any(-1) != has_four_body
    support = (np.abs(vecs) > tol).sum(-1)
    return np.stack([above.sum(-1), penalty, _row_sums(moduli), support], -1).astype(float)


def _row(score: np.ndarray) -> tuple[int, int, float, int]:
    count, penalty, total, support = score.tolist()
    return int(count), int(penalty), total, int(support)


def _apply_gates(vecs: np.ndarray, q: int, gates: np.ndarray) -> np.ndarray:
    """Each of `gates` (m, 2, 2) on qubit q (0-based): (..., 2^n) -> (..., m, 2^n)."""
    size = vecs.shape[-1]
    split = vecs.reshape(vecs.shape[:-1] + (1, 1 << q, 2, size >> (q + 1)))
    return (gates[:, None] @ split).reshape(vecs.shape[:-1] + (len(gates), size))


# the lock-step search keeps a row of angles per restart
_MAX_RESTARTS = 100_000


def _check_budget(seed, restarts, iters) -> None:
    """Raise BadBudget unless seed >= 0, 0 <= restarts <= _MAX_RESTARTS and
    iters >= 1 are ints."""
    check_index(seed, 0, None, "seed", BadBudget)
    check_index(restarts, 0, _MAX_RESTARTS, "restarts", BadBudget)
    check_index(iters, 1, None, "iters", BadBudget)


def _invariant_fingerprint(state: PureState) -> np.ndarray:
    rep = [abs(i4(state))]
    for singled in (1, 2, 3, 4):
        tr = triple_invariants(state, singled)
        rep.extend([abs(tr.i48), tr.n_sq])
    return np.array(rep)


# the start frame ranks frames at this floor: its quartic roots are not polished
_START_FLOOR = 1e-7


def _eigenframe(amps: np.ndarray) -> np.ndarray:
    """Each qubit rotated into the eigenbasis of its one-qubit reduced state,
    the larger eigenvalue on |0>: the normal form of Kraus, PRL 104, 020504."""
    # qubit q's bit by the other qubits' bits, for each q
    rows = np.stack([amps[_qubit_tables(4, q)[0]] for q in (1, 2, 3, 4)]).reshape(4, 2, 8)
    _, vecs = np.linalg.eigh(rows @ rows.conj().swapaxes(-1, -2))
    for q, gate in enumerate(vecs[..., ::-1].conj().swapaxes(-1, -2)):
        amps = _apply_gates(amps, q, gate[None])[0]
    return amps


def _root_gates(vec: np.ndarray, q: int) -> np.ndarray:
    """(m, 2, 2) SU(2) gates [[1, x], [-x*, 1]] / sqrt(1 + |x|^2) on qubit q
    (0-based), one per root x of the transposition quartic I3(t0 + x t1) with
    qubit q last.  Each maps slice 0 to a multiple of t0 + x t1, so it zeroes
    the three-way invariant of that slice."""
    i3_0, i3_1, t, p0, p1 = _quartic_coefficients(_move_last(PureState(4, vec), q + 1))
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


# the magic basis: its columns are Bell states, and M^H (A x B) M is real
# orthogonal for every A, B in SU(2) (Verstraete, Dehaene, De Moor and
# Verschelde, PRA 65, 052112), so SU(2)^4 acts on Y = M^H X conj(M), with X
# the amplitudes as a 4x4 matrix (rows: qubits 1-2), as Y -> O1 Y O2^T
_MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / np.sqrt(2)
# M diag(d) M^T, flattened, is d @ _MAGIC_TERMS
_MAGIC_TERMS = np.einsum("ik,jk->kij", _MAGIC, _MAGIC).reshape(4, 16)
# the 24 orders of four entries, and the 8 even sign patterns
_ORDERS = np.array(list(permutations(range(4))))
_EVEN_SIGNS = np.array([s for s in product((1, -1), repeat=4) if np.prod(s) == 1])


def _magic_frame(amps: np.ndarray, has_four_body: bool, tol: float) -> np.ndarray | None:
    """The magic-basis normal form M D M^T of four-qubit `amps`, or None.

    It exists where Y = O1 D O2^T with O1, O2 real orthogonal and D complex
    diagonal, as on every G_abcd orbit.  O1 is one `eigh` of Re(Y Y^T) +
    0.618 Im(Y Y^T).  The rows of R = O1^T Y with bilinear norm |d_k| > 1e-6
    are divided by it, the others completed to an orthonormal set (d_k = 0).
    The divided rows reproduce R by construction; the frame exists only if
    they are real and O2 is orthogonal, to 1e-9, and the completed rows of R
    vanish, to 1e-6 (on |0> x GHZ3, Y Y^T is nilpotent but nonzero; on
    GHZ3 x |0> it is zero).  A determinant of -1 in O1 or O2 flips d_0.  Of
    the 24 orders of D times 8 even sign patterns, the frame `_scores` ranks
    best at `tol` is returned.
    """
    y = _MAGIC.conj().T @ amps.reshape(4, 4) @ _MAGIC.conj()
    yy = y @ y.T
    _, o1 = np.linalg.eigh(yy.real + 0.618 * yy.imag)
    r = o1.T @ y
    d = np.sqrt(np.sum(r * r, -1))
    keep = np.abs(d) > 1e-6
    rows = r[keep] / d[keep, None]
    o2t = np.zeros((4, 4))
    o2t[keep] = rows.real
    if not keep.all():
        # eigenvectors of the projector onto the complement of the kept rows
        _, basis = np.linalg.eigh(np.eye(4) - o2t.T @ o2t)
        o2t[~keep] = basis[:, keep.sum():].T
    if (np.abs(rows.imag).max(initial=0.0) > 1e-9
            or np.abs(o2t @ o2t.T - np.eye(4)).max() > 1e-9
            or np.abs(r[~keep]).max(initial=0.0) > 1e-6):
        return None
    d = np.where(keep, d, 0)
    if np.linalg.det(o1 @ o2t) < 0:         # det O1 det O2
        d[0] = -d[0]
    frames = (d[_ORDERS][:, None] * _EVEN_SIGNS).reshape(-1, 4) @ _MAGIC_TERMS
    scores = _scores(frames, tol, has_four_body).tolist()
    return frames[scores.index(min(scores))]


def font_minimize(state: PureState, restarts: int = 32, iters: int = 400,
                  seed: int = 0, tol: float = DEFAULT_TOL):
    """A local-unitary frame with the fewest nonzero fonts, exact or best-effort.

    The frame is ranked by an objective that is lexicographic over the
    canonical fonts of qubit 1:

        (count above tolerance,
         0 if 4-way-font presence agrees with the degree-8 invariant else 1,
         sum of det moduli,
         number of nonzero amplitudes)

    Minimal frames with different coherence-order splits exist on one orbit;
    the consistency flag and the product-term count pick the one that can be
    canonical.

    Every input, unit or not, is normalized, so `classify` and a direct call
    work on the same unit vector.  Tolerances are absolute on that vector,
    and the frame is returned normalized.

    On the G_abcd orbits the answer is `_magic_frame` of that vector, the
    exact magic-basis normal form, and no search runs: its counts are the
    normal form's counts.  `restarts`, `iters` and `seed` are still
    validated, but they only steer the search off those orbits.

    Off them, a derivative-free Powell search runs over the eight Euler
    angles that can change the objective, (b, g) of Ry(b) Rz(g) on each
    qubit, from `restarts` starts run in lock-step.  Restart 0 starts at
    `_start_frame` of the vector; the random restarts apply random (b, g) to
    that frame.  The search is anytime: all restarts end together once the
    best font count of every frame evaluated so far, read from the
    surrogate's minors, has not fallen for `_STALL_ROUNDS` (450) lock-step
    rounds.  Each restart's candidate is its own Powell point (the
    lowest-surrogate point it evaluated, if it was stopped), never the frame
    that scored best; the best candidate, by the full objective, is returned.

    Returns (state, trace); trace rows are (step, *objective) for the
    accepted best and never increase: row 0 is the start frame, then one
    row per restart, so the last row is the returned frame's objective.  On
    the G_abcd orbits all 1 + `restarts` rows are the magic frame's.
    """
    check_arity(state, 4, "font_minimize")
    _check_budget(seed, restarts, iters)
    check_tolerance(tol)
    unit = normalize(state)
    has_four_body = bool(abs(i48(unit)) > tol)
    best_vec = _magic_frame(unit.amps, has_four_body, tol)
    if best_vec is not None:
        best = _row(_scores(best_vec, tol, has_four_body))
        trace = [(step, *best) for step in range(1 + restarts)]
    else:
        best_vec, trace = _search(_start_frame(unit.amps, has_four_body), has_four_body,
                                  restarts, iters, seed, tol)

    final = np.array(best_vec)
    final.setflags(write=False)
    minimized = PureState(4, final)
    drift = np.max(np.abs(_invariant_fingerprint(minimized)
                          - _invariant_fingerprint(unit)))
    if drift > 1e-8:
        raise SearchDrift(f"font minimization drifted an invariant by {drift:.3e}")
    return minimized, trace


def _search(amps: np.ndarray, has_four_body: bool, restarts: int, iters: int,
            seed: int, tol: float):
    """The lock-step Powell search from frame `amps`: (best frame, trace)."""
    best_vec = amps
    best = _row(_scores(amps, tol, has_four_body))
    trace = [(0, *best)]
    starts = np.zeros((restarts, 8))
    for restart in range(1, restarts):
        starts[restart] = np.random.default_rng((seed, restart)).uniform(0, 2 * np.pi, 8)
    # Powell's fixed tolerances are moderate; they suffice because the sqrt
    # surrogate keeps shrinking visibly until dets sit well below `tol`
    stall = _Stall(tol)
    result = minimize(lambda thetas: _surrogate(amps, thetas, stall.watch), starts,
                      maxiter=iters, stop=stall)
    vecs = _rotated_amps(amps, result.x)
    for restart, (vec, score) in enumerate(zip(vecs, _scores(vecs, tol, has_four_body))):
        candidate = _row(score)
        if candidate < best:
            best = candidate
            best_vec = vec
        trace.append((restart + 1, *best))
    return best_vec, trace


# ---------------------------------------------------------------------------
# closed-form family expectations


SWEEP_FAMILIES = ("G_abcd", "L_abc2", "L_a2b2", "L_a2_0_3p1t", "Psi_ab")


def family_expected(family: str, params: Mapping[str, complex]) -> dict:
    """Closed-form invariant values for the cataloged parametric families."""
    if family not in SWEEP_FAMILIES:
        raise UnknownFamily(f"no closed forms for family {family!r}")
    args = catalog_args(family, params)
    try:
        coeffs, extra = _closed_forms(family, *args)
    except OverflowError:   # a Python power raises where a numpy one saturates
        point = ", ".join(f"{name}={value:g}" for name, value in params.items())
        raise NonFiniteResult(f"closed forms of {family} overflow at {point}") from None
    out = dict(zip(_QUARTIC_FIELDS, _quartic_invariants(*coeffs)))
    out["n_triple_sq"] = out.pop("n_sq")
    return {**out, **extra}


def _closed_forms(family: str, *args: complex) -> tuple[tuple, dict]:
    """(i3_0, i3_1, T, P0, P1) of the family's headline triple, and extra
    values, from its `catalog_args`."""
    if family == "G_abcd":
        a, b, c, d = args
        big_a = (a ** 2 - b ** 2) * (d ** 2 - c ** 2)
        big_b = 0.25 * (a ** 2 - d ** 2) * (b ** 2 - c ** 2)
        return (big_b, big_b, (big_a - 2 * big_b) / 6, 0j, 0j), {"A": big_a, "B": big_b}
    if family == "L_abc2":
        a, b, c = args
        return (c * (a ** 2 - b ** 2), 0j,
                (a ** 2 - c ** 2) * (b ** 2 - c ** 2) / 6, 0j, 0j), {}
    if family == "L_a2b2":
        a, b = args
        return (0j, 0j, (a ** 2 - b ** 2) ** 2 / 6, 0j, 0j), {}
    if family == "L_a2_0_3p1t":
        (a,) = args
        return (0j, 0j, a ** 4 / 6, 0j, 0j), {}
    a, b = args                                         # Psi_ab
    return (a ** 2 * b ** 2, b ** 4, (a ** 4 - 2 * a * b ** 3) / 6,
            a ** 3 * b / 2, -a ** 2 * b ** 2 / 2), {}
