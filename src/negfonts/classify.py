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

import cmath
import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping

import numpy as np
from scipy.optimize import minimize

from .errors import MissingParameter, SearchDrift, UnknownFamily, WrongArity
from .fonts import font_counts
from .invariants import DEFAULT_TOL, aggregate_invariants, tau48_from_i48
from .states import PureState, normalize

MAJOR_CLASSES = ("I", "II", "III", "IV", "V", "VI", "VII")
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


def _cut_entangled(state: PureState, p: int, tol: float) -> bool:
    """Qubit p is entangled with the rest iff some font for p has nonzero det."""
    threshold = tol * state.norm ** 2
    moduli = _det_moduli(np.moveaxis(state.tensor(), p - 1, 0))
    return bool(np.any(moduli > threshold))


def _decide(i48_zero: bool, dres_zero: bool, delta_zero: bool,
            n2: int, n3: int, n4: int) -> tuple[str, list[str]]:
    """Map a signature to a major class; returns (class, notes)."""
    notes: list[str] = []
    if not i48_zero:
        # four-body correlations present: class I-IV, split by surviving fonts
        if n3 > 0 and n2 > 0:
            cls = "I"
        elif n3 > 0:
            cls = "II"
        elif n2 > 0:
            cls = "III"
        else:
            cls = "IV"
        expected = {"I": (False, False), "II": (False, True),
                    "III": (True, False), "IV": (True, True)}[cls]
        if (dres_zero, delta_zero) != expected:
            notes.append(
                f"font counts select class {cls}; invariant pattern "
                f"(dres_zero={dres_zero}, delta_zero={delta_zero}) differs from "
                f"the typical (dres_zero={expected[0]}, delta_zero={expected[1]})")
        if cls == "III":
            notes.append("class III residual reading: dres "
                         + ("zero" if dres_zero else "nonzero"))
        return cls, notes
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
    notes: list[str] = []
    work = normalize(state)

    if not any(_cut_entangled(work, p, tol) for p in (1, 2, 3, 4)):
        sig = ClassSignature(True, True, True, 0, 0, 0, 0.0, 0.0, 0.0)
        return ClassReport(UNENTANGLED, sig, False,
                           ("separable across every single-qubit cut",), tol, 0.0)

    report = aggregate_invariants(work, tol)
    i48_max = max(abs(tr.i48) for tr in report.triples)
    dres_max = max(tr.dres for tr in report.triples)
    delta_max = max(abs(tr.delta24) for tr in report.triples)
    i48_zero = i48_max <= tol
    dres_zero = dres_max <= tol
    delta_zero = delta_max <= tol

    counted = work
    minimized = False
    if use_font_min:
        counted, _trace = font_minimize(work, restarts=restarts, iters=iters,
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
    return ClassReport(cls, sig, minimized, tuple(notes), tol,
                       tau48_from_i48(report.i48))


# ---------------------------------------------------------------------------
# local-unitary font minimization


def _euler_su2(a: float, b: float, g: float) -> np.ndarray:
    """Rz(a) @ Ry(b) @ Rz(g) written out in closed form."""
    cb, sb = math.cos(b / 2), math.sin(b / 2)
    plus, minus = cmath.exp(-0.5j * (a + g)), cmath.exp(-0.5j * (a - g))
    return np.array([[plus * cb, -minus * sb],
                     [minus.conjugate() * sb, plus.conjugate() * cb]])


def _kron2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[:, None, :, None] * v[None, :, None, :]).reshape(4, 4)


def _rotated_amps(amps: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Four-qubit amplitudes after one Euler-angle SU(2) per qubit.

    With the amplitudes as a 4x4 matrix X (rows: qubits 1-2, columns: qubits
    3-4), (U1 x U2 x U3 x U4) vec(X) is vec(L X R^T) for L = U1 x U2 and
    R = U3 x U4, so the 16x16 product is never formed.
    """
    u1, u2, u3, u4 = (_euler_su2(*angles)
                      for angles in np.reshape(thetas, (4, 3)).tolist())
    return (_kron2(u1, u2) @ amps.reshape(4, 4) @ _kron2(u3, u4).T).reshape(-1)


_TRIU_CACHE: dict[int, tuple] = {}


def _triu(cols: int):
    if cols not in _TRIU_CACHE:
        iu = np.triu_indices(cols, k=1)
        # coherence order of each minor: flips among the non-transposed qubits + 1
        orders = np.array([bin(int(a) ^ int(b)).count("1") + 1
                           for a, b in zip(*iu)])
        _TRIU_CACHE[cols] = (iu, orders)
    return _TRIU_CACHE[cols]


def _det_moduli(amps: np.ndarray) -> np.ndarray:
    """|det| of every canonical font for the qubit on the leading axis.

    These are exactly the 2x2 minors of the amplitudes reshaped to a
    2 x 2^(n-1) matrix (rows: that qubit's bit, columns: the other qubits),
    one per column pair of the cached `triu` indices.
    """
    m = amps.reshape(2, -1)
    i0, i1 = _triu(m.shape[1])[0]
    left, right = m[:, i0], m[:, i1]
    return np.abs(left[0] * right[1] - right[0] * left[1])


def _det_orders(n: int) -> np.ndarray:
    return _triu(1 << (n - 1))[1]


# single-qubit Clifford group, used as discrete refinement moves between
# minimal frames that the continuous search cannot distinguish
def _clifford_gates() -> list[np.ndarray]:
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
    return gates


_CLIFFORDS = _clifford_gates()


def _phase_gauge(vec: np.ndarray, n: int, amp_floor: float) -> np.ndarray:
    """Try to make every significant amplitude real via per-qubit z-rotations.

    For small supports the linear system (one z-angle per qubit plus a global
    phase, sign of each amplitude free) is often solvable exactly; Clifford
    moves then act within a real gauge.  Returns the input unchanged when no
    exact gauge is found.
    """
    idx = np.where(np.abs(vec) > amp_floor)[0]
    if not 1 <= len(idx) <= 6:
        return vec
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


def _lexi_objective(moduli: np.ndarray, threshold: float) -> tuple[int, float]:
    return int(np.sum(moduli > threshold)), float(np.sum(moduli))


def _invariant_fingerprint(state: PureState) -> np.ndarray:
    from .invariants import i4, triple_invariants

    rep = [abs(i4(state))]
    for singled in (1, 2, 3, 4):
        tr = triple_invariants(state, singled)
        rep.extend([abs(tr.i48), tr.n_sq])
    return np.array(rep)


def font_minimize(state: PureState, restarts: int = 32, iters: int = 400,
                  seed: int = 0, tol: float = DEFAULT_TOL):
    """Best-effort search for a local-unitary frame with the fewest nonzero fonts.

    Derivative-free Powell search over three Euler angles per qubit with random
    restarts, followed by a greedy hill-climb over single-qubit Clifford moves.
    The accepted objective is lexicographic over the canonical fonts of qubit 1:

        (count above tolerance,
         0 if 4-way-font presence agrees with the degree-8 invariant else 1,
         sum of det moduli,
         number of nonzero amplitudes)

    Minimal frames with different coherence-order splits exist on one orbit;
    the consistency flag and the product-term count pick the one that can be
    canonical.  Returns (state, trace); trace rows are (step, *objective) for
    the accepted best and never increase.
    """
    if state.n_qubits != 4:
        raise WrongArity(f"font_minimize requires n=4, got n={state.n_qubits}")
    n = state.n_qubits
    norm = state.norm
    threshold = tol * norm ** 2
    amps = state.amps
    orders = _det_orders(n)
    from .invariants import i48 as _i48

    has_four_body = abs(_i48(state)) > tol * norm ** 8

    def surrogate(thetas: np.ndarray) -> float:
        # sqrt concentrates weight near zero, favoring sparse det profiles; the
        # amplitude term steers ties toward frames with few product terms
        out = _rotated_amps(amps, thetas)
        return float(np.sum(np.sqrt(_det_moduli(out)))
                     + 0.5 * np.sum(np.sqrt(np.abs(out) / norm)))

    def scored(vec: np.ndarray):
        moduli = _det_moduli(vec)
        count, total = _lexi_objective(moduli, threshold)
        n4 = int(np.sum(moduli[orders == n] > threshold))
        penalty = 0 if (n4 >= 1) == has_four_body else 1
        support = int(np.sum(np.abs(vec) > tol * norm))
        return count, penalty, total, support

    best_vec = amps
    best = scored(best_vec)
    trace = [(0, *best)]
    for restart in range(restarts):
        rng = np.random.default_rng((seed, restart))
        x0 = np.zeros(12) if restart == 0 else rng.uniform(0, 2 * np.pi, 12)
        # the sqrt surrogate keeps shrinking visibly until dets sit well below
        # the count threshold, so moderate tolerances suffice
        result = minimize(surrogate, x0, method="Powell",
                          options={"maxiter": iters, "xtol": 1e-6, "ftol": 1e-8})
        vec = _rotated_amps(amps, result.x)
        candidate = scored(vec)
        if candidate < best:
            best = candidate
            best_vec = vec
        trace.append((restart + 1, *best))

    def strictly_better(cand, ref) -> bool:
        # integer fields compare exactly; the modulus sum needs a noise floor,
        # otherwise gauge moves keep "improving" by rounding error
        if cand[:2] != ref[:2]:
            return cand[:2] < ref[:2]
        if abs(cand[2] - ref[2]) > 1e-9 * norm ** 2:
            return cand[2] < ref[2]
        return cand[3] < ref[3]

    def clifford_moved(vec: np.ndarray, q: int, gate: np.ndarray) -> np.ndarray:
        psi = vec.reshape((2,) * n)
        return np.moveaxis(np.tensordot(gate, psi, axes=([1], [q])), 0, q).reshape(-1)

    # discrete refinement: single-qubit Clifford moves jump between minimal
    # frames whose basins the continuous search does not connect; they need a
    # real amplitude gauge to line the phases up.  The gauge only touches
    # phases, so the objective is unchanged and it is safe to apply always.
    best_vec = _phase_gauge(best_vec, n, tol * norm)
    step = restarts
    for _round in range(16):
        improved = False
        for q in range(n):
            for gate in _CLIFFORDS[1:]:
                moved = clifford_moved(best_vec, q, gate)
                candidate = scored(moved)
                if strictly_better(candidate, best):
                    best = candidate
                    best_vec = moved
                    improved = True
        if not improved and best[1] != 0:
            # stalled in a signature-inconsistent frame: single moves can pass
            # through equal-objective frames, so try commuting pairs
            for qa in range(n):
                for qb in range(qa + 1, n):
                    for ga in _CLIFFORDS[1:]:
                        va = clifford_moved(best_vec, qa, ga)
                        for gb in _CLIFFORDS[1:]:
                            candidate_vec = clifford_moved(va, qb, gb)
                            candidate = scored(candidate_vec)
                            if strictly_better(candidate, best):
                                best = candidate
                                best_vec = candidate_vec
                                improved = True
        step += 1
        trace.append((step, *best))
        if not improved:
            break

    final = np.ascontiguousarray(best_vec)
    final.setflags(write=False)
    minimized = PureState(n, final, state.normalized)
    drift = np.max(np.abs(_invariant_fingerprint(minimized)
                          - _invariant_fingerprint(state)))
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


def _derived(i3_0: complex, i3_1: complex, t: complex,
             p0: complex, p1: complex) -> dict:
    i48 = 3 * t ** 2 - 4 * p0 * p1 + i3_0 * i3_1
    m = np.array([[i3_1, p1, t], [p1, t, p0], [t, p0, i3_0]])
    j = complex(np.linalg.det(m))
    n_sq = (abs(i3_0) ** 2 + abs(i3_1) ** 2 + 6 * abs(t) ** 2
            + 4 * abs(p0) ** 2 + 4 * abs(p1) ** 2)
    return {
        "i3_0": i3_0, "i3_1": i3_1, "t": t, "p0": p0, "p1": p1,
        "i48": complex(i48), "j12": j,
        "delta24": complex(i48 ** 3 - 27 * j ** 2),
        "n_triple_sq": float(n_sq),
        "dres": float(n_sq - 2 * abs(i48)),
    }


def family_expected(family: str, params: Mapping[str, complex]) -> dict:
    """Closed-form invariant values for the cataloged parametric families."""
    if family == "G_abcd":
        a, b, c, d = _require_params(family, params, ("a", "b", "c", "d"))
        big_a = (a ** 2 - b ** 2) * (d ** 2 - c ** 2)
        big_b = 0.25 * (a ** 2 - d ** 2) * (b ** 2 - c ** 2)
        out = _derived(big_b, big_b, (big_a - 2 * big_b) / 6, 0j, 0j)
        out["A"] = big_a
        out["B"] = big_b
        return out
    if family == "L_abc2":
        a, b, c = _require_params(family, params, ("a", "b", "c"))
        return _derived(c * (a ** 2 - b ** 2), 0j,
                        (a ** 2 - c ** 2) * (b ** 2 - c ** 2) / 6, 0j, 0j)
    if family == "L_a2b2":
        a, b = _require_params(family, params, ("a", "b"))
        return _derived(0j, 0j, (a ** 2 - b ** 2) ** 2 / 6, 0j, 0j)
    if family == "L_a2_0_3p1t":
        (a,) = _require_params(family, params, ("a",))
        return _derived(0j, 0j, a ** 4 / 6, 0j, 0j)
    if family == "Psi_ab":
        a, b = _require_params(family, params, ("a", "b"))
        return _derived(a ** 2 * b ** 2, b ** 4, (a ** 4 - 2 * a * b ** 3) / 6,
                        a ** 3 * b / 2, -a ** 2 * b ** 2 / 2)
    raise UnknownFamily(f"no closed forms for family {family!r}")


SWEEP_FAMILIES = ("G_abcd", "L_abc2", "L_a2b2", "L_a2_0_3p1t", "Psi_ab")
