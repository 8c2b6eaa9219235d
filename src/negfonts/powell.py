"""Powell's direction-set minimizer in numpy, run over many starts in lock-step.

A step-for-step port of the unbounded path of scipy's
`minimize(method="Powell")` (scipy 1.17: `bracket`, `Brent.optimize`,
`_linesearch_powell` and `_minimize_powell`) at scipy's `xtol=XTOL`, `ftol=FTOL`
and default direction set.  One start makes the same evaluations as scipy and
ends at the same point.  Bounds, callbacks, `direc` and `maxfev` are not ported.

Each stage is a generator: it yields the step alpha it needs evaluated along
its start's current line p + alpha xi, and is sent back the value there.
`minimize` holds the lines (p, xi) of all R starts as rows of two preallocated
(R, n) arrays, and a start writes its rows only when it begins a new line.  A
round forms the points the starts are waiting for as p + alpha[:, None] * xi
from the list alpha of their steps, evaluates them in one call of a batched
objective and sends the values back, so R starts cost one vectorized call per
step instead of R scalar ones.

References: M. J. D. Powell, Comput. J. 7, 155 (1964); R. P. Brent,
Algorithms for Minimization without Derivatives (Prentice-Hall, 1973).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

_GOLD = 1.618034            # bracket growth ratio, (1 + sqrt(5)) / 2
_CG = 0.3819660             # golden-section fraction, (3 - sqrt(5)) / 2
_GROW_LIMIT = 110.0         # longest parabolic step of the bracket, in units of xc - xb
_BRACKET_MAXITER = 1000     # bracket steps before the walk gives up
_BRENT_MAXITER = 500        # Brent steps per line search
_MINTOL = 1.0e-11           # absolute part of Brent's tolerance
_VERYSMALL = 1e-21          # guards the parabolic-extrapolation denominator
XTOL = 1e-6                 # Brent's relative tolerance is 100 * XTOL
FTOL = 1e-8                 # relative gain below which a sweep ends the search


def _bracket():
    """Walk downhill from alpha = 0, 1 until a minimum is bracketed.

    Returns (xa, xb, xc, fa, fb, fc, valid); `valid` is False when the walk
    stopped without a proper bracket.
    """
    xa, xb = 0.0, 1.0
    fa = yield xa
    fb = yield xb
    if fa < fb:
        xa, xb = xb, xa
        fa, fb = fb, fa
    xc = xb + _GOLD * (xb - xa)
    fc = yield xc
    iterations = 0
    while fc < fb:
        tmp1 = (xb - xa) * (fb - fc)
        tmp2 = (xb - xc) * (fb - fa)
        val = tmp2 - tmp1
        denom = 2.0 * _VERYSMALL if abs(val) < _VERYSMALL else 2.0 * val
        w = xb - ((xb - xc) * tmp2 - (xb - xa) * tmp1) / denom
        wlim = xb + _GROW_LIMIT * (xc - xb)
        if iterations > _BRACKET_MAXITER:
            raise RuntimeError("no valid bracket was found before the iteration limit")
        iterations += 1
        if (w - xc) * (xb - w) > 0.0:
            fw = yield w
            if fw < fc:
                xa, xb = xb, w
                fa, fb = fb, fw
                break
            if fw > fb:
                xc, fc = w, fw
                break
            w = xc + _GOLD * (xc - xb)
            fw = yield w
        elif (w - wlim) * (wlim - xc) >= 0.0:
            w = wlim
            fw = yield w
        elif (w - wlim) * (xc - w) > 0.0:
            fw = yield w
            if fw < fc:
                xb, xc = xc, w
                w = xc + _GOLD * (xc - xb)
                fb, fc = fc, fw
                fw = yield w
        else:
            w = xc + _GOLD * (xc - xb)
            fw = yield w
        xa, xb, xc = xb, xc, w
        fa, fb, fc = fb, fc, fw
    valid = (((fb < fc and fb <= fa) or (fb < fa and fb <= fc))
             and (xa < xb < xc or xc < xb < xa)
             and all(math.isfinite(x) for x in (xa, xb, xc)))
    return xa, xb, xc, fa, fb, fc, valid


def _brent(tol: float):
    """Brent's minimization along the current line; returns (alpha, f at alpha)."""
    xa, xb, xc, fa, fb, fc, valid = yield from _bracket()
    if not valid:
        # as scipy recovers from a failed bracket: the best point seen
        if any(math.isnan(v) for v in (xa, xb, xc, fa, fb, fc)):
            return math.nan, math.nan
        return min(((xa, fa), (xb, fb), (xc, fc)), key=lambda pair: pair[1])
    x = w = v = xb
    fw = fv = fx = fb
    a, b = (xa, xc) if xa < xc else (xc, xa)
    deltax = rat = 0.0
    for _ in range(_BRENT_MAXITER):
        tol1 = tol * abs(x) + _MINTOL
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        if abs(deltax) <= tol1:
            deltax = a - x if x >= xmid else b - x      # golden-section step
            rat = _CG * deltax
        else:                                           # parabolic step
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp = deltax
            deltax = rat
            if p > tmp2 * (a - x) and p < tmp2 * (b - x) and abs(p) < abs(0.5 * tmp2 * dx_temp):
                rat = p * 1.0 / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                deltax = a - x if x >= xmid else b - x
                rat = _CG * deltax
        if abs(rat) < tol1:                             # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = yield u
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
    return x, fx


def _linesearch(fval: float, p: np.ndarray, xi: np.ndarray, tol: float, line: np.ndarray):
    """Minimize along p + alpha xi; returns (f, new point, step taken).

    `line` is the start's (p, xi) row pair of the driver's line arrays.
    """
    if not np.any(xi):
        return fval, p, xi
    line[0], line[1] = p, xi
    alpha, fret = yield from _brent(tol)
    xi = alpha * xi
    return fret, p + xi, xi


def _powell(x0: np.ndarray, maxiter: int, sweeps: np.ndarray, line: np.ndarray):
    """One Powell search from x0, its direction set starting at the n unit vectors.

    Counts its finished sweeps in the one-element array `sweeps`, so that a
    search stopped from outside still reports them, and writes each line it
    searches into the (2, n) view `line`.  Once started, it waits to be sent
    the objective at x0, which `minimize` evaluates for all starts.
    """
    x = np.array(x0, dtype=float)
    direc = np.eye(len(x))
    fval = yield
    x1 = x.copy()
    while True:
        fx = fval
        bigind = 0
        delta = 0.0
        for i in range(len(direc)):
            fx2 = fval
            fval, x, _ = yield from _linesearch(fval, x, direc[i], XTOL * 100, line)
            if fx2 - fval > delta:
                delta = fx2 - fval
                bigind = i
        sweeps += 1
        bnd = FTOL * (abs(fx) + abs(fval)) + 1e-20
        if 2.0 * (fx - fval) <= bnd or sweeps[0] >= maxiter:
            break
        if math.isnan(fx) and math.isnan(fval):
            break
        # extrapolate along the net move of this sweep
        direc1 = x - x1
        x1 = x.copy()
        line[0], line[1] = x, direc1
        fx2 = yield 1.0
        if fx > fx2:
            t = 2.0 * (fx + fx2 - 2.0 * fval)
            temp = fx - fval - delta
            t *= temp * temp
            temp = fx - fx2
            t -= delta * temp * temp
            if t < 0.0:
                fval, x, direc1 = yield from _linesearch(fval, x, direc1, XTOL * 100, line)
                if np.any(direc1):
                    direc[bigind] = direc[-1]
                    direc[-1] = direc1
    return x, fval


class PowellResult(NamedTuple):
    x: np.ndarray           # (R, n): the end point of each start
    fun: np.ndarray         # (R,): the objective there
    nit: np.ndarray         # (R,): sweeps over the direction set
    nfev: int               # points evaluated, summed over the starts
    rounds: int             # batched calls of the objective


def minimize(fun: Callable[[np.ndarray], np.ndarray], x0, *, maxiter: int,
             stop: Callable[[], bool] | None = None) -> PowellResult:
    """Run Powell's method from every row of `x0` in lock-step.

    `fun` maps a (k, n) array of points to their k values.  Every start is
    an independent search over its own copy of the n unit vectors.  Each
    round evaluates the pending points of all unfinished starts in one `fun`
    call, one row per start in start order; a start that ends never comes
    back.

    `stop`, when given, is called after every round; once it returns True,
    the unfinished starts end at the lowest point they have evaluated.
    Without it every start runs to Powell's own end.
    """
    starts = np.asarray(x0, dtype=float)
    if starts.ndim == 1:
        starts = starts[None]
    n = starts.shape[1]
    nit = np.zeros(len(starts), dtype=int)
    # per start: the line (p, xi) its pending point lies on, a row of line_p and line_xi
    lines = np.zeros((2,) + starts.shape)
    line_p, line_xi = lines
    runs = [_powell(x, maxiter, nit[i:i + 1], lines[:, i])
            for i, x in enumerate(starts)]
    for run in runs:
        next(run)
    # per start: the step along its line it waits for; the first round is the starts
    pending = dict.fromkeys(range(len(runs)))
    order = list(pending)
    points = starts
    ends: list = [None] * len(runs)
    lowest = [(x, math.inf) for x in starts]   # per start: its lowest point so far
    nfev = rounds = 0
    while order:
        values = np.asarray(fun(points), dtype=float)
        nfev += len(order)
        rounds += 1
        for j, (i, value) in enumerate(zip(order, values.tolist())):
            if value < lowest[i][1]:
                lowest[i] = (points[j], value)
            try:
                pending[i] = runs[i].send(value)
            except StopIteration as end:
                del pending[i]
                ends[i] = end.value
        if stop is not None and pending and stop():
            for i in pending:
                ends[i] = lowest[i]
            break
        order = list(pending)
        alpha = np.array(list(pending.values()))[:, None]
        if len(order) == len(runs):     # a gather would cost more than the points
            points = line_p + alpha * line_xi
        else:
            points = line_p[order] + alpha * line_xi[order]
    return PowellResult(x=np.array([e[0] for e in ends]).reshape(len(runs), n),
                        fun=np.array([e[1] for e in ends]), nit=nit, nfev=nfev,
                        rounds=rounds)
