"""The numpy Powell port: scipy parity, and lock-step runs equal to single runs."""

import importlib
import math

import numpy as np
import pytest

from helpers import scramble_special
from negfonts import catalog_state, normalize
from negfonts.powell import FTOL, XTOL, PowellResult, minimize

classify_module = importlib.import_module("negfonts.classify")
powell_module = importlib.import_module("negfonts.powell")

OPTIONS = {"maxiter": 60}


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


def scrambled_surrogates(count):
    """Scalar surrogates of `font_minimize` on scrambled GHZ4 states."""
    ghz = normalize(catalog_state("GHZ4"))
    for trial in range(count):
        state = scramble_special(ghz, (4127, trial))
        yield lambda x, s=state: float(classify_module._surrogate(s.amps, x))


def rowwise(fun):
    return lambda points: [fun(x) for x in points]


def test_matches_scipy_powell():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(4127)
    cases = [(rosenbrock, np.array([-1.2, 1.0, 0.5, -0.3])), (rosenbrock, np.zeros(3))]
    cases += [(f, rng.uniform(0, 2 * np.pi, 8)) for f in scrambled_surrogates(3)]
    for fun, x0 in cases:
        ref = optimize.minimize(fun, x0, method="Powell",
                                options={**OPTIONS, "xtol": XTOL, "ftol": FTOL})
        got = minimize(rowwise(fun), x0, **OPTIONS)
        assert got.nfev == ref.nfev
        assert got.nit[0] == ref.nit
        np.testing.assert_allclose(got.x[0], ref.x, rtol=0, atol=1e-12)
        assert got.fun[0] == pytest.approx(ref.fun, abs=1e-12)


def test_lockstep_equals_single_runs():
    ghz = normalize(catalog_state("GHZ4"))
    state = scramble_special(ghz, (4127, 99))

    def surrogate(thetas):
        return classify_module._surrogate(state.amps, thetas)

    starts = np.random.default_rng(4127).uniform(0, 2 * np.pi, (5, 8))
    starts[0] = 0.0
    lockstep = minimize(surrogate, starts, **OPTIONS)
    singles = [minimize(surrogate, x0, **OPTIONS) for x0 in starts]
    assert lockstep.x.shape == (5, 8)
    assert lockstep.nfev == sum(single.nfev for single in singles)
    for row, single in zip(lockstep.x, singles):
        np.testing.assert_allclose(row, single.x[0], rtol=0, atol=1e-12)


def test_no_starts():
    result = minimize(rowwise(rosenbrock), np.zeros((0, 3)), **OPTIONS)
    assert result.x.shape == (0, 3)
    assert result.nfev == 0


def test_a_stop_hook_that_never_fires_changes_nothing():
    ghz = normalize(catalog_state("GHZ4"))
    state = scramble_special(ghz, (4127, 98))

    def surrogate(thetas):
        return classify_module._surrogate(state.amps, thetas)

    starts = np.random.default_rng(4129).uniform(0, 2 * np.pi, (4, 8))
    calls = []
    ref = minimize(surrogate, starts, **OPTIONS)
    got = minimize(surrogate, starts, stop=lambda: calls.append(1) and False, **OPTIONS)
    np.testing.assert_array_equal(got.x, ref.x)
    np.testing.assert_array_equal(got.fun, ref.fun)
    np.testing.assert_array_equal(got.nit, ref.nit)
    assert (got.nfev, got.rounds) == (ref.nfev, ref.rounds)
    # asked after every round but the last, which leaves no start running
    assert len(calls) == ref.rounds - 1


@pytest.mark.parametrize("after", (1, 2, 37, 400))
def test_a_stop_hook_ends_every_start_at_its_lowest_point(after):
    ghz = normalize(catalog_state("GHZ4"))
    state = scramble_special(ghz, (4127, 97))
    evaluated = []

    def surrogate(thetas):
        values = classify_module._surrogate(state.amps, thetas)
        evaluated.extend(zip(map(tuple, thetas), values))
        return values

    def f(x):
        return classify_module._surrogate(state.amps, x[None])[0]

    starts = np.random.default_rng(4131).uniform(0, 2 * np.pi, (5, 8))
    calls = []
    result = minimize(surrogate, starts,
                      stop=lambda: calls.append(1) or len(calls) == after, **OPTIONS)
    assert result.rounds == after
    assert result.nfev == len(evaluated)
    assert result.x.shape == (5, 8)
    assert np.all(np.isfinite(result.fun))
    for x, fun in zip(result.x, result.fun):
        assert fun == f(x)
        assert (tuple(x), fun) in evaluated
    # every start began from its own row, and its end is no worse than that
    assert np.all(result.fun <= [f(x) for x in starts])
    assert np.all(result.nit <= OPTIONS["maxiter"])


def test_pending_starts_keep_their_order():
    # the rows of a call are the unfinished starts in start order, and a
    # start that ended never comes back
    ghz = normalize(catalog_state("GHZ4"))
    state = scramble_special(ghz, (4127, 95))

    def recorded(calls):
        def surrogate(thetas):
            calls.append(thetas.copy())
            return classify_module._surrogate(state.amps, thetas)
        return surrogate

    starts = np.random.default_rng(4137).uniform(0, 2 * np.pi, (5, 8))
    starts[0] = 0.0
    calls = []
    result = minimize(recorded(calls), starts, maxiter=2,
                      stop=lambda: len(calls[-1]) == 2)
    sizes = [len(points) for points in calls]
    assert result.rounds == len(calls)
    # three starts ended on their own, and the stop hook ended the others
    assert sizes[0] == 5 and sizes[-1] == 2 and sorted(set(sizes)) == [2, 3, 4, 5]
    assert sizes.count(2) == 1 and (result.nit < 2).any()
    assert sizes == sorted(sizes, reverse=True)
    # round r's rows are the r-th points of the starts still running, in order
    singles = []
    for x0 in starts:
        singles.append([])
        minimize(recorded(singles[-1]), x0, maxiter=2)
    for r, points in enumerate(calls):
        running = [single[r] for single in singles if len(single) > r]
        np.testing.assert_array_equal(points, np.vstack(running))


def reference_minimize(fun, x0, *, maxiter, stop=None):
    """The lock-step driver as first written: each start's pending point is a
    triple (p, xi, alpha), and a round stacks the triples column by column.

    It runs the same `_powell` generators; the triple of a start is its step
    and the line it wrote when it began that line.
    """
    starts = np.asarray(x0, dtype=float)
    if starts.ndim == 1:
        starts = starts[None]
    n = starts.shape[1]
    nit = np.zeros(len(starts), dtype=int)
    lines = [np.zeros((2, n)) for _ in starts]
    runs = [powell_module._powell(x, maxiter, nit[i:i + 1], lines[i])
            for i, x in enumerate(starts)]
    for run in runs:
        next(run)
    pending = dict.fromkeys(range(len(runs)))
    points = starts
    ends = [None] * len(runs)
    lowest = [(x, math.inf) for x in starts]
    nfev = rounds = 0
    partial = False
    while pending:
        order = list(pending)
        partial |= len(order) < len(runs)
        values = np.asarray(fun(points), dtype=float)
        nfev += len(order)
        rounds += 1
        for i, point, value in zip(order, points, values.tolist()):
            if value < lowest[i][1]:
                lowest[i] = (point, value)
            try:
                alpha = runs[i].send(value)
                pending[i] = (lines[i][0].copy(), lines[i][1].copy(), alpha)
            except StopIteration as end:
                del pending[i]
                ends[i] = end.value
        if stop is not None and pending and stop():
            for i in pending:
                ends[i] = lowest[i]
            break
        if pending:
            p, xi, alpha = (np.array(column) for column in zip(*pending.values()))
            points = p + alpha[:, None] * xi
    result = PowellResult(x=np.array([e[0] for e in ends]).reshape(len(runs), n),
                          fun=np.array([e[1] for e in ends]), nit=nit, nfev=nfev,
                          rounds=rounds)
    return result, partial


@pytest.mark.parametrize("count", (1, 4, 16, 32))
def test_the_driver_matches_the_triple_stacking_driver_bit_for_bit(count):
    ghz = normalize(catalog_state("GHZ4"))
    state = scramble_special(ghz, (4127, 96, count))

    def surrogate(thetas):
        return classify_module._surrogate(state.amps, thetas)

    def after(rounds):
        if rounds is None:
            return None
        calls = []
        return lambda: calls.append(1) or len(calls) == rounds

    starts = np.random.default_rng((4133, count)).uniform(0, 2 * np.pi, (count, 8))
    starts[0] = 0.0
    partial_seen = False
    for maxiter, rounds in [(60, None), (60, 1), (60, 2), (60, 37), (60, 400),
                            (1, None), (2, None), (2, 37)]:
        got = minimize(surrogate, starts, maxiter=maxiter, stop=after(rounds))
        ref, partial = reference_minimize(surrogate, starts, maxiter=maxiter,
                                          stop=after(rounds))
        partial_seen |= partial
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.fun.tobytes() == ref.fun.tobytes()
        np.testing.assert_array_equal(got.nit, ref.nit)
        assert (got.nfev, got.rounds) == (ref.nfev, ref.rounds)
        if rounds is not None:
            assert got.rounds == rounds
    # with more than one start, some rounds ran after other starts had ended
    assert partial_seen == (count > 1)
