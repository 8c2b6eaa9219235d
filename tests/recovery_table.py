"""Print how often the font search recovers each target's class, and where it ends.

For every target and every stream, `--trials` scrambles `scramble_special(
state, (stream, target, trial))` are classified with `classify(...,
use_font_min=True, iters=60, seed=trial)`.  The targets are those of
`search_digest.py` (GHZ4 and W4 at 4 restarts, C1 at 16); `--targets all`
adds the other worked examples at 16 restarts: Psi_ab(1,1), Psi_a(1), the
five G_abcd points, BrownPhi, HS, Dicke42, C2 and C3; then, also at 16
restarts, states off the G_abcd orbits: L_abc2(1,2,3), L_abc2(1,1,2),
L_a2b2(1,0), L_a2b2(1,2), L_a2_0_3p1t(1), Psi_ab(2,0.5), W3 and GHZ3 beside
|0> on either side, Bell x Bell, Bell beside |00> on either side, and the
Haar states `random_state(4, seed)` for seeds 1, 2 and 3.  Each row gives how
many came out in the class of the unscrambled frame, a histogram of the searched
frame's (n2, n3, n4) with the number of frames whose 4-way fonts disagree
with i48 (penalty 1), the median milliseconds per `classify` call, and an
outcome digest: the first 8 hex digits of a SHA-256 over each search's
(class, n2, n3, n4, penalty) in trial order.  Two commits whose rows print
the same digest ended every search of that row alike, search by search.

    PYTHONPATH=src python3 tests/recovery_table.py --trials 40 --streams 9811 9823
    PYTHONPATH=src python3 tests/recovery_table.py --targets all --trials 20

A change to the font search that is not bit for bit (`search_digest.py`
prints a new digest) is judged on this table, run on its parent and on it,
on streams not used while writing the change.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import time
from collections import Counter
from functools import reduce

import numpy as np

from helpers import scramble_special
from negfonts import PureState, catalog_state, classify, make_state, normalize, random_state
from search_digest import ITERS, TARGETS

ZERO, ZERO2 = np.eye(2)[0], np.eye(4)[0]


def _named(name: str, params=None) -> np.ndarray:
    return catalog_state(name, params).amps


def _product(*factors: np.ndarray) -> PureState:
    return make_state(4, reduce(np.kron, factors))


# (label, base state, restarts); the digest targets come first, then the
# worked examples, then the states off the G_abcd orbits, so a row's scramble
# seeds do not depend on the rows after it
DIGEST = tuple((name, catalog_state(name), restarts) for name, restarts in TARGETS)
WORKED = DIGEST + tuple((label, catalog_state(name, params), 16) for label, name, params in (
    ("Psi_ab(1,1)", "Psi_ab", {"a": 1, "b": 1}),
    ("Psi_a(1)", "Psi_a", {"a": 1}),
    ("G_abcd(1,2,3,5)", "G_abcd", {"a": 1, "b": 2, "c": 3, "d": 5}),
    ("G_abcd(1+0.5i,2,3-i,5)", "G_abcd", {"a": 1 + 0.5j, "b": 2, "c": 3 - 1j, "d": 5}),
    ("G_a00a", "G_abcd", {"a": 1, "b": 0, "c": 0, "d": 1}),
    ("G_0bb0", "G_abcd", {"a": 0, "b": 0.7, "c": 0.7, "d": 0}),
    ("G_aaaa", "G_abcd", {"a": 0.8, "b": 0.8, "c": 0.8, "d": 0.8}),
    *((name, name, None) for name in ("BrownPhi", "HS", "Dicke42", "C2", "C3")),
))
OFF_ORBIT = tuple((label, state, 16) for label, state in (
    ("L_abc2(1,2,3)", catalog_state("L_abc2", {"a": 1, "b": 2, "c": 3})),
    ("L_abc2(1,1,2)", catalog_state("L_abc2", {"a": 1, "b": 1, "c": 2})),
    ("L_a2b2(1,0)", catalog_state("L_a2b2", {"a": 1, "b": 0})),
    ("L_a2b2(1,2)", catalog_state("L_a2b2", {"a": 1, "b": 2})),
    ("L_a2_0_3p1t(1)", catalog_state("L_a2_0_3p1t", {"a": 1})),
    ("Psi_ab(2,0.5)", catalog_state("Psi_ab", {"a": 2, "b": 0.5})),
    ("W3 x 0", _product(_named("W3"), ZERO)),
    ("0 x W3", _product(ZERO, _named("W3"))),
    ("GHZ3 x 0", _product(_named("GHZ3"), ZERO)),
    ("0 x GHZ3", _product(ZERO, _named("GHZ3"))),
    ("Bell x Bell", _product(_named("Bell"), _named("Bell"))),
    ("Bell x 00", _product(_named("Bell"), ZERO2)),
    ("00 x Bell", _product(ZERO2, _named("Bell"))),
    *((f"Haar {seed}", random_state(4, seed)) for seed in (1, 2, 3)),
))
TARGET_SETS = {"digest": DIGEST, "all": WORKED + OFF_ORBIT}


def recovery_rows(streams, trials: int, targets=DIGEST):
    """(stream, target, recovered, histogram, penalized, median ms, outcome digest)
    per target and stream."""
    for stream in streams:
        for k, (label, state, restarts) in enumerate(targets):
            base = normalize(state)
            expected = classify(base).major_class
            recovered = penalized = 0
            counts, times = Counter(), []
            outcomes = hashlib.sha256()
            for trial in range(trials):
                state = scramble_special(base, (stream, k, trial))
                start = time.perf_counter()
                report = classify(state, use_font_min=True, seed=trial,
                                  restarts=restarts, iters=ITERS)
                times.append(time.perf_counter() - start)
                sig = report.signature
                recovered += report.major_class == expected
                counts[sig.n2, sig.n3, sig.n4] += 1
                penalty = int((sig.n4 > 0) == sig.i48_zero)
                penalized += penalty
                outcomes.update(repr((report.major_class, sig.n2, sig.n3, sig.n4,
                                      penalty)).encode())
            yield (stream, label, recovered, counts, penalized,
                   1e3 * statistics.median(times), outcomes.hexdigest()[:8])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=40,
                        help="scrambles per target and stream (default 40)")
    parser.add_argument("--streams", type=int, nargs="+", default=[9811],
                        help="scramble seed streams (default 9811)")
    parser.add_argument("--targets", choices=sorted(TARGET_SETS), default="digest",
                        help="digest: GHZ4, W4 and C1 (default); all: also every "
                             "worked example, named catalog state and off-orbit row")
    args = parser.parse_args(argv)
    print("| stream | target | recovered | (n2, n3, n4): searches | penalty 1 | ms/search "
          "| outcomes |")
    print("|---|---|---|---|---|---|---|")
    for stream, name, recovered, counts, penalized, ms, outcomes in recovery_rows(
            args.streams, args.trials, TARGET_SETS[args.targets]):
        histogram = ", ".join(f"{key}: {n}" for key, n in counts.most_common())
        print(f"| {stream} | {name} | {recovered}/{args.trials} | {histogram} "
              f"| {penalized} | {ms:.0f} | {outcomes} |")


if __name__ == "__main__":
    main()
