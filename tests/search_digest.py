"""Print one SHA-256 over the frames and traces of many font searches.

Two commits that print the same digest ran every search bit for bit alike:
the digest covers each frame's amplitude bytes and each trace row.  For every
stream and trial, the catalog targets GHZ4 and W4 (4 restarts) and C1 (16
restarts), then the Haar states `random_state(4, seed)` for seeds 1, 2 and 3
(16 restarts), are scrambled with `scramble_special(state, (stream, target,
trial))` and searched by `font_minimize` at `iters=60` and `seed=trial`.
Then Psi_a(1) and GHZ3 x |0>, two states off the G_abcd orbits, are searched
the same way at 16 restarts.  Restart 0 wins every search of the catalog
targets; on the Haar states the random restarts win too, so a change to them
shows here.  The last two start from `_start_frame`, where the swept input
rather than its eigenframe is the start in 9 and 37 of their 48 scrambles at
`--streams 8101 8111`, so a change to the start candidates shows here.

The first line is the digest over every search; one line per target
follows, over that target's searches alone, so a change that is meant to
move some targets can show that the others ran alike.

    PYTHONPATH=src python3 tests/search_digest.py --trials 24 --streams 8101 8111

Point PYTHONPATH at another checkout's `src` to digest that commit.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from helpers import scramble_special
from negfonts import catalog_state, font_minimize, make_state, normalize, random_state

TARGETS = (("GHZ4", 4), ("W4", 4), ("C1", 16))
HAAR_SEEDS = (1, 2, 3)
ITERS = 60


def search_digests(streams, trials: int) -> tuple[str, dict[str, str]]:
    """The digest over every search, and one per target."""
    digest = hashlib.sha256()
    bases = [(name, normalize(catalog_state(name)), restarts) for name, restarts in TARGETS]
    bases += [(f"random_state(4, {seed})", random_state(4, seed), 16) for seed in HAAR_SEEDS]
    ghz3_0 = make_state(4, np.kron(catalog_state("GHZ3").amps, np.eye(2)[0]))
    bases += [(name, normalize(state), 16) for name, state in
              (("Psi_a(1)", catalog_state("Psi_a", {"a": 1})), ("GHZ3 x |0>", ghz3_0))]
    targets = {name: hashlib.sha256() for name, _, _ in bases}
    for stream in streams:
        for k, (name, base, restarts) in enumerate(bases):
            for trial in range(trials):
                state = scramble_special(base, (stream, k, trial))
                frame, trace = font_minimize(state, restarts=restarts, iters=ITERS,
                                             seed=trial)
                for h in (digest, targets[name]):
                    h.update(frame.amps.tobytes())
                    h.update(repr(trace).encode())
    return digest.hexdigest(), {name: h.hexdigest() for name, h in targets.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=24,
                        help="scrambles per target and stream (default 24)")
    parser.add_argument("--streams", type=int, nargs="+", default=[8101],
                        help="scramble seed streams (default 8101)")
    args = parser.parse_args(argv)
    total, targets = search_digests(args.streams, args.trials)
    print(total)
    for name, hexdigest in targets.items():
        print(f"  {name}: {hexdigest}")


if __name__ == "__main__":
    main()
