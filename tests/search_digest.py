"""Print one SHA-256 over the frames and traces of many font searches.

Two commits that print the same digest ran every search bit for bit alike:
the digest covers each frame's amplitude bytes and each trace row.  For every
stream and trial, the catalog targets GHZ4 and W4 (4 restarts) and C1 (16
restarts), then the Haar states `random_state(4, seed)` for seeds 1, 2 and 3
(16 restarts), are scrambled with `scramble_special(state, (stream, target,
trial))` and searched by `font_minimize` at `iters=60` and `seed=trial`.
Restart 0 wins every search of the catalog targets; on the Haar states the
random restarts win too, so a change to them shows here.

    PYTHONPATH=src python3 tests/search_digest.py --trials 24 --streams 8101 8111

Point PYTHONPATH at another checkout's `src` to digest that commit.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib

from helpers import scramble_special
from negfonts import catalog_state, font_minimize, normalize, random_state

TARGETS = (("GHZ4", 4), ("W4", 4), ("C1", 16))
HAAR_SEEDS = (1, 2, 3)
ITERS = 60


def search_digest(streams, trials: int) -> str:
    digest = hashlib.sha256()
    bases = [(normalize(catalog_state(name)), restarts) for name, restarts in TARGETS]
    bases += [(random_state(4, seed), 16) for seed in HAAR_SEEDS]
    for stream in streams:
        for k, (base, restarts) in enumerate(bases):
            for trial in range(trials):
                state = scramble_special(base, (stream, k, trial))
                frame, trace = font_minimize(state, restarts=restarts, iters=ITERS,
                                             seed=trial)
                digest.update(frame.amps.tobytes())
                digest.update(repr(trace).encode())
    return digest.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=24,
                        help="scrambles per target and stream (default 24)")
    parser.add_argument("--streams", type=int, nargs="+", default=[8101],
                        help="scramble seed streams (default 8101)")
    args = parser.parse_args(argv)
    print(search_digest(args.streams, args.trials))


if __name__ == "__main__":
    main()
