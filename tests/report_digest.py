"""Print one SHA-256 over the bytes of the CLI's reports.

Two commits that print the same digest wrote the same bytes, stderr and exit
code for each command below.  For every catalog state (families at one fixed
complex point) it runs, in a scratch directory:

- `catalog` (the state file it writes);
- `invariants`, `classify` without search, `fonts` and `negativity` on that
  file; a command that does not take the state's qubit count enters through
  its stderr and exit code;

then one `sweep` of `G_abcd` over a 3 x 2 x 2 x 2 grid and one `catalog` call
that mixes positional and `--param` arguments.  Last come the float.hex of the
worst defect and the label of each `check` suite's runner, at 20 trials and
seeds 0 and 4409.

    PYTHONPATH=src python3 tests/report_digest.py

Point PYTHONPATH at another checkout's `src` to digest that commit.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

from negfonts import CATALOG, catalog_names
from negfonts.cli import CHECK_SUITES, main

POINT = "0.7-0.3j"
REPORTS = ("invariants", "classify", "fonts", "negativity")
SWEEP = ("sweep", "--family", "G_abcd", "--param", "a=0.5:1.5:3", "--param", "b=0.2,1",
         "--param", "c=-1,0.3j", "--param", "d=2,1-1j", "--out", "sweep.csv")
MIXED = ("catalog", "Psi_ab", f"a={POINT}", "--param", " b = 2", "--out", "state.txt")
CHECK_TRIALS = 20
CHECK_SEEDS = (0, 4409)


def _run(digest, argv, out_file: str | None = None) -> None:
    """Feed argv, its exit code, stdout and stderr, and out_file's text to digest."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    words = [" ".join(argv), str(code), out.getvalue(), err.getvalue()]
    if out_file is not None:
        with open(out_file, encoding="utf-8") as fh:
            words.append(fh.read())
    digest.update("\n".join(words).encode())
    digest.update(b"\n")


def report_digest() -> str:
    digest = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        # relative paths, so that the reports' input path is the same on every run
        os.chdir(scratch)
        try:
            for name in catalog_names():
                params = [f"{p}={POINT}" for p in CATALOG[name].params]
                _run(digest, ["catalog", name, *params, "--out", "state.txt"], "state.txt")
                for command in REPORTS:
                    _run(digest, [command, "--in", "state.txt"])
            _run(digest, SWEEP, "sweep.csv")
            _run(digest, MIXED, "state.txt")
        finally:
            os.chdir(home)
    for suite, (runner, _, tol) in sorted(CHECK_SUITES.items()):
        for seed in CHECK_SEEDS:
            worst, label = runner(CHECK_TRIALS, seed, tol)
            digest.update(f"check {suite} {seed} {float.hex(worst)} {label}\n".encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(report_digest())
