"""Compare two checkouts on a benchmark workload, in alternating pairs.

    python3 tests/bench_pairs.py PARENT CHANGE --workload invariants --pairs 10 --seed 1211

PARENT and CHANGE are the roots of two checkouts.  Each pair runs each side's
own `bench/run.py --trace 0` once, for the `run_seconds` of CHANGE's
BENCHMARK.json; the side that runs first alternates from pair to pair.  With
`--workload all` one run covers every workload, and `bench/run.py` prefixes
each metric `<workload>.`.  For each end-to-end metric the script prints both
sides' medians and quartiles, how many pairs the change won in the metric's
`better` direction (ties count for neither side), and a verdict judged with
the `better` and `bound` of the metric's entry in BENCHMARK.json:

- REGRESSION: the change's median is worse than the parent's by more than
  the bound;
- GAIN: the change wins at least nine tenths of the pairs and the medians
  differ by more than the distance between the parent's quartiles;
- UNRESOLVED: the parent's quartiles lie further apart than the bound, and
  not every change run beats every parent run, so the runs spread too widely
  to tell a change within the bound from noise.

Bytecode on one side only lowers that side's `peak_rss_mb`, so every
`__pycache__` under either checkout is deleted before each run, and the runs
are made with PYTHONDONTWRITEBYTECODE=1.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10


def purge_bytecode(root: Path) -> None:
    for cache in sorted(root.rglob("__pycache__")):
        print(f"removing {cache}", file=sys.stderr)
        shutil.rmtree(cache)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run of a checkout; its end-to-end metrics by name."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {root}: bench/run.py exited with code {done.returncode}\n"
                 f"{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"error: {root}: a run was incorrect or had failed ops:\n{done.stdout}")
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {**metrics, "attempted": result["attempted"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """REGRESSION, GAIN, UNRESOLVED or "" for one metric's runs, paired in order."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if sign * (pm - cm) > bound * abs(pm):
        return "REGRESSION"
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if won >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1:
        return "GAIN"
    if p3 - p1 > bound * abs(pm) and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "UNRESOLVED"
    return ""


def end_to_end(run: dict, bench: dict) -> dict:
    """The end-to-end metrics of a run, bare or prefixed `<workload>.`, each
    with the BENCHMARK.json entry of its bare name."""
    spec = {m["name"]: m for m in bench["end_to_end"]}
    return {name: spec[name.rpartition(".")[2]] for name in run
            if name.rpartition(".")[2] in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1211)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())

    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            for root in roots.values():
                purge_bytecode(root)
            runs[side].append(run_once(roots[side], args.workload, args.seed,
                                       bench["run_seconds"]))
        metrics = end_to_end(runs["change"][-1], bench)
        print(f"pair {pair + 1}: " + "  ".join(
            f"{name} {runs['parent'][-1][name]:.6g} -> {runs['change'][-1][name]:.6g}"
            for name in metrics), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{bench['run_seconds']} s runs; median [q1, q3]")
    for name, metric in metrics.items():
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        tag = verdict(parent, change, metric["better"], metric["bound"])
        print(f"{name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
              f"[{c1:.6g}, {c3:.6g}]  change {cm / pm - 1:+.2%}, won {won} of "
              f"{args.pairs}{'  ' + tag if tag else ''}")
    # the runner keeps a record per op, so peak_rss_mb grows with this count
    print("attempted ops: parent {:g}, change {:g} (medians)".format(
        *(statistics.median(r["attempted"] for r in runs[side]) for side in runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
