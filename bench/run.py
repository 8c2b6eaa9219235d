"""negfonts benchmark: four workloads, end-to-end metrics, traced per-layer metrics.

    python3 bench/run.py --workload fontmin --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
`--workload all` runs the four workloads one after another, each in a child
process of its own, so that each reports its own peak memory.  Every line but the
last is for people; the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one BLAS thread: set before numpy is first imported, and
# inherited by every child interpreter.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402  (after the BLAS thread setting)

SETUP_REPEATS = 3
# Machine-speed calibration.  CPU speed on a shared host drifts by 20% and
# more within a second, and a fixed loop slows with it, so every time is scaled
# to a reference speed: the one at which `calibration_kernel` takes CAL_REF_S.
# For ops in this process a timer runs the kernel every CAL_PERIOD_S, inside
# ops as well as between them.  While a child process runs, the kernel read
# about twice as slow on a 2-vCPU cloud VM, as the two contend for the host, so
# ops that wait on a child are followed by kernel runs for CAL_SHARE of their
# time instead.  Each op is scaled by the kernel runs made while it ran, or by
# the CAL_WINDOW runs nearest to it when there are fewer.
CAL_REF_S = 2.5e-3
CAL_PERIOD_S = 0.05
CAL_SHARE = CAL_REF_S / CAL_PERIOD_S
CAL_WINDOW = 16
DEFAULT_SEED = 1211
# percentiles tried for op_ms_tail, highest first
TAIL_LADDER = (99.99, 99.9, 99.5, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


_CAL_MATRIX = np.random.default_rng(0).standard_normal((16, 16))
_CAL_MATRIX = _CAL_MATRIX + _CAL_MATRIX.T


def calibration_kernel() -> float:
    """Fixed mix of small LAPACK calls and Python arithmetic; returns its wall time."""
    t0 = time.perf_counter()
    for i in range(100):
        np.linalg.eigvalsh(_CAL_MATRIX + i)
        sum(j * j for j in range(40))
    return time.perf_counter() - t0


def slowdown(kernel_times: list[float]) -> float:
    """How much slower than the reference speed this stretch of the run was."""
    return statistics.median(kernel_times) / CAL_REF_S


class SpeedProbe:
    """Samples `calibration_kernel`, from a SIGALRM timer (`timer=True`) or in
    explicit bursts.

    The timer's handler runs between bytecodes of whatever the main thread is
    doing, so its samples fall inside ops.  `clock` is wall time minus the
    probe's own time.
    """

    def __init__(self, timer: bool):
        self.timer = timer
        self.samples: list[tuple[float, float]] = []     # (start, kernel seconds)
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, calibration_kernel()))
        self.spent += time.perf_counter() - t0

    def burst(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        self.sample()
        while time.perf_counter() < end:
            self.sample()

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self) -> "SpeedProbe":
        if self.timer:
            self._handler = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._handler)
        if not self.samples:                 # shorter than one period
            self.sample()

    def kernel_times(self) -> list[float]:
        return [d for _, d in self.samples]

    def slowdowns(self, spans: list[tuple[float, float]]) -> list[float]:
        """Slowdown during each (start, end) perf_counter span."""
        starts = [t for t, _ in self.samples]
        kernel = self.kernel_times()
        out = []
        for start, end in spans:
            lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
            if hi - lo < CAL_WINDOW:
                lo = max(0, min((lo + hi - CAL_WINDOW) // 2, len(kernel) - CAL_WINDOW))
                hi = lo + CAL_WINDOW
            out.append(slowdown(kernel[lo:hi]))
        return out


class RunResult:
    """Latencies, misses and failures of one timed loop over a plan's cycle."""

    def __init__(self, cycle_len: int, tag: str, probe: SpeedProbe):
        self.cycle_len = cycle_len
        self.tag = tag
        self.probe = probe
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []       # perf_counter start, end
        self.positions: list[int] = []
        self.misses: list[str] = []
        self.outcomes: list[tuple[str, bool]] = []       # (op group, missed)
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def slowdown(self) -> float:
        """The whole loop's slowdown, for figures that are not per op."""
        return slowdown(self.probe.kernel_times())

    def scaled(self, raw: bool = False) -> list[float]:
        """Op latencies at the reference speed, each by its own stretch of the run."""
        if raw:
            return self.latencies
        return [t / k for t, k in zip(self.latencies, self.probe.slowdowns(self.spans))]

    def ops_per_s(self, raw: bool = False) -> float:
        return self.attempted / sum(self.scaled(raw))

    def by_position(self, raw: bool = False) -> list[float]:
        """Median latency of each op of the cycle."""
        latencies = self.scaled(raw)
        return [statistics.median(t for t, p in zip(latencies, self.positions) if p == j)
                for j in range(self.cycle_len)]

    def p50_ms(self, raw: bool = False) -> float:
        """Median op latency at the fixed mix: every op of the cycle weighs the
        same, however many passes the run completed."""
        return 1e3 * statistics.median(self.by_position(raw))


def run_loop(workload: str, seed: int, cycle, seconds: float, tracer=None,
             tag: str = "", min_passes: int = 1, first_pass: int = 0,
             in_process: bool = True) -> RunResult:
    """Closed loop, one client: whole passes over the cycle until time is up.
    Op latencies leave out the speed probe's own time."""
    result = None
    start = time.perf_counter()
    pass_no = first_pass
    with SpeedProbe(timer=in_process) as probe:
        clock = probe.clock
        if tracer is not None:
            tracer.clock = probe.clock
        while pass_no < first_pass + min_passes or time.perf_counter() - start < seconds:
            ops = cycle(pass_no)
            result = result or RunResult(len(ops), tag, probe)
            for position, op in enumerate(ops):
                index = result.attempted
                if tracer is not None:
                    tracer.active = True
                t0, c0 = time.perf_counter(), clock()
                try:
                    out = op.run()
                except Exception as exc:         # an op that raises is counted, not fatal
                    out = exc
                elapsed = clock() - c0
                if tracer is not None:
                    tracer.active = False
                result.latencies.append(elapsed)
                result.spans.append((t0, time.perf_counter()))
                result.positions.append(position)
                if not in_process:
                    probe.burst(CAL_SHARE * elapsed)
                where = f"{workload} op {index} seed {seed} ({op.label})"
                if isinstance(out, Exception):
                    result.failures.append(f"{where}: {type(out).__name__}: {out}")
                    continue
                try:
                    message = op.check(out)
                except Exception as exc:         # unreadable output is a miss
                    message = f"oracle could not read the output: {exc!r}"
                if message is not None:
                    result.misses.append(f"{where}: {message}")
                result.outcomes.append((op.group, message is not None))
            pass_no += 1
    return result


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter running `import negfonts`:
    (at the reference speed, as measured).  Each interpreter is scaled by the
    kernel runs just before and after it."""
    times, spans = [], []
    with SpeedProbe(timer=False) as probe:
        for _ in range(SETUP_REPEATS):
            probe.burst(CAL_WINDOW * CAL_REF_S)
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import negfonts"], check=True,
                           capture_output=True, timeout=120)
            spans.append((t0, time.perf_counter()))
            times.append(spans[-1][1] - t0)
        probe.burst(CAL_WINDOW * CAL_REF_S)
    scaled = [t / k for t, k in zip(times, probe.slowdowns(spans))]
    return statistics.median(scaled), statistics.median(times)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0          # Linux reports KiB


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """(percentile, ms, samples beyond) for the highest percentile with >= 10 beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = int(pct / 100.0 * n)                  # samples at or below
        if n - rank >= TAIL_MIN_BEYOND and rank >= 1:
            return pct, 1e3 * ordered[rank - 1], n - rank
    return None


def git_sha() -> str:
    """HEAD of the checkout; git does not search above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(), "seed": seed,
    }


def report(prefix: str, metrics: dict | None, name: str, value: float, unit: str,
           note: str = ""):
    """Print a metric; also put it in the JSON result unless `metrics` is None."""
    if metrics is not None:
        metrics[name] = {"value": value, "unit": unit}
    print(f"[{prefix}] {name} = {value:.6g} {unit}{'  ' + note if note else ''}")


def summary_lines(prefix: str, res: RunResult) -> None:
    """Print tail, miss and failure figures of one timed loop."""
    n = res.attempted
    prefix = f"{prefix}{' ' + res.tag if res.tag else ''}"
    t = tail(res.scaled())
    if t is None:
        print(f"[{prefix}] op_ms_tail = n/a  ({n} ops: no percentile has "
              f"{TAIL_MIN_BEYOND} samples beyond it)")
    else:
        print(f"[{prefix}] op_ms_tail = {t[1]:.6g} ms  (p{t[0]:g}, {t[2]} of {n} "
              f"samples beyond)")
    print(f"[{prefix}] miss_frac = {len(res.misses) / n:.6g} ratio  "
          f"({len(res.misses)} of {n})")
    print(f"[{prefix}] failed_frac = {len(res.failures) / n:.6g} ratio  "
          f"({len(res.failures)} of {n})")
    for line in res.misses:
        print(f"[{prefix}] MISS {line}")
    for line in res.failures:
        print(f"[{prefix}] FAILED {line}")


def verdict(prefix: str, runs: list[RunResult], plan) -> bool:
    """Judge the oracle outcomes of all of a workload's loops together."""
    outcomes = [o for r in runs for o in r.outcomes]
    groups = dict.fromkeys(g for g, _ in outcomes if g)
    if groups:
        tally = ", ".join(f"{g} {sum(not m for h, m in outcomes if h == g)} of "
                          f"{sum(h == g for h, _ in outcomes)}" for g in groups)
        print(f"[{prefix}] recovered {tally}")
    problems = plan.verdict(outcomes)
    for problem in problems:
        print(f"[{prefix}] INCORRECT {problem}")
    return not problems


def build_plan(workloads, name: str, seed: int):
    if name == "cli":
        return workloads.cli(seed, str(ROOT / ".bench_tmp" / f"cli-{os.getpid()}"))
    return getattr(workloads, name)(seed)


def run_workload(workloads, name: str, seed: int, seconds: float,
                 trace: bool) -> tuple[bool, int, int, dict]:
    from tracer import Tracer

    plan = build_plan(workloads, name, seed)
    metrics: dict = {}
    try:
        for op in plan.warmup:
            op.run()
        if not trace:
            res = run_loop(name, seed, plan.cycle, seconds, min_passes=plan.min_passes,
                           in_process=plan.in_process)
            # read before measure_setup, whose interpreters are children too
            rss = peak_rss_mb(children=not plan.in_process)
            setup = measure_setup()
            report(name, metrics, "setup_s", setup[0], "s",
                   f"(median of {SETUP_REPEATS} fresh interpreters; {setup[1]:.6g} s "
                   "as measured)")
            report(name, metrics, "ops_per_s", res.ops_per_s(), "op/s",
                   f"({res.ops_per_s(raw=True):.6g} op/s as measured, machine "
                   f"{res.slowdown():.4f}x the reference time)")
            report(name, metrics, "op_ms_p50", res.p50_ms(), "ms",
                   f"({res.p50_ms(raw=True):.6g} ms as measured)")
            report(name, metrics, "peak_rss_mb", rss, "MB",
                   "(this process)" if plan.in_process else "(children)")
            runs = [res]
        else:
            runs = []
            # the untraced and the traced loop share the minimum passes
            min_passes = -(-plan.min_passes // 2)
            if plan.inproc_cycle is not None:
                # cli: child processes, then the same commands through main()
                share = seconds / 3
                children = run_loop(name, seed, plan.cycle, share, tag="children",
                                    in_process=False)
                base = run_loop(name, seed, plan.inproc_cycle, share, tag="in-process")
                cycle = plan.inproc_cycle
                runs += [children, base]
            else:
                share = seconds / 2
                base = run_loop(name, seed, plan.cycle, share, tag="untraced",
                                min_passes=min_passes)
                cycle = plan.cycle
                runs.append(base)
            tracer = Tracer()
            tracer.install()
            try:
                # fresh inputs: the passes after the untraced loop's
                traced = run_loop(name, seed, cycle, share, tracer, tag="traced",
                                  min_passes=min_passes,
                                  first_pass=base.attempted // base.cycle_len)
            finally:
                tracer.uninstall()
            runs.append(traced)
            for key, (value, unit) in tracer.per_op(traced.attempted,
                                                    traced.slowdown()).items():
                report(name, metrics, key, value, unit)
            # printed only, and only where defined (see bench/README.md)
            for key, (value, unit) in tracer.ratios(traced.slowdown()).items():
                report(name, None, key, value, unit)
            if plan.inproc_cycle is not None:
                overhead = statistics.mean(
                    c - b for c, b in zip(children.by_position(), base.by_position()))
                report(name, None, "cli.process_overhead_ms_per_op", 1e3 * overhead, "ms")
            report(name, metrics, "trace.overhead_frac",
                   traced.ops_per_s() / base.ops_per_s() - 1.0, "ratio",
                   f"(traced {traced.ops_per_s():.6g} / untraced {base.ops_per_s():.6g} op/s)")
        for res in runs:
            summary_lines(name, res)
        correct = verdict(name, runs, plan)
        if trace:
            # tracer self-check: every listed function exists, expected spans fired
            for span in tracer.missing:
                print(f"[{name}] TRACE MISSING {span}: no such function in negfonts")
            silent = [s for s in plan.expected_spans
                      if s not in tracer.missing and not tracer.fired(s)]
            for span in silent:
                print(f"[{name}] TRACE SILENT {span}: expected span never fired")
            ok = not tracer.missing and not silent
            print(f"[{name}] tracer self-check {'passed' if ok else 'FAILED'}: "
                  f"{len(plan.expected_spans)} expected spans")
            correct = correct and ok
    finally:
        plan.close()
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failures) for r in runs)
    env = environment(seed)
    env.update(workload=name, ops=attempted, run_seconds=seconds, trace=int(trace),
               calibration_ref_ms=1e3 * CAL_REF_S,
               calibration_median_ms=[round(1e3 * r.slowdown() * CAL_REF_S, 4)
                                      for r in runs])
    print(f"[{name}] env {json.dumps(env, sort_keys=True)}")
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("fontmin", "invariants", "wide", "cli", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "negfonts" / "__init__.py").is_file():
        print(f"error: no negfonts package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    import negfonts

    if Path(negfonts.__file__).resolve().parent != SRC / "negfonts":
        print(f"error: imported negfonts from {negfonts.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    correct, attempted, failed, metrics = run_workload(
        workloads, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(names, args) -> int:
    """Each workload in a child process; one merged result, metric names prefixed."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
