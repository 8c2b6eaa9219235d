"""The verdicts of `tests/bench_pairs.py`, on synthetic runs."""

import itertools
from pathlib import Path

import bench_pairs
from bench_pairs import end_to_end, verdict

ROOT = Path(__file__).resolve().parent.parent
BENCH = {"end_to_end": [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]}


def test_a_steady_gain_is_a_gain():
    parent = [22.0, 22.3, 21.9, 22.6, 22.1, 22.4, 22.2, 21.8, 22.5, 22.0]
    change = [p * 1.046 for p in parent]
    assert verdict(parent, change, "higher", 0.25) == "GAIN"
    # one pair in ten may go the other way, two may not
    assert verdict(parent, change[:9] + [21.0], "higher", 0.25) == "GAIN"
    assert verdict(parent, change[:8] + [21.0, 21.0], "higher", 0.25) == ""
    # a gap inside the parent's quartiles is no gain
    assert verdict(parent, [p + 0.01 for p in parent], "higher", 0.25) == ""


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    parent = [43.0, 43.1, 42.9, 43.05, 43.0, 43.02, 42.98, 43.1, 43.0, 42.95]
    assert verdict(parent, [p * 1.06 for p in parent], "lower", 0.05) == "REGRESSION"
    assert verdict(parent, [p * 1.04 for p in parent], "lower", 0.05) == ""
    assert verdict(parent, [p * 0.7 for p in parent], "higher", 0.25) == "REGRESSION"
    assert verdict(parent, [p * 0.8 for p in parent], "higher", 0.25) == ""


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # the setup_s spread of one commit: 0.128-0.243 s, quartiles ~0.151 and ~0.197
    parent = [0.128, 0.140, 0.148, 0.160, 0.171, 0.171, 0.190, 0.200, 0.210, 0.243]
    change = [0.160, 0.141, 0.201, 0.170, 0.150, 0.182, 0.175, 0.166, 0.230, 0.158]
    assert verdict(parent, change, "lower", 0.25) == "UNRESOLVED"
    # unless every change run beats every parent run
    assert verdict(parent, [0.127] * 9 + [0.125], "lower", 0.25) == ""
    assert verdict(parent, [0.120] * 10, "lower", 0.25) == "GAIN"
    # a median worse by more than the bound is a regression all the same
    assert verdict(parent, [0.3] * 10, "lower", 0.25) == "REGRESSION"


def test_end_to_end_names_carry_their_base_metric():
    bare = {"setup_s": 0.2, "ops_per_s": 22.0, "peak_rss_mb": 43.0, "attempted": 440}
    assert list(end_to_end(bare, BENCH)) == ["setup_s", "ops_per_s", "peak_rss_mb"]
    prefixed = {"fontmin.ops_per_s": 22.0, "wide.peak_rss_mb": 44.0, "attempted": 9}
    metrics = end_to_end(prefixed, BENCH)
    assert list(metrics) == ["fontmin.ops_per_s", "wide.peak_rss_mb"]
    assert metrics["wide.peak_rss_mb"] == BENCH["end_to_end"][2]


def _pairs(monkeypatch, capsys, workload, runs):
    """`main` on ten pairs of synthetic runs; its summary lines."""
    monkeypatch.setattr(bench_pairs, "purge_bytecode", lambda root: None)
    calls = itertools.count()
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda root, *args: runs(next(calls)))
    assert bench_pairs.main([str(ROOT), str(ROOT), "--workload", workload]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[lines.index("") + 2:]


def test_one_workload_prints_one_line_per_metric(monkeypatch, capsys):
    def runs(k):
        side = k % 2 if (k // 2) % 2 == 0 else 1 - k % 2      # parent first in even pairs
        return {"setup_s": 0.17, "ops_per_s": 22.0 + side + 0.01 * k, "op_ms_p50": 34.0,
                "peak_rss_mb": 43.0, "attempted": 440}

    lines = _pairs(monkeypatch, capsys, "fontmin", runs)
    assert [line.split(":")[0] for line in lines[:4]] == [
        "setup_s", "ops_per_s", "op_ms_p50", "peak_rss_mb"]
    assert lines[1].endswith("won 10 of 10  GAIN")
    assert all(line.endswith("won 0 of 10") for line in lines[2:4])
    assert lines[4].startswith("attempted ops")


def test_all_workloads_judge_each_prefixed_metric(monkeypatch, capsys):
    def runs(k):
        side = k % 2 if (k // 2) % 2 == 0 else 1 - k % 2
        return {"fontmin.ops_per_s": 22.0 * (1 + 0.05 * side) + 0.01 * k,
                "cli.setup_s": [0.128, 0.243, 0.151, 0.197][k % 4],
                "cli.peak_rss_mb": 42.0 * (1 + 0.06 * side), "attempted": 9}

    lines = _pairs(monkeypatch, capsys, "all", runs)
    tags = {line.split(":")[0]: line.rsplit("  ", 1)[-1] for line in lines[:3]}
    assert tags == {"fontmin.ops_per_s": "GAIN", "cli.setup_s": "UNRESOLVED",
                    "cli.peak_rss_mb": "REGRESSION"}
