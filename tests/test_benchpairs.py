"""The summary arithmetic and run settings of tools/benchpairs.py; no
benchmark is run."""

import importlib.util
import json
import os
import subprocess

import numpy as np
import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "benchpairs.py")
_spec = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)


def test_quartiles_follow_numpys_percentile_rule():
    rng = np.random.default_rng(3)
    for n in (2, 3, 7, 10, 11):
        runs = list(rng.uniform(0.1, 0.5, n))
        ref = np.percentile(runs, [25, 50, 75])
        assert benchpairs.quartiles(runs) == pytest.approx(ref, rel=1e-14)
    assert benchpairs.quartiles([0.25]) == (0.25, 0.25, 0.25)


def test_summary_counts_pairs_won_and_the_median_gain_against_the_iqr():
    parent = [0.30, 0.31, 0.29, 0.32, 0.30]
    change = [0.20, 0.35, 0.21, 0.22, 0.30]
    s = benchpairs.summarize(parent, change)
    assert s["parent"] == {"median": 0.30, "q1": 0.30, "q3": 0.31, "n": 5,
                           "runs": parent}
    assert s["change"]["median"] == 0.22 and s["change"]["runs"] == change
    # pair 1 lost, pair 4 tied: a tie is no win
    assert s["change_better_pairs"] == 3 and s["pairs"] == 5
    assert s["median_ratio_change_over_parent"] == pytest.approx(0.22 / 0.30)
    # gain 0.08 against a parent IQR of 0.01
    assert s["median_gain_exceeds_parent_iqr"] is True


def test_summary_reads_the_better_direction():
    parent, change = [1.0, 2.0, 3.0], [1.5, 2.5, 3.5]
    lower = benchpairs.summarize(parent, change, "lower")
    higher = benchpairs.summarize(parent, change, "higher")
    assert (lower["change_better_pairs"], higher["change_better_pairs"]) == (0, 3)
    # a gain of 0.5 against a parent IQR of 1.0 is not enough either way
    assert not lower["median_gain_exceeds_parent_iqr"]
    assert not higher["median_gain_exceeds_parent_iqr"]
    assert benchpairs.summarize([1.0, 1.0], [3.0, 3.0], "higher")[
        "median_gain_exceeds_parent_iqr"]


def test_summary_needs_one_run_per_side_per_pair():
    for parent, change in (([], []), ([1.0, 2.0], [1.0])):
        with pytest.raises(ValueError, match="one parent and one change run"):
            benchpairs.summarize(parent, change)


def test_seed_lists_take_ranges():
    assert benchpairs.parse_seeds("11-14,41") == [11, 12, 13, 14, 41]
    assert benchpairs.parse_seeds("7") == [7]


def test_runs_write_no_bytecode(monkeypatch):
    # each run compiles the package, as a fresh checkout does: none reads
    # __pycache__ that an earlier run of the same tree wrote
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append(kwargs)
        out = json.dumps({"correct": True, "failed": 0, "metrics": {}})
        return subprocess.CompletedProcess(cmd, 0, stdout=out + "\n")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    assert benchpairs._run("tree", "corpus", 3, 1.0)["correct"] is True
    (kwargs,) = seen
    assert kwargs["cwd"] == "tree"
    assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert kwargs["env"]["PATH"] == os.environ["PATH"]


def test_gain_is_claimed_on_nine_of_ten_pairs_beyond_the_iqr():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    change = [0.9] * 9 + [1.05]
    s = benchpairs.summarize(parent, change)
    assert (s["change_better_pairs"], s["gain_claimed"]) == (9, True)
    # eight wins and a tie: a tie counts for neither side
    s = benchpairs.summarize(parent, [0.9] * 8 + [1.0, 1.05])
    assert (s["change_better_pairs"], s["gain_claimed"]) == (8, False)
    # every pair won, but the median gain (0.005) is inside the IQR (0.01)
    s = benchpairs.summarize(parent, [p - 0.005 for p in parent])
    assert s["change_better_pairs"] == 10
    assert not s["median_gain_exceeds_parent_iqr"] and not s["gain_claimed"]
    # the higher-is-better direction mirrors it
    s = benchpairs.summarize([1.0] * 10, [1.1] * 9 + [0.9], "higher")
    assert s["gain_claimed"]


def test_worse_beyond_bound_is_a_relative_change_of_the_median():
    parent = [1.0, 1.0, 1.0]
    for change, better, worse in (([1.25] * 3, "lower", True),
                                  ([1.2] * 3, "lower", False),
                                  ([0.7] * 3, "lower", False),
                                  ([0.75] * 3, "higher", True),
                                  ([0.8] * 3, "higher", False),
                                  ([1.5] * 3, "higher", False)):
        s = benchpairs.summarize(parent, change, better, bound=0.24)
        assert s["worse_beyond_bound"] is worse
    assert benchpairs.summarize(parent, [9.0] * 3)["worse_beyond_bound"] is None


def test_directions_read_each_metric_bound_from_the_benchmark_file():
    with open(os.path.join(benchpairs.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    assert benchpairs._directions() == {
        m["name"]: (m["better"], m["bound"]) for m in metrics}


def test_wall_pass_time_is_read_from_the_run_printout():
    printout = ("  pass_s             0.1559 s   median of 150 passes; p90 = 0.17 s\n"
                "                 (wall 0.1632 s; times are host-speed adjusted,"
                " see hostclock.py)\n{\"correct\": true}\n")
    assert benchpairs.wall_pass_s(printout) == 0.1632
    assert benchpairs.wall_pass_s("{\"correct\": true}") is None
