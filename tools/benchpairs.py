"""Alternating parent/change benchmark pairs, written to one BENCH file.

    python3 tools/benchpairs.py --parent HEAD --change worktree \
        --workload fine_pieces --seeds 11-20 --seconds 25 --out BENCH_28.json

Each side runs from a clean ``git archive`` copy of its revision; the
revision ``worktree`` is the tracked files as they stand, staged or not
(``git stash create``; files git does not track are left out, so stage new
ones first).  Pair k runs ``perfbench/run.py --trace 0`` at the k-th seed
on both sides, one run after the other: the parent first in even pairs,
the change first in odd ones.  Runs set PYTHONDONTWRITEBYTECODE=1, so each
one's ``setup_s`` compiles the package rather than reading an earlier
run's ``__pycache__``.  The file holds, per workload and end-to-end
metric (and for ``wall_pass_s``, the unadjusted wall time of a pass that
``run.py`` prints, which is no metric), each side's runs, median and
quartiles, the pairs the change won and whether its median gain exceeds
the parent's IQR, and two verdicts, which the script also prints: ``gain_claimed`` (the change won
at least 9 of 10 pairs, ties counting for neither, and its median gain
exceeds the parent's IQR) and ``worse_beyond_bound`` (the change's median
is worse than the parent's by more than the metric's ``bound`` in
BENCHMARK.json, a relative change).
"""

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(runs):
    """(q1, median, q3) by linear interpolation between order statistics
    (numpy's default percentile rule); one run is all three."""
    if len(runs) == 1:
        return runs[0], runs[0], runs[0]
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent, change, better="lower", bound=None):
    """One metric's pairs, parent[k] and change[k] from pair k: each side's
    runs, median and quartiles, the pairs the change won (strictly better),
    whether the change's median is better than the parent's by more than
    the parent's IQR, and the verdicts ``gain_claimed`` and, with a
    relative ``bound``, ``worse_beyond_bound``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change run per pair")
    sign = 1.0 if better == "lower" else -1.0
    sides = {}
    for name, runs in (("parent", parent), ("change", change)):
        q1, med, q3 = quartiles(runs)
        sides[name] = {"median": med, "q1": q1, "q3": q3, "n": len(runs),
                       "runs": list(runs)}
    gain = sign * (sides["parent"]["median"] - sides["change"]["median"])
    base = sides["parent"]["median"]
    won = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    beyond_iqr = gain > sides["parent"]["q3"] - sides["parent"]["q1"]
    return {**sides,
            "change_better_pairs": won,
            "pairs": len(parent),
            "median_ratio_change_over_parent":
                sides["change"]["median"] / base if base else None,
            "median_gain_exceeds_parent_iqr": beyond_iqr,
            "gain_claimed": 10 * won >= 9 * len(parent) and beyond_iqr,
            "worse_beyond_bound":
                None if bound is None else -gain > bound * abs(base)}


def parse_seeds(text):
    """'11-14,41' -> [11, 12, 13, 14, 41]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout


def _commit(rev):
    if rev == "worktree":
        return _git("stash", "create").decode().strip() or _commit("HEAD")
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def _checkout(commit, where):
    os.makedirs(where)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(where)
    return where


def wall_pass_s(stdout):
    """The median unadjusted wall time of a pass that ``perfbench/run.py``
    prints beside ``pass_s`` ("(wall 0.1234 s; ..."), or None."""
    match = re.search(r"\(wall ([0-9.]+) s;", stdout)
    return float(match.group(1)) if match else None


def _run(tree, workload, seed, seconds):
    # no run writes __pycache__, so every run's setup_s compiles the package
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_pass_s"] = wall_pass_s(proc.stdout)
    return result


def _directions():
    """Each end-to-end metric's better direction and bound, from
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"])
                for m in json.load(fh)["end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default="worktree")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    commits = {"parent": _commit(args.parent), "change": _commit(args.change)}
    directions = _directions()
    report = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": f"{os.cpu_count()} cores; times are perfbench's host-speed "
                "adjusted seconds",
        "parent": f"{args.parent} ({commits['parent']})",
        "change": f"{args.change} ({commits['change']})",
        "design": "alternating pairs at one seed each; even pairs run the "
                  "parent first, odd ones the change first; each side runs "
                  "from a git archive copy of its revision, with "
                  "PYTHONDONTWRITEBYTECODE=1 so that no run reads bytecode "
                  "an earlier run cached",
        "workloads": {}}
    work = tempfile.mkdtemp(prefix="benchpairs-")
    try:
        trees = {side: _checkout(c, os.path.join(work, side))
                 for side, c in commits.items()}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for k, seed in enumerate(args.seeds):
                for side in (("parent", "change") if k % 2 == 0
                             else ("change", "parent")):
                    runs[side].append(_run(trees[side], workload, seed,
                                           args.seconds))
                    print(f"{workload} pair {k} seed {seed} {side}: "
                          f"pass_s {runs[side][-1]['metrics']['pass_s']['value']:.4f}",
                          file=sys.stderr)
            report["workloads"][workload] = {
                "seconds": args.seconds, "seeds": args.seeds,
                "all_runs_correct_no_failed_jobs": all(
                    r["correct"] and r["failed"] == 0
                    for side in runs.values() for r in side),
                "summary": {name: summarize(
                    *[[r["metrics"][name]["value"] for r in runs[side]]
                      for side in ("parent", "change")], better, bound)
                    for name, (better, bound) in directions.items()},
                "wall_pass_s": summarize(*[[r["wall_pass_s"] for r in runs[side]]
                                           for side in ("parent", "change")])}
            w = report["workloads"][workload]["wall_pass_s"]
            print(f"{workload} wall_pass_s (unadjusted, not a metric): median "
                  f"{w['parent']['median']:.6g} -> {w['change']['median']:.6g}"
                  f", won {w['change_better_pairs']}/{w['pairs']}")
            for name, s in report["workloads"][workload]["summary"].items():
                print(f"{workload} {name}: gain_claimed {s['gain_claimed']}, "
                      f"worse_beyond_bound {s['worse_beyond_bound']} (median "
                      f"{s['parent']['median']:.6g} -> "
                      f"{s['change']['median']:.6g}, won "
                      f"{s['change_better_pairs']}/{s['pairs']})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
