"""Compare a change with its parent from clean checkouts: pairs and bits.

    python3 tools/compare.py pairs --parent HEAD --change worktree \
        --workload fine_pieces --seeds 11-20 --seconds 25 --out BENCH_n.json
    python3 tools/compare.py bits --parent HEAD --change worktree

Both commands run each side from a clean ``git archive`` copy of its
revision in one temporary directory, removed at the end; the revision
``worktree`` is the tracked files as they stand, staged or not (``git
stash create``; files git does not track are left out, so stage new ones
first).  Every child process runs with BLAS and OpenMP pools pinned to
one thread (``probe.PINNED``), on the host's default CPU kernels unless a
``KERNELS`` setting says otherwise.

``pairs``: pair k runs ``perfbench/run.py --trace 0`` at the k-th seed on
both sides, one run after the other: the parent first in even pairs, the
change first in odd ones.  Runs set PYTHONDONTWRITEBYTECODE=1, so each
one's ``setup_s`` compiles the package rather than reading an earlier
run's ``__pycache__``.  ``--seeds`` takes ranges ('11-14,41'); an empty
or descending range is refused before anything runs.  The ``--out`` file
holds, per workload and end-to-end metric (and for ``wall_pass_s``, the
unadjusted wall time of a pass that ``run.py`` prints, which is no
metric), each side's runs, median and quartiles, the pairs the change won
and whether its median gain exceeds the parent's IQR, and two verdicts,
which the command also prints: ``gain_claimed`` (the change won at least
9 of 10 pairs, ties counting for neither, and its median gain exceeds the
parent's IQR) and ``worse_beyond_bound`` (the change's median is worse
than the parent's by more than the metric's ``bound`` in BENCHMARK.json,
a relative change).

``bits``: on each side it runs ``ergolab verify --suite all`` at seed 1234
and at the scenario seeds, and ``tools/probe.py summaries`` for every
benchmark workload at seeds 1 to 3.  Every run is made three times, under
each of the ``KERNELS`` settings: the host's default kernels, NumPy with
its AVX2 and AVX-512 loops disabled and OpenBLAS on its Nehalem kernels.
A reroute that swaps ``matmul`` for ``einsum``, or reorders a product,
can keep its bits on one set of kernels and move them on another.  The
settings go into the children's environment only.  It then compares the
two sides under each setting: every artifact file byte for byte, and
every job summary.  It prints each difference and exits 1 if there is
any, 0 if there is none.
"""

import argparse
import contextlib
import filecmp
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
sys.path.insert(0, TOOLS)
import probe  # noqa: E402

VERIFY_RUNS = {"seed1234": ["--seed", "1234"], "scenario_seeds": []}
SEEDS = (1, 2, 3)
# the CPU kernels each run of bits is repeated under, as child environment
# settings; "default" clears both variables
KERNELS = {
    "default": {},
    "numpy_baseline": {"NPY_DISABLE_CPU_FEATURES":
                       "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    "openblas_nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
}


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout


def _commit(rev):
    if rev == "worktree":
        return _git("stash", "create").decode().strip() or _commit("HEAD")
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def _checkout(commit, where):
    os.makedirs(where)
    subprocess.run(["tar", "-x", "-C", where], input=_git("archive", commit),
                   check=True)
    return where


@contextlib.contextmanager
def checkouts(parent, change):
    """The commits of the parent and change revisions and a clean tree of
    each, by side, in a temporary directory removed on exit."""
    commits = {"parent": _commit(parent), "change": _commit(change)}
    with tempfile.TemporaryDirectory(prefix="compare-",
                                     ignore_cleanup_errors=True) as work:
        yield commits, {side: _checkout(c, os.path.join(work, side))
                        for side, c in commits.items()}


def _env(**extra):
    """A child's environment: this one on the default kernels, with the
    thread pins, ``src`` on the path and the extra variables."""
    keep = {k: v for k, v in os.environ.items()
            if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    return {**keep, **probe.PINNED, "PYTHONPATH": "src", **extra}


def _child(tree, *argv, check=True, **extra):
    """Python with argv, run in a tree under _env(**extra)."""
    return subprocess.run([sys.executable, *argv], cwd=tree,
                          env=_env(**extra), capture_output=True, text=True,
                          check=check)


def _last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- pairs ---------------------------------------------------------------------


def quartiles(runs):
    """(q1, median, q3) by linear interpolation between order statistics
    (numpy's default percentile rule); one run is all three."""
    if len(runs) == 1:
        return runs[0], runs[0], runs[0]
    return tuple(statistics.quantiles(runs, n=4, method="inclusive"))


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
    """'11-14,41' -> [11, 12, 13, 14, 41]; an empty or descending range is
    an error that names it."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        run = range(int(lo), int(hi or lo) + 1)
        if not run:
            raise argparse.ArgumentTypeError(
                f"empty or descending seed range {part.strip()!r}")
        seeds += run
    return seeds


def wall_pass_s(stdout):
    """The median unadjusted wall time of a pass that ``perfbench/run.py``
    prints beside ``pass_s`` ("(wall 0.1234 s; ..."), or None."""
    match = re.search(r"\(wall ([0-9.]+) s;", stdout)
    return float(match.group(1)) if match else None


def _run(tree, workload, seed, seconds):
    # no run writes __pycache__, so every run's setup_s compiles the package
    proc = _child(tree, "perfbench/run.py", "--workload", workload,
                  "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", "0", PYTHONDONTWRITEBYTECODE="1")
    result = _last_json(proc)
    result["wall_pass_s"] = wall_pass_s(proc.stdout)
    return result


def _directions():
    """Each end-to-end metric's better direction and bound, from
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["better"], m["bound"])
                for m in json.load(fh)["end_to_end"]}


def pairs(args, commits, trees):
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
        done = report["workloads"][workload]
        # wall_pass_s has no bound: its worse_beyond_bound prints None
        for name, s in [*done["summary"].items(),
                        ("wall_pass_s", done["wall_pass_s"])]:
            print(f"{workload} {name}: gain_claimed {s['gain_claimed']}, "
                  f"worse_beyond_bound {s['worse_beyond_bound']} (median "
                  f"{s['parent']['median']:.6g} -> "
                  f"{s['change']['median']:.6g}, won "
                  f"{s['change_better_pairs']}/{s['pairs']})")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


# -- bits ----------------------------------------------------------------------


def diff_trees(a, b):
    """Relative paths of the files that differ between two directory
    trees, or that only one of them holds, sorted."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names}

    fa, fb = files(a), files(b)
    return sorted(fa ^ fb | {rel for rel in fa & fb if not filecmp.cmp(
        os.path.join(a, rel), os.path.join(b, rel), shallow=False)})


def diff_summaries(parent, change):
    """Keys of the job summaries that differ between two sides, or that
    only one side has, sorted."""
    return sorted(k for k in parent.keys() | change.keys()
                  if parent.get(k) != change.get(k))


def _verify(tree, out, args, kernels=None):
    proc = _child(tree, "-m", "ergolab", "verify", "--suite", "all",
                  "--out", out, *args, check=False, **(kernels or {}))
    # exit 1 is a check that failed, which both sides must then share
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"verify in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return proc.returncode


def _summaries(tree, kernels=None):
    """Every job summary of every workload at every seed of SEEDS in a
    tree, keyed 'workload seed S job', each from a summaries probe."""
    out = {}
    for workload in probe.WORKLOADS:
        for seed in SEEDS:
            jobs = _last_json(_child(
                tree, os.path.join(TOOLS, "probe.py"), "summaries",
                "--workload", workload, "--seed", str(seed), "--root", tree,
                **(kernels or {})))
            out.update({f"{workload} seed {seed} {name}": text
                        for name, text in jobs.items()})
    return out


def _compare(trees, kernels, name):
    """The differences between the two sides' verify artifacts and job
    summaries under one kernel setting."""
    problems = []
    for run, extra in VERIFY_RUNS.items():
        outs = {side: os.path.join(tree, "verify-out", name, run)
                for side, tree in trees.items()}
        codes = {side: _verify(tree, outs[side], extra, kernels)
                 for side, tree in trees.items()}
        if codes["parent"] != codes["change"]:
            problems.append(f"{name}: verify {run}: exit {codes['parent']} "
                            f"-> {codes['change']}")
        problems += [f"{name}: verify {run}: {rel} differs"
                     for rel in diff_trees(outs["parent"], outs["change"])]
    sums = {side: _summaries(tree, kernels) for side, tree in trees.items()}
    return problems + [f"{name}: job summary differs: {key}" for key in
                       diff_summaries(sums["parent"], sums["change"])]


def bits(args, commits, trees):
    problems = [line for name, kernels in KERNELS.items()
                for line in _compare(trees, kernels, name)]
    print(f"parent {args.parent} ({commits['parent']}), change "
          f"{args.change} ({commits['change']}): {len(VERIFY_RUNS)} "
          f"verify runs and the job summaries under {len(KERNELS)} "
          f"kernel settings compared", *problems,
          f"{len(problems)} differences" if problems else "identical",
          sep="\n")
    return 1 if problems else 0


COMMANDS = {"pairs": pairs, "bits": bits}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sides = argparse.ArgumentParser(add_help=False)
    sides.add_argument("--parent", default="HEAD")
    sides.add_argument("--change", default="worktree")
    commands = parser.add_subparsers(dest="command", required=True)
    paired = commands.add_parser("pairs", parents=[sides])
    paired.add_argument("--workload", action="append", required=True,
                        choices=probe.WORKLOADS)
    paired.add_argument("--seeds", required=True, type=parse_seeds)
    paired.add_argument("--seconds", type=float, default=25.0)
    paired.add_argument("--out", required=True)
    commands.add_parser("bits", parents=[sides])
    args = parser.parse_args(argv)
    with checkouts(args.parent, args.change) as (commits, trees):
        return COMMANDS[args.command](args, commits, trees)


if __name__ == "__main__":
    sys.exit(main())
