"""Byte-identity check of a change against its parent: artifacts and
benchmark job summaries.

    python3 tools/samebits.py --parent HEAD --change worktree

Each side runs from a clean ``git archive`` copy of its revision, made as
``tools/benchpairs.py`` makes it (``worktree`` is the tracked files as
they stand; stage new files first).  On each side the script runs
``ergolab verify --suite all`` at seed 1234 and at the scenario seeds, and
every benchmark workload of ``perfbench/workloads.py`` (read as it is, never
edited) at seeds 1 to 3, with BLAS and OpenMP pools pinned to one thread.
Every run is made three times, under each of the ``KERNELS`` settings:
the host's default kernels, NumPy with its AVX2 and AVX-512 loops disabled
and OpenBLAS on its Nehalem kernels.  A reroute that swaps ``matmul`` for
``einsum``, or reorders a product, can keep its bits on one set of kernels
and move them on another.  The settings go into the children's
environment only.  The script then compares the two sides under each
setting: every artifact file byte for byte, and every job summary, without
its wall times, as the JSON text of its floats' round-trip reprs.  It
prints each difference and exits 1 if there is any, 0 if there is none.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchpairs  # noqa: E402

VERIFY_RUNS = {"seed1234": ["--seed", "1234"], "scenario_seeds": []}
WORKLOADS = ("corpus", "long_horizon", "fine_pieces")
SEEDS = (1, 2, 3)
# summary keys that hold wall times, which no two runs share
TIMING_KEYS = ("check_s",)
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
# the CPU kernels each run is repeated under, as child environment settings;
# "default" clears both variables
KERNELS = {
    "default": {},
    "numpy_baseline": {"NPY_DISABLE_CPU_FEATURES":
                       "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    "openblas_nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
}

# run in a side's tree: every job summary of every workload and seed, as JSON
_SUMMARIES = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import workloads
names, seeds, timing = json.loads(sys.argv[1])
out = {}
for workload in names:
    for seed in seeds:
        inputs = workloads.setup(workload, seed)
        for name, job in workloads.jobs(inputs):
            summary = job()
            if isinstance(summary, dict):
                summary = {k: v for k, v in summary.items() if k not in timing}
            out[f"{workload} seed {seed} {name}"] = json.dumps(summary)
print(json.dumps(out))
"""


def diff_trees(a, b):
    """Relative paths of the files that differ between two directory
    trees, or that only one of them holds, sorted."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names}

    fa, fb = files(a), files(b)
    out = fa ^ fb
    for rel in fa & fb:
        with open(os.path.join(a, rel), "rb") as ha, \
                open(os.path.join(b, rel), "rb") as hb:
            if ha.read() != hb.read():
                out.add(rel)
    return sorted(out)


def diff_summaries(parent, change):
    """Keys of the job summaries that differ between two sides, or that
    only one side has, sorted."""
    return sorted(k for k in parent.keys() | change.keys()
                  if parent.get(k) != change.get(k))


def _env(kernels=None):
    keep = {k: v for k, v in os.environ.items()
            if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    return {**keep, **PINNED, **(kernels or {}), "PYTHONPATH": "src",
            "PYTHONDONTWRITEBYTECODE": "1"}


def _verify(tree, out, args, kernels=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ergolab", "verify", "--suite", "all",
         "--out", out, *args], cwd=tree, env=_env(kernels),
        capture_output=True, text=True)
    # exit 1 is a check that failed, which both sides must then share
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"verify in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return proc.returncode


def _summaries(tree, kernels=None):
    proc = subprocess.run(
        [sys.executable, "-c", _SUMMARIES,
         json.dumps([WORKLOADS, SEEDS, TIMING_KEYS])],
        cwd=tree, env=_env(kernels), capture_output=True, text=True,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _compare(trees, out, kernels, name):
    """The differences between the two sides' verify artifacts and job
    summaries under one kernel setting."""
    problems = []
    for run, extra in VERIFY_RUNS.items():
        outs = {side: os.path.join(out, side, run) for side in trees}
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default="worktree")
    args = parser.parse_args(argv)
    commits = {"parent": benchpairs._commit(args.parent),
               "change": benchpairs._commit(args.change)}
    problems = []
    work = tempfile.mkdtemp(prefix="samebits-")
    try:
        trees = {side: benchpairs._checkout(c, os.path.join(work, side))
                 for side, c in commits.items()}
        for name, kernels in KERNELS.items():
            problems += _compare(trees, os.path.join(work, "out", name),
                                 kernels, name)
        print(f"parent {args.parent} ({commits['parent']}), change "
              f"{args.change} ({commits['change']}): {len(VERIFY_RUNS)} "
              f"verify runs and the job summaries under {len(KERNELS)} "
              f"kernel settings compared")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(line)
    print("identical" if not problems else f"{len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
