"""Per-job resident peak, traced peak, page faults and time of one
benchmark workload, all in one process.

    python3 tools/jobpeaks.py --workload fine_pieces --seed 1 --passes 3

Runs ``--passes`` passes over the jobs of ``perfbench/workloads.py``
(read as it is, never edited) in order, as ``perfbench/run.py`` does,
with BLAS and OpenMP pools pinned to one thread, then one more pass under
``tracemalloc``.  Per job it prints the process's ``ru_maxrss`` after
the job in the first pass (where the resident peak grows), the traced
peak above the job's start (the largest transient the job's allocations
reach), the median count of minor page faults (``ru_minflt``) during the
job and its minimum time over the untraced passes; then the minor faults
of each untraced pass.
``--root`` runs another checkout's sources (its ``src/`` and
``perfbench/``), so two trees can be compared with one copy of this
script.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MB = 1024.0 * 1024.0


def _usage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_maxrss / 1024.0, r.ru_minflt


def run_pass(jobs, traced=False):
    """Run (name, job) pairs in order: per job a dict of its name, wall
    seconds, ``ru_maxrss`` after it (MB), minor page faults during it and,
    if ``traced`` (tracemalloc must be on), its traced peak above its
    start (MB)."""
    out = []
    for name, job in jobs:
        if traced:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        faults = _usage()[1]
        start = time.perf_counter()
        job()
        seconds = time.perf_counter() - start
        rss, after = _usage()
        row = {"name": name, "seconds": seconds, "maxrss_mb": rss,
               "minflt": after - faults}
        if traced:
            row["traced_peak_mb"] = (tracemalloc.get_traced_memory()[1]
                                     - base) / MB
        out.append(row)
    return out


def combine(passes, traced):
    """One row per job from untraced passes and a traced one: ``ru_maxrss``
    after the job in the first pass, the traced peak, the median minor
    faults and the minimum time."""
    return [{"name": rows[0]["name"],
             "maxrss_mb": rows[0]["maxrss_mb"],
             "traced_peak_mb": peak["traced_peak_mb"],
             "minflt": statistics.median(r["minflt"] for r in rows),
             "min_s": min(r["seconds"] for r in rows)}
            for *rows, peak in zip(*passes, traced)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "long_horizon", "fine_pieces"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--root", default=ROOT)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    inputs = workloads.setup(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="jobpeaks-") as out_dir:
        passes = [run_pass(workloads.jobs(inputs,
                                          os.path.join(out_dir, str(k))))
                  for k in range(args.passes)]
        tracemalloc.start()
        traced = run_pass(workloads.jobs(inputs, os.path.join(out_dir, "t")),
                          traced=True)
        tracemalloc.stop()
    rows = combine(passes, traced)
    print(f"{args.workload} seed {args.seed}, {args.passes} passes, {root}")
    print(f"  {'job':28s} {'maxrss MB':>10s} {'traced MB':>10s} "
          f"{'minflt':>8s} {'min s':>9s}")
    for r in rows:
        print(f"  {r['name']:28s} {r['maxrss_mb']:10.1f} "
              f"{r['traced_peak_mb']:10.1f} {r['minflt']:8.0f} "
              f"{r['min_s']:9.4f}")
    per_pass = [sum(r["minflt"] for r in p) for p in passes]
    print("  minor faults per pass: " + ", ".join(map(str, per_pass)))
    print(json.dumps({"jobs": rows, "minflt_per_pass": per_pass}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
