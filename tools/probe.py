"""Probes of one benchmark workload in one process: calls, peaks, summaries.

    python3 tools/probe.py calls --workload corpus --seed 1
    python3 tools/probe.py peaks --workload fine_pieces --seed 1 --passes 3
    python3 tools/probe.py summaries --workload long_horizon --seed 2

Every probe pins BLAS and OpenMP pools to one thread (``PINNED``, set by
``main`` before NumPy is imported; importing this module changes no
environment variable), sets up ``--workload`` at ``--seed`` from
``perfbench/workloads.py`` (read as it is, never edited) and runs its jobs
in order, as ``perfbench/run.py`` does, one pass after another, each pass
writing into a temporary directory of its own.  ``--root`` runs another
checkout's sources (its ``src/`` and ``perfbench/``), so one copy of this
script compares two trees.  The last line of standard output is one JSON
object.

``calls`` runs one unmeasured pass, then ``--passes`` passes under
``sys.setprofile``.  A call counts where its code object's file lies in
NumPy's package (``numpy``) or in ergolab's (``ergolab``); calls of C
functions (``np.concatenate``, ndarray methods) run no Python frame and
count in neither.  A NumPy call whose caller is not NumPy code is an entry
point; every NumPy call is charged to the entry point it runs under and to
that entry's caller.  Per pass it prints the NumPy calls, the entry points
among them and the ergolab calls, then the ``--top`` (caller, entry point)
pairs by the NumPy calls they make.

``peaks`` runs ``--passes`` passes, then one more under ``tracemalloc``.
Per job it prints the process's ``ru_maxrss`` after the job in the first
pass (where the resident peak grows), the traced peak above the job's
start (the largest transient the job's allocations reach), the median
count of minor page faults (``ru_minflt``) during the job and its minimum
time over the untraced passes; then the minor faults of each untraced
pass.

``summaries`` runs one pass and gives each job's summary, without its wall
times (``TIMING_KEYS``), as the JSON text of its floats' round-trip reprs:
what ``tools/compare.py bits`` compares between two trees.
"""

import argparse
import collections
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MB = 1024.0 * 1024.0
WORKLOADS = ("corpus", "long_horizon", "fine_pieces")
# BLAS and OpenMP pools at one thread: in this process from main on, and in
# every child process of tools/compare.py
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
# summary keys that hold wall times, which no two runs share
TIMING_KEYS = ("check_s",)


def _name(code, prefix):
    """module.function of a code object in the package under prefix."""
    rel = os.path.splitext(os.path.relpath(code.co_filename, prefix))[0]
    return rel.replace(os.sep, ".") + "." + code.co_qualname


class Counter:
    """A profile hook counting NumPy calls by (caller, entry point) and
    ergolab calls; ``numpy_dir`` and ``ergolab_dir`` are package
    directories (each a file-path prefix)."""

    def __init__(self, numpy_dir, ergolab_dir):
        self.numpy_dir = os.path.join(os.path.abspath(numpy_dir), "")
        self.ergolab_dir = os.path.join(os.path.abspath(ergolab_dir), "")
        self.pairs = collections.Counter()
        self.entries = 0
        self.ergolab = 0

    def __call__(self, frame, event, arg):
        if event != "call":
            return
        path = frame.f_code.co_filename
        if path.startswith(self.ergolab_dir):
            self.ergolab += 1
            return
        if not path.startswith(self.numpy_dir):
            return
        entry, caller = frame, frame.f_back
        while caller is not None and caller.f_code.co_filename.startswith(
                self.numpy_dir):
            entry, caller = caller, caller.f_back
        self.entries += entry is frame
        self.pairs[self._outside(caller), _name(entry.f_code,
                                                self.numpy_dir)] += 1

    def _outside(self, frame):
        if frame is None:
            return "<none>"
        if frame.f_code.co_filename.startswith(self.ergolab_dir):
            return "ergolab." + _name(frame.f_code, self.ergolab_dir)
        return frame.f_code.co_qualname

    def run(self, jobs):
        """Run (name, job) pairs in order under this hook."""
        sys.setprofile(self)
        try:
            run_jobs(jobs)
        finally:
            sys.setprofile(None)

    def report(self, passes, top):
        """Per-pass counts and the top (caller, entry point) pairs."""
        return {"numpy_calls": sum(self.pairs.values()) / passes,
                "numpy_entries": self.entries / passes,
                "ergolab_calls": self.ergolab / passes,
                "top": [{"caller": c, "entry": e, "numpy_calls": n / passes}
                        for (c, e), n in self.pairs.most_common(top)]}


def run_jobs(jobs):
    """Run (name, job) pairs in order, unmeasured."""
    for _, job in jobs:
        job()


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
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        job()
        seconds = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        row = {"name": name, "seconds": seconds,
               "maxrss_mb": usage.ru_maxrss / 1024.0,
               "minflt": usage.ru_minflt - faults}
        if traced:
            row["traced_peak_mb"] = (tracemalloc.get_traced_memory()[1]
                                     - base) / MB
        out.append(row)
    return out


def _traced_pass(jobs):
    tracemalloc.start()
    try:
        return run_pass(jobs, traced=True)
    finally:
        tracemalloc.stop()


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


def summarize_jobs(jobs):
    """Run (name, job) pairs in order: each job's summary without its wall
    times, as JSON text, by job name."""
    out = {}
    for name, job in jobs:
        summary = job()
        if isinstance(summary, dict):
            summary = {k: v for k, v in summary.items()
                       if k not in TIMING_KEYS}
        out[name] = json.dumps(summary)
    return out


def calls(args, drive):
    import numpy
    import ergolab
    counter = Counter(os.path.dirname(numpy.__file__),
                      os.path.dirname(ergolab.__file__))
    drive([run_jobs] + [counter.run] * args.passes)
    out = counter.report(args.passes, args.top)
    return [f"{args.passes} warm passes",
            f"NumPy Python calls per pass   {out['numpy_calls']:10.0f}",
            f"NumPy entry points per pass   {out['numpy_entries']:10.0f}",
            f"ergolab calls per pass        {out['ergolab_calls']:10.0f}",
            f"{'NumPy calls':>11s}  caller -> NumPy entry point",
            *(f"{row['numpy_calls']:11.0f}  {row['caller']} -> {row['entry']}"
              for row in out["top"])], out


def peaks(args, drive):
    *passes, traced = drive([run_pass] * args.passes + [_traced_pass])
    rows = combine(passes, traced)
    per_pass = [sum(r["minflt"] for r in p) for p in passes]
    lines = [f"{args.passes} passes",
             f"{'job':28s} {'maxrss MB':>10s} {'traced MB':>10s} "
             f"{'minflt':>8s} {'min s':>9s}",
             *(f"{r['name']:28s} {r['maxrss_mb']:10.1f} "
               f"{r['traced_peak_mb']:10.1f} {r['minflt']:8.0f} "
               f"{r['min_s']:9.4f}" for r in rows),
             "minor faults per pass: " + ", ".join(map(str, per_pass))]
    return lines, {"jobs": rows, "minflt_per_pass": per_pass}


def summaries(args, drive):
    (out,) = drive([summarize_jobs])
    return [f"{len(out)} job summaries"], out


# each probe gets the parsed arguments and drive (see main), and returns
# the lines it prints and its JSON object
PROBES = {"calls": calls, "peaks": peaks, "summaries": summaries}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workload", required=True, choices=WORKLOADS)
    common.add_argument("--seed", type=int, required=True)
    common.add_argument("--root", default=ROOT)
    probes = parser.add_subparsers(dest="probe", required=True)
    counted = probes.add_parser("calls", parents=[common])
    counted.add_argument("--passes", type=int, default=2)
    counted.add_argument("--top", type=int, default=15)
    probes.add_parser("peaks", parents=[common]).add_argument(
        "--passes", type=int, default=3)
    probes.add_parser("summaries", parents=[common])
    args = parser.parse_args(argv)
    if getattr(args, "passes", 1) < 1:
        parser.error("--passes must be at least 1")
    os.environ.update(PINNED)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    inputs = workloads.setup(args.workload, args.seed)

    def drive(passes):
        """Run the jobs once per pass function, each pass into a directory
        of its own; the passes' results in order."""
        with tempfile.TemporaryDirectory(prefix="probe-") as out_dir:
            return [run(workloads.jobs(inputs, os.path.join(out_dir, str(k))))
                    for k, run in enumerate(passes)]

    lines, out = PROBES[args.probe](args, drive)
    print(f"{args.probe}: {args.workload} seed {args.seed}, {root}", *lines,
          sep="\n  ")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
