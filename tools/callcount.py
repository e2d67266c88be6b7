"""Python-level calls per warm pass of one benchmark workload: into NumPy
and within ergolab.

    python3 tools/callcount.py --workload corpus --seed 1

Runs one unmeasured pass over the jobs of ``perfbench/workloads.py`` (read
as it is, never edited), then ``--passes`` passes under ``sys.setprofile``,
with BLAS and OpenMP pools pinned to one thread.  A call counts where its
code object's file lies in NumPy's package (``numpy``) or in ergolab's
(``ergolab``); calls of C functions (``np.concatenate``, ndarray methods)
run no Python frame and count in neither.  A NumPy call whose caller is
not NumPy code is an entry point; every NumPy call is charged to the
entry point it runs under and to that entry's caller.  Per pass the
script prints the NumPy calls, the entry points among them and the
ergolab calls, then the ``--top`` (caller, entry point) pairs by the
NumPy calls they make.  ``--root`` runs another checkout's sources (its
``src/`` and ``perfbench/``).  The last line of standard output is one
JSON object.
"""

import argparse
import collections
import json
import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
            for _, job in jobs:
                job()
        finally:
            sys.setprofile(None)

    def report(self, passes, top):
        """Per-pass counts and the top (caller, entry point) pairs."""
        return {"numpy_calls": sum(self.pairs.values()) / passes,
                "numpy_entries": self.entries / passes,
                "ergolab_calls": self.ergolab / passes,
                "top": [{"caller": c, "entry": e, "numpy_calls": n / passes}
                        for (c, e), n in self.pairs.most_common(top)]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "long_horizon", "fine_pieces"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=2)
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--root", default=ROOT)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import numpy
    import ergolab
    import workloads
    counter = Counter(os.path.dirname(numpy.__file__),
                      os.path.dirname(ergolab.__file__))
    inputs = workloads.setup(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="callcount-") as out_dir:
        for k in range(args.passes + 1):
            jobs = workloads.jobs(inputs, os.path.join(out_dir, str(k)))
            if k == 0:
                for _, job in jobs:
                    job()
            else:
                counter.run(jobs)
    out = counter.report(args.passes, args.top)
    print(f"{args.workload} seed {args.seed}, {args.passes} warm passes, "
          f"{root}")
    print(f"  NumPy Python calls per pass   {out['numpy_calls']:10.0f}")
    print(f"  NumPy entry points per pass   {out['numpy_entries']:10.0f}")
    print(f"  ergolab calls per pass        {out['ergolab_calls']:10.0f}")
    print(f"  {'NumPy calls':>11s}  caller -> NumPy entry point")
    for row in out["top"]:
        print(f"  {row['numpy_calls']:11.0f}  {row['caller']} -> "
              f"{row['entry']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
