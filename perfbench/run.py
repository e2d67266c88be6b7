"""ergolab benchmark: time to verdict of one workload, checked against a
frozen reference.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Workloads (see README.md): ``corpus``, ``long_horizon``, ``fine_pieces``.
All load comes from this one single-threaded process; set-up is timed in
fresh child processes, one after another.  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it runs one untraced
pass and then traced passes, and prints the per-layer metrics.  The last
line of standard output is one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# BLAS and OpenMP pools stay at one thread, here and in child processes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("corpus", "long_horizon", "fine_pieces")
SETUP_SAMPLES = 5
SETUP_INTERVAL = 0.01


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe_setup(workload, seed):
    """Child-process body: time import, config parsing and input building,
    host-speed adjusted (NumPy is imported first: the kernel needs it)."""
    import hostclock
    with hostclock.HostClock(interval=SETUP_INTERVAL) as clock:
        start = time.perf_counter()
        import ergolab  # noqa: F401
        import workloads
        workloads.setup(workload, seed)
        end = time.perf_counter()
    print(repr(clock.adjust([(start, end)])[0]))


def _setup_samples(workload, seed):
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(inputs, refs, out_dir=None, tracer=None):
    """Run every job once; an exception fails its job, not the pass."""
    import reference
    import workloads
    out = {"intervals": [], "names": [], "summaries": [], "problems": []}
    for i, (name, job) in enumerate(workloads.jobs(inputs, out_dir)):
        if tracer is not None:
            tracer.current_job = i
        start = time.perf_counter()
        try:
            summary = job()
            problems = None
        except Exception as exc:  # noqa: BLE001  (recorded as a failed job)
            summary = None
            problems = [f"raised {type(exc).__name__}: {exc}"]
        out["intervals"].append((start, time.perf_counter()))
        if problems is None:
            problems = reference.check_job(inputs.workload, name, summary, refs)
        out["names"].append(name)
        out["summaries"].append(summary)
        out["problems"].append(problems)
    out["pass_s"] = sum(end - start for start, end in out["intervals"])
    return out


def _results(p):
    """The comparable part of a pass: job outputs without wall times."""
    return [s["records"] if isinstance(s, dict) else s for s in p["summaries"]]


def _supported_percentile(n):
    """Highest percentile above the median with at least ten samples beyond
    it, or None."""
    q = 100.0 * (n - 10) / n if n > 10 else 0.0
    return q if q > 50.0 else None


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _clocked_pass(inputs, refs, out_dir, tracer=None):
    """One pass under the host clock; ``adjusted`` holds the job times."""
    import hostclock
    with hostclock.HostClock() as clock:
        p = run_pass(inputs, refs, out_dir, tracer)
    p["adjusted"] = clock.adjust(p["intervals"])
    return p


def _measure(seconds, inputs, refs, out_dir):
    """Passes until the next one would end after ``seconds`` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_clocked_pass(inputs, refs, os.path.join(out_dir, str(len(passes)))
                                    if out_dir else None))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["pass_s"] for p in passes)
        if elapsed + typical > seconds:
            return passes


def _tally(passes):
    attempted = sum(len(p["problems"]) for p in passes)
    failed = sum(1 for p in passes for pr in p["problems"] if pr)
    return attempted, failed


def _report_known_defects(workload, refs):
    for job, ref in refs[workload].items():
        if "known_defect" in ref:
            print(f"  known defect at the reference commit: {job} {ref['known_defect']}")


def _report_failures(passes):
    for k, p in enumerate(passes):
        for name, problems in zip(p["names"], p["problems"]):
            for problem in problems:
                print(f"  FAIL pass {k} job {name}: {problem}")


def end_to_end(workload, seed, seconds, inputs, refs, out_dir):
    setup = _setup_samples(workload, seed)
    passes = _measure(seconds, inputs, refs, out_dir)
    attempted, failed = _tally(passes)
    pass_times = [sum(p["adjusted"]) for p in passes]
    slowest = [max(p["adjusted"]) for p in passes]
    walls = [p["pass_s"] for p in passes]
    first = passes[0]
    worst_job = first["names"][first["adjusted"].index(max(first["adjusted"]))]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(pass_times), "s"),
        "slowest_job_s": (statistics.median(slowest), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    q = _supported_percentile(len(pass_times))
    tail = ("no percentile above the median has 10 passes beyond it" if q is None
            else f"p{q:.0f} = {statistics.quantiles(pass_times, n=100)[int(q) - 1]:.4f} s")
    print(f"ergolab benchmark  workload={workload}  seed={seed}  passes={len(passes)}"
          f"  jobs/pass={len(passes[0]['names'])}")
    print(f"  setup_s        {metrics['setup_s'][0]:10.4f} s   median of {len(setup)} set-ups")
    print(f"  pass_s         {metrics['pass_s'][0]:10.4f} s   median of {len(passes)} passes; {tail}")
    print(f"                 (wall {statistics.median(walls):.4f} s; times are host-speed adjusted,"
          " see hostclock.py)")
    print(f"  slowest_job_s  {metrics['slowest_job_s'][0]:10.4f} s   median over passes"
          f" (slowest job of pass 0: {worst_job})")
    print(f"  peak_rss_mb    {metrics['peak_rss_mb'][0]:10.1f} MB")
    print(f"  fail_ratio     {failed / attempted:10.4f}     {failed} of {attempted} jobs")
    _report_known_defects(workload, refs)
    _report_failures(passes)
    return failed == 0, attempted, failed, metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts, self_s, check_s, moved, parse_s, overhead):
    """Per-layer metrics, name -> (value, unit), from one traced run."""
    import layertrace
    metrics = {}
    for name in layertrace.SPAN_NAMES:
        if name in ("flows.cesaro_average.identity", "runner.artifacts"):
            continue
        metrics[f"{name}.calls"] = (spans[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics["processes.grid_entries.calls"] = (
        spans["processes.grid_entries"]["calls"]
        + counts[("processes.grid_entries", "items")], "count")
    metrics["functions.merge_sum.pieces_out"] = (
        counts[("functions.merge_sum", "pieces_out")], "count")
    metrics["functions.eval.points"] = (counts[("functions.eval", "points")], "count")
    metrics["fields.real_roots_in.hit_ratio"] = (
        _ratio(counts[("fields.real_roots_in", "hits")],
               spans["fields.real_roots_in"]["calls"]), "ratio")
    metrics["fields.gl_integrate.evals"] = (counts[("fields.gl_integrate", "evals")], "count")
    metrics["fields.gl_integrate.split_ratio"] = (
        _ratio(counts[("fields.gl_integrate", "splits")],
               spans["fields.gl_integrate"]["calls"]), "ratio")
    metrics["fields.upper_envelope.pieces_out"] = (
        counts[("fields.upper_envelope", "pieces_out")], "count")
    metrics["flows.cesaro_average.step.time_units"] = (
        counts[("flows.cesaro_average.step", "time_units")], "steps")
    for name, wall in check_s.items():
        metrics[f"runner.check_s.{name}"] = (wall, "s")
    metrics["runner.artifacts_s"] = (self_s["runner.artifacts"], "s")
    metrics["runner.artifact_values_moved"] = (moved, "count")
    metrics["config.parse_s"] = (parse_s, "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def per_layer(workload, seed, seconds, inputs, refs, out_dir):
    import reference
    import layertrace
    import workloads
    from ergolab.runner import CHECK_NAMES

    parse_s = 0.0
    if inputs.configs:
        samples = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            workloads.parse_configs(workload)
            samples.append(time.perf_counter() - t0)
        parse_s = statistics.median(samples)

    start = time.perf_counter()
    plain_dir = os.path.join(out_dir, "plain") if out_dir else None
    plain = _clocked_pass(inputs, refs, plain_dir)
    moved = (reference.moved_artifact_values(plain_dir, reference.load_artifacts())
             if plain_dir else 0)
    traced = []
    tracers = []
    while True:
        tracer = layertrace.Tracer()
        with tracer:
            traced.append(_clocked_pass(inputs, refs,
                                        os.path.join(out_dir, f"traced{len(traced)}")
                                        if out_dir else None, tracer))
        tracers.append(tracer)
        typical = statistics.median(p["pass_s"] for p in traced)
        if time.perf_counter() - start + typical > seconds:
            break

    passes = [plain] + traced
    attempted, failed = _tally(passes)
    same = all(_results(p) == _results(plain) for p in traced)
    os.makedirs(OUT, exist_ok=True)
    tracers[0].save(os.path.join(OUT, f"trace-{workload}-{seed}.npz"), plain["names"])

    summaries = [t.summary() for t in tracers]
    spans, counts = summaries[0]
    self_s = {name: statistics.median(s[0][name]["self_s"] for s in summaries)
              for name in spans}
    check_s = {name: 0.0 for name in CHECK_NAMES}
    for summary in plain["summaries"]:
        if isinstance(summary, dict):
            for name, wall in summary["check_s"]:
                check_s[name] += wall

    overhead = statistics.median(sum(p["adjusted"]) for p in traced) / sum(plain["adjusted"])
    metrics = layer_metrics(spans, counts, self_s, check_s, moved, parse_s, overhead)

    total_self = sum(self_s.values())
    print(f"ergolab benchmark (traced)  workload={workload}  seed={seed}"
          f"  untraced pass {sum(plain['adjusted']):.3f} s, {len(traced)} traced pass(es),"
          f" overhead x{overhead:.2f}")
    print(f"  traced and untraced results {'identical' if same else 'DIFFER'};"
          f" {failed} of {attempted} jobs failed")
    for name in sorted(self_s, key=self_s.get, reverse=True)[:12]:
        print(f"  {name:40s} {spans[name]['calls']:9d} calls {self_s[name]:9.3f} s self"
              f" ({100.0 * _ratio(self_s[name], total_self):5.1f} % of traced self time)")
    _report_known_defects(workload, refs)
    _report_failures(passes)
    return failed == 0 and same, attempted, failed, metrics


def main(argv=None):
    args = _parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "ergolab", "__init__.py")):
        print(f"error: no ergolab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.probe_setup:
        _probe_setup(args.workload, args.seed)
        return 0

    import reference
    import workloads
    refs = reference.load_results()
    inputs = workloads.setup(args.workload, args.seed)
    out_dir = None
    if args.workload == "corpus":
        out_dir = os.path.join(OUT, f"artifacts-{os.getpid()}")
    try:
        run = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = run(
            args.workload, args.seed, args.seconds, inputs, refs, out_dir)
    finally:
        if out_dir:
            shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
