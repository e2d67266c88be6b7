"""The per-job measurements of tools/jobpeaks.py on stand-in jobs; no
benchmark workload is run."""

import importlib.util
import json
import os
import sys
import textwrap
import time
import tracemalloc

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "jobpeaks.py")
_spec = importlib.util.spec_from_file_location("jobpeaks", _PATH)
jobpeaks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(jobpeaks)


def _block(mb):
    """A job that allocates mb megabytes and frees them before it ends."""
    return lambda: len(bytearray(int(mb * jobpeaks.MB)))


def test_a_pass_measures_each_job_in_order():
    jobs = [("sleep", lambda: time.sleep(0.01)), ("block", _block(4))]
    rows = jobpeaks.run_pass(jobs)
    assert [r["name"] for r in rows] == ["sleep", "block"]
    assert rows[0]["seconds"] >= 0.01
    assert all(r["minflt"] >= 0 for r in rows)
    assert 0.0 < rows[0]["maxrss_mb"] <= rows[1]["maxrss_mb"]
    assert "traced_peak_mb" not in rows[0]
    tracemalloc.start()
    try:
        traced = jobpeaks.run_pass(jobs, traced=True)
    finally:
        tracemalloc.stop()
    # the block is freed before its job ends, and its peak is still seen
    assert traced[1]["traced_peak_mb"] >= 4.0 > traced[0]["traced_peak_mb"]


def test_passes_combine_per_job():
    passes = [[{"name": "a", "seconds": 0.3, "maxrss_mb": 50.0, "minflt": 10}],
              [{"name": "a", "seconds": 0.2, "maxrss_mb": 60.0, "minflt": 0}],
              [{"name": "a", "seconds": 0.4, "maxrss_mb": 61.0, "minflt": 4}]]
    traced = [{"name": "a", "seconds": 1.0, "maxrss_mb": 70.0, "minflt": 9,
               "traced_peak_mb": 12.5}]
    # ru_maxrss of the first pass, where the peak grows; median faults
    assert jobpeaks.combine(passes, traced) == [
        {"name": "a", "maxrss_mb": 50.0, "traced_peak_mb": 12.5,
         "minflt": 4, "min_s": 0.2}]


def test_main_reads_the_workloads_of_another_tree(tmp_path, monkeypatch,
                                                  capsys):
    path = tmp_path / "perfbench" / "workloads.py"
    path.parent.mkdir()
    path.write_text(textwrap.dedent("""
        def setup(workload, seed):
            return seed

        def jobs(inputs, out_dir=None):
            return [("small", lambda: [float(inputs)]),
                    ("block", lambda: len(bytearray(3 << 20)))]
        """))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    assert jobpeaks.main(["--workload", "fine_pieces", "--seed", "1",
                          "--passes", "2", "--root", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [r["name"] for r in out["jobs"]] == ["small", "block"]
    assert out["jobs"][1]["traced_peak_mb"] >= 3.0
    assert len(out["minflt_per_pass"]) == 2
