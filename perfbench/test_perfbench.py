"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They run small slices of the workloads (two scenarios, a subset of the
fine_pieces calls), so they take about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layertrace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ergolab import runner  # noqa: E402

SLICE = ("golden_hat1_dec", "step_z8")
FINE_SLICE = ("cesaro_average", "cond_exp.0", "cond_exp.7", "cond_exp.12",
              "pointwise_norm.scalar", "pointwise_norm.euclidean2", "lp.2", "lp.3",
              "lp.2.euclidean2", "upper_envelope.4")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def refs():
    return reference.load_results()


def corpus_slice(seed):
    configs = [(n, c) for n, c in workloads.parse_configs("corpus") if n in SLICE]
    return workloads.Inputs("corpus", seed, configs)


def fine_slice(monkeypatch, seed):
    jobs = workloads.jobs
    monkeypatch.setattr(workloads, "jobs", lambda inputs, out_dir=None: [
        (n, j) for n, j in jobs(inputs, out_dir)
        if inputs.workload != "fine_pieces" or n in FINE_SLICE])
    return workloads.setup("fine_pieces", seed)


def test_traced_and_untraced_results_identical(refs, tmp_path, monkeypatch):
    for inputs in (corpus_slice(3), fine_slice(monkeypatch, 3)):
        plain = run.run_pass(inputs, refs, str(tmp_path / "plain"))
        tracer = layertrace.Tracer()
        with tracer:
            traced = run.run_pass(inputs, refs, str(tmp_path / "traced"), tracer)
        assert plain["names"] and run._results(traced) == run._results(plain)
        assert tracer.summary()[0]["functions.eval"]["calls"] > 0
        assert not any(plain["problems"]) and not any(traced["problems"])


def test_tracer_restores_every_binding():
    from ergolab import condexp, fields, processes
    before = (processes.cond_exp, condexp.cond_exp, fields.gl_integrate,
              fields.PolyField.lp, processes.ProcessGrid.items)
    with layertrace.Tracer():
        assert processes.cond_exp is not before[0]
        assert processes.cond_exp is condexp.cond_exp
    assert (processes.cond_exp, condexp.cond_exp, fields.gl_integrate,
            fields.PolyField.lp, processes.ProcessGrid.items) == before


def test_wrong_verdict_counts_as_failure(refs, monkeypatch):
    def wrong(ctx):
        return runner.CheckRecord("martingale_surrogate", "FAIL", 1.0)
    monkeypatch.setitem(runner.CHECKS, "martingale_surrogate", wrong)
    result = run.run_pass(corpus_slice(3), refs)
    assert result["names"] == list(SLICE)
    assert run._tally([result]) == (2, 1)
    assert "verdict FAIL" in result["problems"][0][0]


def test_raising_check_counts_as_failure(refs, monkeypatch):
    def boom(ctx):
        raise RuntimeError("injected")
    monkeypatch.setitem(runner.CHECKS, "martingale_surrogate", boom)
    result = run.run_pass(corpus_slice(3), refs)
    assert result["names"] == list(SLICE)
    assert run._tally([result]) == (2, 1)
    assert result["problems"][0] == ["raised RuntimeError: injected"]


def test_non_default_seed_passes_gate(refs, monkeypatch):
    sign, phase = workloads.fine_params(987654)
    assert sign == -1.0 and phase != 0
    for inputs in (corpus_slice(987654), fine_slice(monkeypatch, 987654)):
        result = run.run_pass(inputs, refs)
        assert result["names"] and not any(result["problems"]), result["problems"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spans, counts = layertrace.Tracer().summary()
    self_s = {name: 0.0 for name in spans}
    check_s = {name: 0.0 for name in runner.CHECK_NAMES}
    layer = run.layer_metrics(spans, counts, self_s, check_s, 0, 0.0, 1.0)
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in layer.values()]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "pass_s", "slowest_job_s", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
