"""The benchmark's layer tracer wraps package names from outside; a name it
wraps that the package no longer has makes it raise on install.  The test
suite installs it here, so a deleted or renamed wrapped name fails here,
not first in a traced benchmark run.  It also pins how the package calls
what the tracer wraps: a bisecting integration is one traced call,
circle arithmetic is not counted as a ``merge_sum`` call, and the runner
calls the wrapped grid builders and bounds through their names."""

import os

import numpy as np

from ergolab import condexp, fields, functions, processes
from ergolab.config import parse_text
from ergolab.functions import hat, sawtooth
from ergolab.runner import run_scenario
from test_runner import SMALL, SMALL_CHECKS

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layertrace

    originals = (condexp.cond_exp_dominant, processes.me_process,
                 processes.ProcessGrid.items)
    tracer = layertrace.Tracer()
    try:
        with tracer:
            pass
    finally:
        # a failed install leaves the names it had wrapped so far
        tracer.remove()
    assert (condexp.cond_exp_dominant, processes.me_process,
            processes.ProcessGrid.items) == originals


def _traced(monkeypatch, work):
    """Run work() under an installed tracer; return its summary."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import layertrace

    with layertrace.Tracer() as tracer:
        work()
    return tracer.summary()


def test_bisecting_integration_is_one_call_with_one_split(monkeypatch):
    # the tracer reads a bisection child's depth as gl_integrate's second
    # argument after lo, hi; a child read as depth 0 would be a new call
    spans, counts = _traced(monkeypatch, lambda: fields.gl_integrate(
        lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0))
    assert spans["fields.gl_integrate"]["calls"] == 1
    assert counts[("fields.gl_integrate", "splits")] == 1


def test_circle_subtraction_opens_no_merge_sum_span(monkeypatch):
    f, g = sawtooth(d=2), hat(d=2, phases=[0.1, 0.4])
    spans, _ = _traced(monkeypatch, lambda: (f - g, f + g))
    assert spans["functions.merge_sum"]["calls"] == 0
    spans, _ = _traced(monkeypatch, lambda: functions.merge_sum([f, g],
                                                                [1.0, -1.0]))
    assert spans["functions.merge_sum"]["calls"] == 1


def test_runner_checks_open_one_span_per_grid_table_and_bound(monkeypatch):
    # the runner looks the grid builders and the bounds up by name when a
    # check runs; a reference stored at import would open no span
    cfg = parse_text(SMALL.replace(SMALL_CHECKS, (
        "checks = me_convergence, em_convergence, dominant_ineq_me, "
        "dominant_ineq_em, maximal_ineq_me, maximal_ineq_em")))
    spans, _ = _traced(monkeypatch, lambda: run_scenario(cfg))
    assert {name: spans[name]["calls"] for name in (
        "processes.me_process", "processes.em_process",
        "processes.convergence_table", "inequalities.dominant_ineq",
        "inequalities.maximal_ineq")} == {
        "processes.me_process": 1, "processes.em_process": 1,
        "processes.convergence_table": 2, "inequalities.dominant_ineq": 2,
        "inequalities.maximal_ineq": 2}
