"""The benchmark's correctness gate in the unit tests: every job of every
workload must match the frozen reference in ``perfbench/reference/``, so a
change the benchmark would refuse for incorrect outputs fails here first."""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("workload", ["corpus", "long_horizon", "fine_pieces"])
def test_workload_outputs_match_the_reference(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import reference
    import workloads

    refs = reference.load_results()
    inputs = workloads.setup(workload, 1)
    for name, job in workloads.jobs(inputs, str(tmp_path)):
        assert reference.check_job(workload, name, job(), refs) == [], name
