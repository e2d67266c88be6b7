"""The benchmark's layer tracer wraps package names from outside; a name it
wraps that the package no longer has makes it raise on install.  The test
suite installs it here, so a deleted or renamed wrapped name fails here,
not first in a traced benchmark run."""

import os

from ergolab import condexp, processes

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
