"""The calls probe of tools/probe.py on stand-in packages and jobs; no
benchmark workload is run."""

import importlib.util
import json
import os
import sys
import textwrap

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "probe.py")
_spec = importlib.util.spec_from_file_location("probe", _PATH)
probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe)


def _load(path, name, text):
    path.mkdir()
    (path / "mod.py").write_text(textwrap.dedent(text))
    spec = importlib.util.spec_from_file_location(name, path / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_calls_are_charged_to_their_entry_point_and_its_caller(tmp_path):
    lib = _load(tmp_path / "lib", "stand_in_lib", """
        def inner():
            return 1

        def entry():
            return inner() + inner()
        """)
    pkg = _load(tmp_path / "pkg", "stand_in_pkg", """
        def kernel(entry):
            return entry()

        def outer(entry):
            return kernel(entry) + kernel(entry) + entry()
        """)
    counter = probe.Counter(tmp_path / "lib", tmp_path / "pkg")
    for _ in range(2):
        counter.run([("job", lambda: pkg.outer(lib.entry))])
    out = counter.report(passes=2, top=5)
    # three entries of three calls each; outer and two kernels
    assert out["numpy_calls"] == 9.0 and out["numpy_entries"] == 3.0
    assert out["ergolab_calls"] == 3.0
    assert out["top"] == [
        {"caller": "ergolab.mod.kernel", "entry": "mod.entry",
         "numpy_calls": 6.0},
        {"caller": "ergolab.mod.outer", "entry": "mod.entry",
         "numpy_calls": 3.0}]
    assert sys.getprofile() is None


def test_main_counts_the_warm_passes_of_another_tree(tmp_path, monkeypatch,
                                                     capsys):
    path = tmp_path / "perfbench" / "workloads.py"
    path.parent.mkdir()
    path.write_text(textwrap.dedent("""
        import numpy as np

        RUNS = []

        def setup(workload, seed):
            return seed

        def jobs(inputs, out_dir=None):
            def flat():
                RUNS.append(out_dir)
                return np.flatnonzero(np.arange(inputs))
            return [("flat", flat)]
        """))
    monkeypatch.setattr(sys, "path", list(sys.path))
    # main pins the threads in a copy of the environment, not this process's
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    assert probe.main(["calls", "--workload", "corpus", "--seed", "3",
                       "--passes", "2", "--root", str(tmp_path)]) == 0
    assert probe.PINNED.items() <= os.environ.items()
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # one unmeasured pass and two measured ones, each in its own directory
    assert len(set(sys.modules["workloads"].RUNS)) == 3
    assert out["numpy_calls"] >= out["numpy_entries"] >= 1.0
    assert out["ergolab_calls"] == 0.0
    assert {row["caller"] for row in out["top"]} == {"jobs.<locals>.flat"}
    assert sum(row["numpy_calls"] for row in out["top"]) == out["numpy_calls"]
