"""The bits command of tools/compare.py: its comparisons and run settings;
no benchmark or verify run is made."""

import importlib.util
import json
import os
import subprocess
import textwrap

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "compare.py")
_spec = importlib.util.spec_from_file_location("compare", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def _write(root, rel, data):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)


def test_tree_diff_names_changed_and_one_sided_files(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for root in (a, b):
        _write(root, "same.csv", b"1.0\n")
        _write(root, "sub/same.json", b"{}")
    assert compare.diff_trees(a, b) == []
    # one trailing bit of a float is a difference; so is a file on one side
    _write(a, "sub/moved.dat", b"0.30000000000000004\n")
    _write(b, "sub/moved.dat", b"0.3\n")
    _write(a, "only_a.csv", b"")
    _write(b, "sub/deeper/only_b.csv", b"")
    assert compare.diff_trees(a, b) == [
        "only_a.csv", os.path.join("sub", "deeper", "only_b.csv"),
        os.path.join("sub", "moved.dat")]


def test_summary_diff_names_changed_and_one_sided_jobs():
    parent = {"corpus seed 1 golden_saw2": "[1.0]", "fine seed 1 sup": "[2.0]"}
    assert compare.diff_summaries(parent, dict(parent)) == []
    change = {"corpus seed 1 golden_saw2": "[1.0000000000000002]",
              "fine seed 2 sup": "[2.0]"}
    assert compare.diff_summaries(parent, change) == [
        "corpus seed 1 golden_saw2", "fine seed 1 sup", "fine seed 2 sup"]


def test_summaries_drop_wall_times_and_keep_every_float_bit(tmp_path):
    # a stand-in workloads module, read by a summaries probe per workload
    # and seed: a scenario job's summary carries wall times, which two runs
    # never share; a library job's is a list
    _write(str(tmp_path), "perfbench/workloads.py", textwrap.dedent("""
        import time

        def setup(workload, seed):
            return (workload, seed)

        def jobs(inputs, out_dir=None):
            workload, seed = inputs
            return [("scenario", lambda: {"records": [["x", "PASS", 0.1 * seed]],
                                          "check_s": [["x", time.time()]]}),
                    ("call", lambda: [1.0 / 3.0, float(seed)])]
        """).encode())
    first, second = (compare._summaries(str(tmp_path)) for _ in range(2))
    assert first == second
    assert len(first) == 2 * len(compare.probe.WORKLOADS) * len(compare.SEEDS)
    assert json.loads(first["corpus seed 3 scenario"]) == {
        "records": [["x", "PASS", 0.30000000000000004]]}
    assert first["fine_pieces seed 2 call"] == "[0.3333333333333333, 2.0]"


def test_verify_runs_pin_blas_and_share_a_failed_check(monkeypatch):
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append((cmd, kwargs))
        return subprocess.CompletedProcess(cmd, len(seen) - 1, stderr="boom")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert compare._verify("tree", "out", ["--seed", "1234"]) == 0
    assert compare._verify("tree", "out", []) == 1
    with pytest.raises(RuntimeError, match="exited 2"):
        compare._verify("tree", "out", [])
    cmd, kwargs = seen[0]
    assert cmd[1:] == ["-m", "ergolab", "verify", "--suite", "all", "--out",
                       "out", "--seed", "1234"]
    assert kwargs["cwd"] == "tree"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert kwargs["env"][var] == "1"
    assert compare.probe.PINNED.items() <= kwargs["env"].items()
    assert kwargs["env"]["PYTHONPATH"] == "src"


def test_every_run_repeats_under_the_alternate_kernels(monkeypatch, capsys):
    # both sides run under each setting, set in the child's environment
    # only; a summary that moves under one setting alone is named with it
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    assert "OPENBLAS_CORETYPE" not in compare._env()
    assert compare._env(**compare.KERNELS["openblas_nehalem"])[
        "OPENBLAS_CORETYPE"] == "Nehalem"
    assert compare._env(**compare.KERNELS["numpy_baseline"])[
        "NPY_DISABLE_CPU_FEATURES"] == "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
    runs = []

    def fake_verify(tree, out, args, kernels):
        runs.append(("verify", os.path.basename(tree), kernels))
        os.makedirs(out)
        return 0

    def fake_summaries(tree, kernels):
        side = os.path.basename(tree)
        runs.append(("summaries", side, kernels))
        moved = side == "change" and "OPENBLAS_CORETYPE" in kernels
        return {"fine_pieces seed 1 lp.3": "[1.7694988]" if moved
                else "[1.7694778]"}

    monkeypatch.setattr(compare, "_commit", lambda rev: rev)
    monkeypatch.setattr(compare, "_checkout", lambda commit, where: where)
    monkeypatch.setattr(compare, "_verify", fake_verify)
    monkeypatch.setattr(compare, "_summaries", fake_summaries)
    assert compare.main(["bits"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "openblas_nehalem: job summary differs: fine_pieces seed 1 lp.3",
        "1 differences"]
    for kernels in compare.KERNELS.values():
        for side in ("parent", "change"):
            assert runs.count(("verify", side, kernels)) == len(
                compare.VERIFY_RUNS)
            assert runs.count(("summaries", side, kernels)) == 1
    assert len(runs) == len(compare.KERNELS) * 2 * (
        len(compare.VERIFY_RUNS) + 1)
    assert os.environ["OPENBLAS_CORETYPE"] == "Haswell"
