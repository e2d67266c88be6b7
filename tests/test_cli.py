import os
import subprocess
import sys

import pytest

from ergolab.cli import FAST_SUITE, main, scenario_dir, shipped_scenarios

PASSING = """
name = cli_pass
space.kind = circle
flow.kind = rotation
flow.theta = golden
function.kind = sawtooth
vector_norm = euclidean
filtration.direction = decreasing
filtration.max_level = 3
t_grid = 1.0, 2.0
s_grid = 0.0, 1.0
p = 2.0
epsilon = 0.5
checks = defining_property, contraction
seed = 2
"""

FAILING = PASSING.replace("name = cli_pass", "name = cli_fail") \
                 .replace("flow.kind = rotation\nflow.theta = golden",
                          "flow.kind = identity") \
                 .replace("checks = defining_property, contraction",
                          "checks = ergodic_envelope")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_exit_zero_and_artifacts(tmp_path, capsys):
    cfg = _write(tmp_path, "pass.cfg", PASSING)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS: 2 checks, 0 failures" in printed
    assert (out / "cli_pass.json").exists()
    assert (out / "cli_pass.csv").exists()


def test_run_exit_one_on_failing_check(tmp_path, capsys):
    cfg = _write(tmp_path, "fail.cfg", FAILING)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "FAIL: 1 checks, 1 failures" in printed


def test_run_exit_two_on_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "broken.cfg", PASSING + "bogus_key = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bogus_key" in err


def test_run_exit_two_on_non_finite_number(tmp_path, capsys):
    # a NaN step width is a config problem, not a traceback from the flow
    with open(os.path.join(scenario_dir(), "step_z8.cfg"), encoding="utf-8") as fh:
        text = fh.read().replace("flow.h = 1.0", "flow.h = nan")
    cfg = _write(tmp_path, "nan_h.cfg", text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "flow.h" in capsys.readouterr().err


def _shipped_text(name):
    with open(os.path.join(scenario_dir(), name + ".cfg"), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("scenario, old, new, key", [
    ("step_z8", "space.atoms = 8", "space.atoms = 0", "space.atoms"),
    ("step_z8", "space.atoms = 8",
     "space.weights = 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.0", "space.weights"),
    # the default shift moves non-uniform weights
    ("step_z8", "space.atoms = 8",
     "space.weights = 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1", "flow.map"),
    ("golden_hat1_dec", "function.kind = hat\nfunction.d = 1",
     "function.kind = explicit\nfunction.breaks = 0.0, 0.5, 0.9\n"
     "function.piece.0 = 1.0\nfunction.piece.1 = -1.0", "function.breaks"),
    ("golden_hat1_dec", "flow.theta = golden",
     "flow.theta = golden\nflow.h = 1.0", "flow.h"),
    ("golden_hat1_dec", "function.d = 1",
     "function.d = 1\nfunction.harmonic = 2", "function.harmonic"),
])
def test_run_exit_two_names_the_key(tmp_path, capsys, scenario, old, new, key):
    # constructor rules (weights, a measure-preserving map, breaks that
    # span [0, 1]) and keys the chosen kind does not read are config
    # problems, not tracebacks or silently dropped keys
    text = _shipped_text(scenario)
    assert old in text
    cfg = _write(tmp_path, "bad.cfg", text.replace(old, new))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config key '{key}'" in capsys.readouterr().err


def test_python_m_ergolab_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "ergolab", "list"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "decomposition" in done.stdout


def test_run_missing_file_is_config_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["run", "--config", missing, "--out",
                 str(tmp_path / "o")]) == 2


def test_seed_override_changes_echo(tmp_path):
    cfg = _write(tmp_path, "pass.cfg", PASSING)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--seed", "31"]) == 0
    assert '"seed": 31' in (out / "cli_pass.json").read_text()


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    printed = capsys.readouterr().out
    assert "decomposition" in printed
    assert "martingale_surrogate" in printed
    assert "sawtooth" in printed


def test_shipped_scenario_discovery():
    everything = shipped_scenarios("all")
    assert len(everything) == 7
    assert all(path.endswith(".cfg") for path in everything)
    fast = shipped_scenarios("fast")
    assert [os.path.basename(p)[:-4] for p in fast] == list(FAST_SUITE)
    assert set(fast) <= set(everything)
    assert os.path.isdir(scenario_dir())
