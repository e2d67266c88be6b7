import glob
import os

import numpy as np
import pytest

from ergolab.cli import scenario_dir
from ergolab.config import (CIRCLE_LEVEL_CAP, ConfigError, parse_config,
                            parse_text)
from ergolab.functions import DEGREE_CAP
from ergolab.runner import build_context, run_scenario

MINIMAL = """
name = tiny
space.kind = circle
flow.kind = rotation
flow.theta = golden
function.kind = sawtooth
vector_norm = euclidean
filtration.direction = decreasing
filtration.max_level = 3
t_grid = 1.0, 2.0, 4.0
s_grid = 0.0, 1.0, 2.0
p = 2.0
epsilon = 0.5
checks = decomposition, contraction
seed = 7
"""


def test_minimal_roundtrip():
    cfg = parse_text(MINIMAL)
    assert cfg.name == "tiny"
    assert cfg.flow_theta == pytest.approx((5 ** 0.5 - 1) / 2)
    assert cfg.threshold == 0.05  # default
    again = parse_text(cfg.echo())
    assert again == cfg


def test_comments_and_blank_lines_ignored():
    cfg = parse_text(MINIMAL + "\n# trailing comment\n\n")
    assert cfg.name == "tiny"


def _expect_key(text, key):
    with pytest.raises(ConfigError) as err:
        parse_text(text)
    assert err.value.key == key
    return err.value


def test_unknown_key_named():
    _expect_key(MINIMAL + "colour = blue\n", "colour")


def test_duplicate_key_named():
    _expect_key(MINIMAL + "p = 3.0\n", "p")


def test_missing_required_key():
    broken = MINIMAL.replace("vector_norm = euclidean\n", "")
    _expect_key(broken, "vector_norm")


def test_bad_number_reports_key():
    broken = MINIMAL.replace("p = 2.0", "p = two")
    err = _expect_key(broken, "p")
    assert "expected a number, got 'two'" in str(err)


def test_p_must_exceed_one():
    _expect_key(MINIMAL.replace("p = 2.0", "p = 1.0"), "p")


def test_unknown_check_rejected():
    broken = MINIMAL.replace("checks = decomposition, contraction",
                             "checks = decomposition, nonsense")
    _expect_key(broken, "checks")


def test_geometric_grid_rule():
    text = MINIMAL.replace("t_grid = 1.0, 2.0, 4.0",
                           "t_grid.start = 0.5\nt_grid.ratio = 2.0\n"
                           "t_grid.count = 4")
    cfg = parse_text(text)
    assert cfg.t_grid == (0.5, 1.0, 2.0, 4.0)


def test_grid_given_both_ways_rejected():
    text = MINIMAL + "t_grid.start = 1.0\n"
    _expect_key(text, "t_grid")


def test_grid_must_increase():
    _expect_key(MINIMAL.replace("t_grid = 1.0, 2.0, 4.0",
                                "t_grid = 1.0, 1.0, 4.0"), "t_grid")
    _expect_key(MINIMAL.replace("s_grid = 0.0, 1.0, 2.0",
                                "s_grid = -1.0, 1.0"), "s_grid")


def test_circle_rejects_atom_keys():
    _expect_key(MINIMAL + "space.atoms = 8\n", "space.atoms")


def test_rotation_needs_circle():
    text = MINIMAL.replace("space.kind = circle", "space.kind = discrete") \
                  .replace("function.kind = sawtooth", "function.kind = atoms")
    text += "space.atoms = 4\n"
    text += "function.values = 1.0 ; -1.0 ; 2.0 ; -2.0\n"
    _expect_key(text, "flow.kind")


def test_step_scenario_with_perm():
    text = """
name = hop
space.kind = discrete
space.atoms = 4
flow.kind = step
flow.h = 0.5
flow.map = perm:1, 2, 3, 0
function.kind = atoms
function.values = 1.0 ; -1.0 ; 2.0 ; -2.0
vector_norm = max
filtration.direction = decreasing
filtration.max_level = 2
t_grid = 1.0, 2.0
s_grid = 0.0, 1.0
p = 2.0
epsilon = 0.5
checks = contraction
seed = 3
"""
    cfg = parse_text(text)
    assert cfg.flow_map == "perm:1, 2, 3, 0"
    assert cfg.function_values == ((1.0,), (-1.0,), (2.0,), (-2.0,))
    again = parse_text(cfg.echo())
    # echo canonicalizes float formatting but preserves meaning
    assert again.function_values == cfg.function_values
    assert again.flow_h == cfg.flow_h

    bad = text.replace("perm:1, 2, 3, 0", "perm:1, 1, 3, 0")
    _expect_key(bad, "flow.map")


def test_atoms_values_row_count_checked():
    text = """
name = short
space.kind = discrete
space.atoms = 4
flow.kind = identity
function.kind = atoms
function.values = 1.0 ; -1.0
vector_norm = max
filtration.direction = decreasing
filtration.max_level = 2
t_grid = 1.0
s_grid = 0.0
p = 2.0
epsilon = 0.5
checks = contraction
seed = 3
"""
    # the row count is the function's rule, checked when the function is
    # built, at run time
    cfg = parse_text(text)
    with pytest.raises(ConfigError) as err:
        build_context(cfg, np.random.default_rng(cfg.seed))
    assert err.value.key == "function.values"


ONE_ATOM = """
name = one
space.kind = discrete
{space}
flow.kind = identity
function.kind = atoms
function.values = 2.0
vector_norm = max
filtration.direction = decreasing
filtration.max_level = 0
t_grid = 1.0
s_grid = 0.0
p = 2.0
epsilon = 0.5
checks = contraction
seed = 3
"""


def _one_atom_space(line):
    cfg = parse_text(ONE_ATOM.format(space=line))
    return build_context(cfg, np.random.default_rng(cfg.seed)).space


def test_one_atom_by_count_or_by_weights():
    # one atom-count rule, a nonempty space, however the space is written
    by_count = _one_atom_space("space.atoms = 1")
    assert by_count.natoms == 1
    assert by_count == _one_atom_space("space.weights = 1.0")


@pytest.mark.parametrize("extra, key", [
    ("flow.h = 1.0", "flow.h"),
    ("flow.map = shift", "flow.map"),
    ("function.values = 1.0 ; 2.0", "function.values"),
    ("function.harmonic = 2", "function.harmonic"),
    ("function.breaks = 0.0, 1.0", "function.breaks"),
    ("space.weights = 0.5, 0.5", "space.weights"),
])
def test_key_the_kind_does_not_read_is_rejected(extra, key):
    # a rotation reads flow.theta only, a sawtooth neither values, harmonic
    # nor breaks, the circle no atom keys: such a key is never silently
    # dropped from the echo
    err = _expect_key(MINIMAL + extra + "\n", key)
    assert "not read when" in str(err)


@pytest.mark.parametrize("old, new, key", [
    ("space.atoms = 8",
     "space.weights = 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, -0.5", "space.weights"),
    # a shift on non-uniform weights does not preserve the measure
    ("space.atoms = 8",
     "space.weights = 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1", "flow.map"),
    ("space.kind = discrete\nspace.atoms = 8",
     "space.kind = product\nspace.cyclic_size = 0\n"
     "space.factor_weights = 0.5, 0.5", "space.cyclic_size"),
    ("space.kind = discrete\nspace.atoms = 8",
     "space.kind = product\nspace.cyclic_size = 4\n"
     "space.factor_weights = 0.5, 0.0", "space.factor_weights"),
    ("flow.map = shift", "flow.map = perm:1, 2, x, 0", "flow.map"),
    ("filtration.max_level = 3", "filtration.max_level = -1",
     "filtration.max_level"),
])
def test_constructor_rules_are_config_errors(old, new, key):
    # the space, the flow and the filtration are built at parse; each
    # constructor's ValueError names the key it concerns
    text = _step_z8_text()
    assert old in text
    _expect_key(text.replace(old, new), key)


def test_rotation_angle_checked_by_the_flow():
    _expect_key(MINIMAL.replace("flow.theta = golden", "flow.theta = 1.5"),
                "flow.theta")


def test_function_rules_are_config_errors_at_build():
    # the function is built at run time; its constructor's ValueError
    # names the key there
    text = MINIMAL.replace("function.kind = sawtooth",
                           "function.kind = explicit\n"
                           "function.breaks = 0.0, 0.5, 0.9\n"
                           "function.piece.0 = 1.0\n"
                           "function.piece.1 = 2.0")
    cfg = parse_text(text)
    with pytest.raises(ConfigError) as err:
        build_context(cfg, np.random.default_rng(cfg.seed))
    assert err.value.key == "function.breaks"


def test_piece_above_the_degree_cap_named():
    text = MINIMAL.replace("function.kind = sawtooth",
                           "function.kind = explicit\n"
                           "function.breaks = 0.0, 0.5, 1.0\n"
                           "function.piece.0 = 1.0\n"
                           "function.piece.1 = " + ", ".join(["1.0"] * 10))
    err = _expect_key(text, "function.piece.1")
    assert "exceeds cap" in str(err)
    # a degree-8 piece would leave its time average above the cap, so the
    # parser refuses it instead of every averaging check failing later
    one_piece = MINIMAL.replace("function.kind = sawtooth",
                                "function.kind = explicit\n"
                                "function.breaks = 0.0, 1.0\n"
                                "function.piece.0 = " + ", ".join(
                                    ["0"] * DEGREE_CAP + ["1"]))
    err = _expect_key(one_piece, "function.piece.0")
    assert f"degree {DEGREE_CAP} exceeds cap" in str(err)
    # one degree lower parses, and its averaging checks run and pass
    below = parse_text(one_piece.replace(", 0, 1", ", 1"))
    assert len(below.function_pieces[0][0]) == DEGREE_CAP
    assert run_scenario(below).passed


def test_max_level_capped_by_space():
    text = MINIMAL.replace("filtration.max_level = 3",
                           "filtration.max_level = 99")
    _expect_key(text, "filtration.max_level")


@pytest.mark.parametrize("level", [CIRCLE_LEVEL_CAP + 1, 30])
def test_circle_level_above_the_desk_cap_named(level):
    # parsed only: time and memory about triple every two levels, so such
    # a scenario would run for minutes in gigabytes; the space allows 30
    text = MINIMAL.replace("filtration.max_level = 3",
                           f"filtration.max_level = {level}")
    err = _expect_key(text, "filtration.max_level")
    assert f"level {level} exceeds the circle cap {CIRCLE_LEVEL_CAP}" in str(err)
    at_cap = parse_text(text.replace(f"= {level}", f"= {CIRCLE_LEVEL_CAP}"))
    assert at_cap.filtration_max_level == CIRCLE_LEVEL_CAP


def test_explicit_pieces():
    text = """
name = pieces
space.kind = circle
flow.kind = rotation
flow.theta = 0.41
function.kind = explicit
function.d = 2
function.breaks = 0.0, 0.5, 1.0
function.piece.0 = 1.0, 0.5 | 0.0, -1.0
function.piece.1 = -1.0 | 2.0
vector_norm = euclidean
filtration.direction = decreasing
filtration.max_level = 2
t_grid = 1.0
s_grid = 0.0
p = 2.0
epsilon = 0.5
checks = contraction
seed = 1
"""
    cfg = parse_text(text)
    assert cfg.function_breaks == (0.0, 0.5, 1.0)
    assert cfg.function_pieces[0] == ((1.0, 0.5), (0.0, -1.0))
    assert parse_text(cfg.echo()) == cfg

    missing = text.replace("function.piece.1 = -1.0 | 2.0\n", "")
    _expect_key(missing, "function.breaks")


def test_parse_config_missing_file():
    with pytest.raises(ConfigError) as err:
        parse_config("/nonexistent/path.cfg")
    assert err.value.key == "<file>"


def test_shipped_scenarios_all_roundtrip():
    pkg_dir = os.path.join(os.path.dirname(__file__), "..",
                           "src", "ergolab", "scenarios")
    paths = sorted(glob.glob(os.path.join(pkg_dir, "*.cfg")))
    assert len(paths) == 7
    for path in paths:
        cfg = parse_config(path)
        assert parse_text(cfg.echo()) == cfg


def _file_pairs(path):
    with open(path, encoding="utf-8") as fh:
        lines = [raw.split("#", 1)[0].strip() for raw in fh]
    return dict(tuple(part.strip() for part in line.split("=", 1))
                for line in lines if line)


def test_shipped_echo_lists_every_key_of_the_file():
    for path in sorted(glob.glob(os.path.join(scenario_dir(), "*.cfg"))):
        echo = dict(line.split(" = ", 1)
                    for line in parse_config(path).echo().splitlines())
        given = _file_pairs(path)
        for key in given:
            grid, _, part = key.rpartition(".")
            if part in ("start", "ratio", "count"):
                # a geometric rule is echoed as the explicit list it gives
                start = float(given[f"{grid}.start"])
                ratio = float(given[f"{grid}.ratio"])
                count = int(given[f"{grid}.count"])
                assert echo[grid] == ", ".join(
                    repr(start * ratio ** k) for k in range(count)), path
            else:
                assert key in echo, (path, key)


def _step_z8_text():
    with open(os.path.join(scenario_dir(), "step_z8.cfg"), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("old, new, key", [
    ("threshold = 0.05", "threshold = inf", "threshold"),
    ("flow.h = 1.0", "flow.h = nan", "flow.h"),
    ("epsilon = 0.25", "epsilon = nan", "epsilon"),
    ("p = 2\n", "p = inf\n", "p"),
    ("function.values = 0.9, -0.3", "function.values = nan, -0.3",
     "function.values"),
    ("s_grid = 0, 1, 2,", "s_grid = 0, 1, inf,", "s_grid"),
    ("t_grid.ratio = 1.5", "t_grid.ratio = inf", "t_grid.ratio"),
    # finite inputs whose geometric rule overflows: ratio ** 15 and
    # start * ratio ** 15 pass the float range
    ("t_grid.ratio = 1.5", "t_grid.ratio = 1e300", "t_grid"),
    ("t_grid.start = 1", "t_grid.start = 1e307", "t_grid"),
])
def test_non_finite_numbers_rejected_with_their_key(old, new, key):
    text = _step_z8_text()
    assert old in text
    err = _expect_key(text.replace(old, new), key)
    assert "finite number" in str(err)


def test_non_finite_piece_coefficient_rejected():
    text = MINIMAL.replace("function.kind = sawtooth",
                           "function.kind = explicit\n"
                           "function.breaks = 0.0, 1.0\n"
                           "function.piece.0 = 1.0, -inf")
    err = _expect_key(text, "function.piece.0")
    assert "expected a finite number" in str(err)
