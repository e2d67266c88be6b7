import glob
import os

import pytest

from ergolab.cli import scenario_dir
from ergolab.config import ConfigError, parse_config, parse_text

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
    _expect_key(text, "function.values")


def test_max_level_capped_by_space():
    text = MINIMAL.replace("filtration.max_level = 3",
                           "filtration.max_level = 99")
    _expect_key(text, "filtration.max_level")


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
