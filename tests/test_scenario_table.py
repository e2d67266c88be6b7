"""The scenario table: ScenarioConfig, the kind tables and the rules on
name, checks and seed all come from config.py's one schema."""

import dataclasses

import pytest

from ergolab.cli import main
from ergolab.config import (_FLOW_KINDS, _FUNCTION_KINDS, _SCHEMA,
                            _SPACE_KINDS, ConfigError, ScenarioConfig,
                            parse_text)
from ergolab.flows import Flow, Rotation, Step
from ergolab.runner import run_scenario
from ergolab.spaces import Atoms, Circle, Product

MINIMAL = """
name = tiny
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
checks = decomposition, contraction
seed = 7
"""


def _key_of(text):
    with pytest.raises(ConfigError) as err:
        parse_text(text)
    return err.value.key


def test_config_fields_are_the_schema_field_column():
    assert [f.name for f in dataclasses.fields(ScenarioConfig)] == \
        [row.field for row in _SCHEMA]
    assert ScenarioConfig.__module__ == "ergolab.config"
    cfg = parse_text(MINIMAL)
    assert dataclasses.replace(cfg, seed=8) != cfg
    assert parse_text(cfg.echo()) == cfg


def test_kind_tables_match_the_classes():
    assert sorted(_FLOW_KINDS) == sorted(c.kind for c in (Flow, Rotation, Step))
    assert sorted(_SPACE_KINDS) == sorted(c.kind for c in (Circle, Atoms, Product))
    # every kind lives on known space kinds
    for table in (_SPACE_KINDS, _FLOW_KINDS, _FUNCTION_KINDS):
        assert all(set(spaces) <= set(_SPACE_KINDS) for spaces in table.values())


def test_list_prints_every_function_kind(capsys):
    assert main(["list"]) == 0
    printed = capsys.readouterr().out.split()
    assert all(kind in printed for kind in _FUNCTION_KINDS)


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    assert _key_of(MINIMAL.replace("seed = 7", "seed = -3")) == "seed"
    assert parse_text(MINIMAL.replace("seed = 7", "seed = 0")).seed == 0
    with pytest.raises(ConfigError) as err:
        run_scenario(parse_text(MINIMAL), seed=-1)
    assert err.value.key == "seed"
    path = tmp_path / "tiny.cfg"
    path.write_text(MINIMAL)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--seed", "-1"]) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("checks", ["", "contraction, contraction",
                                    "decomposition, contraction, decomposition"])
def test_checks_name_at_least_one_check_each_once(checks):
    text = MINIMAL.replace("checks = decomposition, contraction",
                           f"checks = {checks}")
    assert _key_of(text) == "checks"


@pytest.mark.parametrize("name", ["", "../escaped", "sub/tiny", "sub\\tiny"])
def test_name_is_a_nonempty_file_stem(name, tmp_path):
    text = MINIMAL.replace("name = tiny", f"name = {name}")
    assert _key_of(text) == "name"
    path = tmp_path / "cfgs" / "bad.cfg"
    path.parent.mkdir()
    path.write_text(text)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "cfgs" / "out")]) == 2
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.cfg", "cfgs"]
