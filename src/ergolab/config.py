"""Flat key = value scenario configuration.

The format is line oriented: ``key = value`` with dotted key paths,
``#`` comments, and blank lines.  Chosen over nested formats so the
parser stays dependency-free and the schema stays greppable.

One ordered table, ``_SCHEMA``, gives each key's field, reader, the kinds
that read it and its text form; ``ScenarioConfig``'s fields, parsing, the
rejection of unknown keys and of keys the chosen kind does not read, and
``echo`` all come from it.  ``_SPACE_KINDS``, ``_FLOW_KINDS`` and
``_FUNCTION_KINDS`` list each kind once, with the space kinds it lives on.
Readers check the form of a value.  A rule about an object is checked
once, by its constructor: the builders below raise a constructor's
ValueError as a ConfigError naming the key.  ``parse_text`` builds the
space, the flow and the filtration, ``runner.build_context`` the function.
"""

from contextlib import contextmanager
from dataclasses import make_dataclass
import math
from typing import Callable, NamedTuple

import numpy as np

from .flows import GOLDEN, identity_flow, rotation_flow, step_flow
from .functions import (DEGREE_CAP, AtomFunction, CircleFunction, from_smooth,
                        harmonic_generator, hat, sawtooth)
from .processes import _check_grid
from .spaces import Filtration, circle_space, discrete_space, product_space

_NORMS = ("euclidean", "max", "sum")
_DIRECTIONS = ("increasing", "decreasing")
# the finest circle filtration a scenario may ask for (the space allows 30):
# time and memory about triple every two levels (level 14: 3.8 s, 409 MB)
CIRCLE_LEVEL_CAP = 16

# each kind, in listing order, mapped to the space kinds it lives on
_SPACE_KINDS = {kind: (kind,) for kind in ("circle", "discrete", "product")}
_FLOW_KINDS = {"rotation": ("circle",), "step": ("discrete", "product"),
               "identity": tuple(_SPACE_KINDS)}
_FUNCTION_KINDS = {**dict.fromkeys(("sawtooth", "hat", "smooth", "explicit"),
                                   ("circle",)),
                   "atoms": ("discrete", "product")}


class ConfigError(ValueError):
    """Validation failure naming the first offending key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")


@contextmanager
def _as_config_error(key):
    """Raise a constructor's ValueError as a ConfigError naming key."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def _echo(self):
    """Canonical text form; parsing it back yields an equal config."""
    lines = []
    for row in _SCHEMA:
        v = getattr(self, row.field)
        if v is not None and row.many:
            lines += [f"{row.key}.{i} = {row.fmt(x)}" for i, x in enumerate(v)]
        elif v is not None:
            lines.append(f"{row.key} = {row.fmt(v)}")
    return "\n".join(lines) + "\n"


def _fmt_floats(vals):
    return ", ".join(repr(float(v)) for v in vals)


def _read_pairs(text):
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = map(str.strip, line.partition("="))
        if not eq or not key:
            raise ConfigError(f"<line {lineno}>", f"not a key = value line: {raw!r}")
        if key in kv:
            raise ConfigError(key, "duplicate key")
        kv[key] = value
    return kv


# -- converters: (key, text) -> value --------------------------------------------


def _text(key, raw):
    return raw


def _number(key, tok):
    """float(tok) if tok is a finite number, else a ConfigError naming key;
    every real number in a scenario file is read here."""
    try:
        v = float(tok)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {tok.strip()!r}") from None
    if not math.isfinite(v):
        raise ConfigError(key, f"expected a finite number, got {tok.strip()!r}")
    return v


def _integer(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from None


def _numbers(key, raw):
    return tuple(_number(key, tok) for tok in raw.split(",") if tok.strip())


def _where(convert, ok, message):
    """convert, then a ConfigError with message unless ok(value)."""
    def check(key, raw):
        v = convert(key, raw)
        if not ok(v):
            raise ConfigError(key, message.format(v))
        return v
    return check


def _choice(*choices):
    return _where(_text, choices.__contains__,
                  f"expected one of {choices}, got {{!r}}")


_positive = _where(_number, lambda v: v > 0.0, "must be positive")
_positive_int = _where(_integer, lambda v: v >= 1, "must be a positive integer")
_above_one = _where(_number, lambda v: v > 1.0, "inequality checks require p > 1")
_non_negative_int = _where(_integer, lambda v: v >= 0,
                           "must be a non-negative integer")
_flow_map = _where(_text, lambda v: v == "shift" or v.startswith("perm:"),
                   "expected 'shift' or 'perm:i0,i1,...'")
# the name is the stem of every artifact file, so it must stay in --out
_file_stem = _where(_text, lambda v: v and "/" not in v and "\\" not in v,
                    "expected a nonempty file stem without '/' or '\\'")


def _angle(key, raw):
    return GOLDEN if raw == "golden" else _number(key, raw)


def _check_names(key, raw):
    from .runner import CHECK_NAMES
    checks = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    for i, c in enumerate(checks):
        if c not in CHECK_NAMES:
            raise ConfigError(key, f"unknown check {c!r}; run the list "
                                   "command for valid names")
        if c in checks[:i]:
            raise ConfigError(key, f"check {c!r} is listed twice")
    if not checks:
        raise ConfigError(key, "expected at least one check")
    return checks


# -- readers: (key = value pairs, key, fields read so far) -> value --------------

_REQUIRED = object()


def _value(convert, default=_REQUIRED):
    """Reader of one key through convert; without the key, default, or a
    ConfigError if the key is required."""
    def read(kv, key, got):
        if key in kv:
            return convert(key, kv[key])
        if default is _REQUIRED:
            raise ConfigError(key, "required key is missing")
        return default
    return read


def _kind(kinds):
    read_choice = _value(_choice(*kinds))

    def read(kv, key, got):
        kind = read_choice(kv, key, got)
        if got["space_kind"] not in kinds[kind]:
            raise ConfigError(key, f"{kind} needs space.kind = "
                                   + " or ".join(kinds[kind]))
        return kind
    return read


def _atom_count(kv, key, got):
    if "space.weights" not in kv:
        return _value(_positive_int)(kv, key, got)
    # the weights give the count
    if key in kv and _integer(key, kv[key]) != len(
            _numbers("space.weights", kv["space.weights"])):
        raise ConfigError(key, "contradicts space.weights length")
    return None


def _per_component(kv, key, got):
    vals = _value(_numbers, None)(kv, key, got)
    if vals is not None and len(vals) != got["function_d"]:
        raise ConfigError(key, f"expected {got['function_d']} entries")
    return vals


def _pieces(kv, key, got):
    d, n = got["function_d"], len(got["function_breaks"]) - 1
    piece_keys = sorted((int(k.rsplit(".", 1)[1]), k) for k in kv
                        if _row_key(k) == key)
    if [i for i, _ in piece_keys] != list(range(n)):
        raise ConfigError("function.breaks",
                          f"expected pieces 0..{n - 1} to be given")
    pieces = []
    for _, k in piece_keys:
        comps = tuple(tuple(_number(k, tok) for tok in comp.split(","))
                      for comp in kv[k].split("|"))
        if len(comps) != d:
            raise ConfigError(k, f"expected {d} components")
        # the degree cap is read here, so the error names the piece; time
        # averages integrate, so a piece keeps one degree below the cap
        degree = max(len(comp) for comp in comps) - 1
        if degree >= DEGREE_CAP:
            raise ConfigError(k, f"degree {degree} exceeds cap "
                                 f"{DEGREE_CAP - 1} for explicit pieces")
        pieces.append(comps)
    return tuple(pieces)


def _max_level(kv, key, got):
    level = _value(_integer)(kv, key, got)
    if got["space_kind"] == "circle" and level > CIRCLE_LEVEL_CAP:
        raise ConfigError(key, f"level {level} exceeds the circle cap "
                               f"{CIRCLE_LEVEL_CAP}")
    return level


def _value_rows(kv, key, got):
    d = got["function_d"]
    rows = tuple(tuple(_number(key, tok) for tok in row.split(","))
                 for row in _value(_text)(kv, key, got).split(";"))
    if any(len(row) != d for row in rows):
        raise ConfigError(key, f"each row must have {d} entries")
    return rows


_GRID_PARTS = ("start", "ratio", "count")


def _grid(positive):
    """Reader of an explicit grid list or a geometric rule
    (key.start * key.ratio ** k for k < key.count)."""
    def read(kv, key, got):
        geo = any(f"{key}.{part}" in kv for part in _GRID_PARTS)
        if key in kv and geo:
            raise ConfigError(key, "give either an explicit list or a "
                                   "geometric rule, not both")
        if not geo:
            vals = _value(_numbers)(kv, key, got)
        else:
            start, ratio, count = (
                _value(convert)(kv, f"{key}.{part}", got)
                for part, convert in zip(_GRID_PARTS, (_number, _number, _integer)))
            try:
                vals = tuple(start * ratio ** k for k in range(count))
            except OverflowError:
                vals = (math.inf,)
        with _as_config_error(key):
            _check_grid(vals, key, positive)
        return vals
    return read


class _Key(NamedTuple):
    """One schema row.  ``kinds``: the space, flow or function kinds (by the
    key's prefix) that read the key, empty for all.  A ``many`` row holds
    key.0, key.1, ...; the reader may read key.part for each of ``parts``."""

    key: str
    field: str
    read: Callable
    kinds: tuple = ()
    fmt: Callable = str
    many: bool = False
    parts: tuple = ()


_SCHEMA = (
    _Key("name", "name", _value(_file_stem)),
    _Key("space.kind", "space_kind", _value(_choice(*_SPACE_KINDS))),
    _Key("space.atoms", "space_atoms", _atom_count, ("discrete",)),
    _Key("space.weights", "space_weights", _value(_numbers, None),
         ("discrete",), _fmt_floats),
    _Key("space.cyclic_size", "space_cyclic_size", _value(_integer),
         ("product",)),
    _Key("space.factor_weights", "space_factor_weights", _value(_numbers),
         ("product",), _fmt_floats),
    _Key("flow.kind", "flow_kind", _kind(_FLOW_KINDS)),
    _Key("flow.theta", "flow_theta", _value(_angle), ("rotation",), repr),
    _Key("flow.h", "flow_h", _value(_positive), ("step",), repr),
    _Key("flow.map", "flow_map", _value(_flow_map, "shift"), ("step",)),
    _Key("function.kind", "function_kind", _kind(_FUNCTION_KINDS)),
    _Key("function.d", "function_d", _value(_positive_int, 1)),
    _Key("function.amplitudes", "function_amplitudes", _per_component,
         ("sawtooth", "hat", "smooth"), _fmt_floats),
    _Key("function.phases", "function_phases", _per_component,
         ("sawtooth", "hat", "smooth"), _fmt_floats),
    _Key("function.harmonic", "function_harmonic", _value(_positive_int, 1),
         ("smooth",)),
    _Key("function.breaks", "function_breaks", _value(_numbers),
         ("explicit",), _fmt_floats),
    _Key("function.piece", "function_pieces", _pieces, ("explicit",),
         lambda piece: " | ".join(map(_fmt_floats, piece)), many=True),
    _Key("function.values", "function_values", _value_rows, ("atoms",),
         lambda rows: " ; ".join(map(_fmt_floats, rows))),
    _Key("vector_norm", "vector_norm", _value(_choice(*_NORMS))),
    _Key("filtration.direction", "filtration_direction",
         _value(_choice(*_DIRECTIONS))),
    _Key("filtration.max_level", "filtration_max_level", _max_level),
    _Key("t_grid", "t_grid", _grid(True), fmt=_fmt_floats, parts=_GRID_PARTS),
    _Key("s_grid", "s_grid", _grid(False), fmt=_fmt_floats, parts=_GRID_PARTS),
    _Key("p", "p", _value(_above_one), fmt=repr),
    _Key("epsilon", "epsilon", _value(_positive), fmt=repr),
    _Key("threshold", "threshold", _value(_positive, 0.05), fmt=repr),
    _Key("checks", "checks", _value(_check_names), fmt=", ".join),
    _Key("seed", "seed", _value(_non_negative_int)),
)

ScenarioConfig = make_dataclass(
    "ScenarioConfig", [row.field for row in _SCHEMA], frozen=True,
    namespace={"__doc__": "A parsed scenario; its fields are _SCHEMA's "
                          "field column, in row order.",
               "__module__": __name__, "echo": _echo})

_ROWS = {row.key: row for row in _SCHEMA}


# -- config -> objects -----------------------------------------------------------


def build_space(cfg):
    if cfg.space_kind == "circle":
        return circle_space()
    if cfg.space_kind == "discrete":
        if cfg.space_weights is None:
            return discrete_space(np.full(cfg.space_atoms, 1.0 / cfg.space_atoms))
        with _as_config_error("space.weights"):
            return discrete_space(cfg.space_weights)
    # the atomic factor is a discrete space; built first, its weights get their key
    with _as_config_error("space.factor_weights"):
        factor = discrete_space(cfg.space_factor_weights)
    with _as_config_error("space.cyclic_size"):
        return product_space(cfg.space_cyclic_size, factor.weights)


def build_flow(cfg, space):
    if cfg.flow_kind == "rotation":
        with _as_config_error("flow.theta"):
            return rotation_flow(cfg.flow_theta, space)
    if cfg.flow_kind == "identity":
        return identity_flow(space)
    with _as_config_error("flow.map"):
        perm = space.shift_perm() if cfg.flow_map in (None, "shift") else [
            int(tok) for tok in cfg.flow_map[5:].split(",")]
        return step_flow(space, perm, cfg.flow_h)


def _filtration(cfg, space):
    with _as_config_error("filtration.max_level"):
        return Filtration(space, cfg.filtration_direction,
                          cfg.filtration_max_level)


def build_function(cfg, space):
    kind = cfg.function_kind
    if kind == "sawtooth":
        return sawtooth(cfg.function_d, cfg.function_amplitudes,
                        cfg.function_phases, space)
    if kind == "hat":
        return hat(cfg.function_d, cfg.function_amplitudes,
                   cfg.function_phases, space)
    if kind == "smooth":
        gen = harmonic_generator(cfg.function_d, cfg.function_amplitudes,
                                 cfg.function_phases, cfg.function_harmonic)
        # desk-scale fidelity; tighter targets just multiply pieces
        with _as_config_error("function.harmonic"):
            return from_smooth(gen, cfg.function_d, target=2e-5, space=space)
    if kind == "explicit":
        k1 = max(len(comp) for piece in cfg.function_pieces for comp in piece)
        coeffs = np.zeros((len(cfg.function_pieces), k1, cfg.function_d))
        for i, piece in enumerate(cfg.function_pieces):
            for j, comp in enumerate(piece):
                coeffs[i, :len(comp), j] = comp
        with _as_config_error("function.breaks"):
            return CircleFunction(cfg.function_breaks, coeffs, space)
    with _as_config_error("function.values"):
        return AtomFunction(space, cfg.function_values)


def _row_key(key):
    """The key of the schema row a file key belongs to; None if unknown."""
    if key in _ROWS:
        return None if _ROWS[key].many else key
    head, _, tail = key.rpartition(".")
    row = _ROWS.get(head)
    if row is not None and (tail.isdigit() if row.many else tail in row.parts):
        return head
    return None


def parse_text(text):
    kv = _read_pairs(text)
    given = {}
    for key in kv:
        head = _row_key(key)
        if head is None:
            raise ConfigError(key, "unknown key")
        given.setdefault(head, key)
    got = {}
    for row in _SCHEMA:
        group = row.key.partition(".")[0]
        if row.kinds and got[f"{group}_kind"] not in row.kinds:
            if row.key in given:
                raise ConfigError(given[row.key], "not read when "
                                  f"{group}.kind = {got[f'{group}_kind']}")
            got[row.field] = None
        else:
            got[row.field] = row.read(kv, row.key, got)
    cfg = ScenarioConfig(**got)
    space = build_space(cfg)
    build_flow(cfg, space)
    _filtration(cfg, space)
    return cfg


def parse_config(path):
    """Read and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    return parse_text(text)
