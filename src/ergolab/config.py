"""Flat key = value scenario configuration.

The format is line oriented: ``key = value`` with dotted key paths,
``#`` comments, and blank lines.  Chosen over nested formats so the
parser stays dependency-free and the schema stays greppable.

One ordered table, ``_SCHEMA``, gives each key's field, reader, the kinds
that read it and its text form; parsing, the rejection of unknown keys and
of keys the chosen kind does not read, and ``ScenarioConfig.echo`` all come
from it.  Readers check the form of a value.  A rule about an object is
checked once, by its constructor: ``parse_text`` builds the space, the flow
and the filtration, ``runner.build_context`` the function, and each raises
a constructor's ValueError as a ConfigError naming the key.
"""

from contextlib import contextmanager
from dataclasses import dataclass
import math
from typing import Callable, NamedTuple

from .flows import GOLDEN
from .functions import DEGREE_CAP
from .processes import _check_grid

_SPACE_KINDS = ("circle", "discrete", "product")
_FLOW_KINDS = ("rotation", "step", "identity")
_FUNCTION_KINDS = ("sawtooth", "hat", "smooth", "explicit", "atoms")
_NORMS = ("euclidean", "max", "sum")
_DIRECTIONS = ("increasing", "decreasing")

_ATOMIC = ("discrete", "product")
# the space kinds each flow and function kind lives on
_LIVES_ON = dict.fromkeys(("rotation", "sawtooth", "hat", "smooth", "explicit"),
                          ("circle",))
_LIVES_ON.update(step=_ATOMIC, atoms=_ATOMIC, identity=_SPACE_KINDS)


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


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    space_kind: str
    flow_kind: str
    function_kind: str
    vector_norm: str
    filtration_direction: str
    filtration_max_level: int
    t_grid: tuple
    s_grid: tuple
    p: float
    epsilon: float
    threshold: float
    checks: tuple
    seed: int
    space_atoms: int = None
    space_weights: tuple = None
    space_cyclic_size: int = None
    space_factor_weights: tuple = None
    flow_theta: float = None
    flow_h: float = None
    flow_map: str = None
    function_d: int = 1
    function_amplitudes: tuple = None
    function_phases: tuple = None
    function_harmonic: int = None
    function_breaks: tuple = None
    function_pieces: tuple = None
    function_values: tuple = None

    def echo(self):
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
_flow_map = _where(_text, lambda v: v == "shift" or v.startswith("perm:"),
                   "expected 'shift' or 'perm:i0,i1,...'")


def _angle(key, raw):
    return GOLDEN if raw == "golden" else _number(key, raw)


def _check_names(key, raw):
    from .runner import CHECK_NAMES
    checks = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    for c in checks:
        if c not in CHECK_NAMES:
            raise ConfigError(key, f"unknown check {c!r}; run the list "
                                   "command for valid names")
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


def _kind(choices):
    read_choice = _value(_choice(*choices))

    def read(kv, key, got):
        kind = read_choice(kv, key, got)
        if got["space_kind"] not in _LIVES_ON[kind]:
            raise ConfigError(key, f"{kind} needs space.kind = "
                                   + " or ".join(_LIVES_ON[kind]))
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
    _Key("name", "name", _value(_text)),
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
    _Key("filtration.max_level", "filtration_max_level", _value(_integer)),
    _Key("t_grid", "t_grid", _grid(True), fmt=_fmt_floats, parts=_GRID_PARTS),
    _Key("s_grid", "s_grid", _grid(False), fmt=_fmt_floats, parts=_GRID_PARTS),
    _Key("p", "p", _value(_above_one), fmt=repr),
    _Key("epsilon", "epsilon", _value(_positive), fmt=repr),
    _Key("threshold", "threshold", _value(_positive, 0.05), fmt=repr),
    _Key("checks", "checks", _value(_check_names), fmt=", ".join),
    _Key("seed", "seed", _value(_integer)),
)

_ROWS = {row.key: row for row in _SCHEMA}


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
    from .runner import _filtration, build_flow, build_space
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
